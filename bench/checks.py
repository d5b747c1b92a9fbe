"""Output checks, computed apart from the program.

Each check takes the files one pass wrote and returns a list of
problems (empty when the output is right). The reference values come
from the benchmark's own numpy code or from properties the method must
have; nothing here imports youngflow.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from inputs import read_path

# Values the program computes by the same arithmetic as the reference
# agree to rounding; a relative error of 1e-9 is far outside it.
REL_ROUNDING = 1e-12

# Pooled lag-2/lag-1 quadratic-variation Hurst estimate over two paths of
# 4097 points: its standard deviation at H = 0.75 is 0.008 (600 seeds),
# so 0.06 is seven deviations wide and still rejects H = 0.6 paths.
HURST_TOL = 0.06

# Transport with constant speed is exact under Euler, so the error is the
# linear interpolation of sin and cos between seeds of spacing h = 0.05,
# at most h^2/8 = 3.1e-4; measured up to 3.2e-4 over 30 seeds.
TRANSPORT_TOL = 1e-3

# The caustic time is interpolated from the driver alone; the program's
# seed Jacobian of a_t = x (1 + X_t - X_0) is exact up to rounding.
FOLD_TOL = 1e-9

# Residuals of identities that hold exactly for commuting linear maps.
EXACT_TOL = 1e-12


def load_json(fname) -> dict:
    with open(fname) as fh:
        return json.load(fh)


def _close(a: float, b: float, rel: float = REL_ROUNDING) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ------------------------------------------------------- p-variation

def p_variation_dp(values: np.ndarray, p: float) -> float:
    """Exact grid p-variation by the O(n^2) dynamic program.

    best[j] = max over i < j of best[i] + |X_j - X_i|^p (Euclidean norm),
    written here apart from the program.
    """
    flat = np.asarray(values, dtype=float).reshape(len(values), -1)
    best = np.zeros(len(flat))
    for j in range(1, len(flat)):
        d = flat[j] - flat[:j]
        best[j] = np.max(best[:j] + np.sqrt(np.einsum("ij,ij->i", d, d)) ** p)
    return float(best[-1] ** (1.0 / p))


def partition_sum(values: np.ndarray, idx, p: float) -> float:
    flat = np.asarray(values, dtype=float).reshape(len(values), -1)
    steps = np.diff(flat[np.asarray(idx)], axis=0)
    return float(np.sum(np.linalg.norm(steps, axis=1) ** p) ** (1.0 / p))


def check_pvar(doc: dict, values: np.ndarray, p: float) -> list:
    out = []
    ref = p_variation_dp(values, p)
    if not _close(doc["value"], ref):
        out.append(f"pvar value {doc['value']!r} != independent DP {ref!r}")
    idx = doc["optimal_partition"]
    n = len(values)
    if idx[0] != 0 or idx[-1] != n - 1 or np.any(np.diff(idx) <= 0):
        out.append("optimal partition is not an increasing 0..n-1 index list")
    elif not _close(partition_sum(values, idx, p), doc["value"]):
        out.append("reported partition does not attain the reported value")
    sup = float(np.max(np.linalg.norm(values.reshape(n, -1), axis=1)))
    if not _close(doc["sup_norm"], sup):
        out.append(f"sup_norm {doc['sup_norm']!r} != {sup!r}")
    if not _close(doc["norm"], doc["value"] + sup):
        out.append("norm != value + sup_norm")
    if doc["n_points"] != n or doc["p"] != p:
        out.append("pvar report has the wrong n_points or p")
    return out


# ------------------------------------------------------------ drivers

def hurst_estimate(paths) -> float:
    """H from the ratio of lag-2 to lag-1 quadratic variation, pooled."""
    q1 = sum(float(np.sum(np.diff(x) ** 2)) for x in paths)
    q2 = sum(float(np.sum((x[2:] - x[:-2]) ** 2)) for x in paths)
    return 0.5 * math.log2(q2 / q1)


def check_generated_fbm(files, n_points: int, hurst: float) -> list:
    out = []
    paths = []
    grid = np.linspace(0.0, 1.0, n_points)
    for fname in files:
        times, vals = read_path(fname)
        if vals.shape != (n_points, 1) or not np.array_equal(times, grid):
            out.append(f"{Path(fname).name}: not {n_points} points on the uniform grid")
            continue
        if vals[0, 0] != 0.0:
            out.append(f"{Path(fname).name}: fBm does not start at 0")
        paths.append(vals[:, 0])
    if paths:
        est = hurst_estimate(paths)
        if abs(est - hurst) > HURST_TOL:
            out.append(f"pooled Hurst estimate {est:.4f} is not within {HURST_TOL} of {hurst}")
    return out


# ---------------------------------------------------------- integrate

def young_constant(p: float, q: float) -> float:
    return 1.0 / (1.0 - 2.0 ** (1.0 - (1.0 / p + 1.0 / q)))


def check_self_integral(doc: dict, x: np.ndarray, p: float, q: float) -> list:
    """Left-tag integral of X against itself, with its Young-Loeve bound."""
    out = []
    dx = np.diff(x)
    exact = 0.5 * (x[-1] ** 2 - x[0] ** 2) - 0.5 * float(np.sum(dx * dx))
    value = doc["value"][0]
    scale = float(np.sum(np.abs(x[:-1] * dx)))
    if abs(value - exact) > 1e-12 * max(scale, 1.0):
        out.append(f"integral {value!r} != (X_T^2 - X_0^2)/2 - QV/2 = {exact!r}")
    dev = abs(value - x[0] * (x[-1] - x[0]))
    bound = doc["certified_bound"]
    if bound is None or not dev <= bound:
        out.append(f"deviation {dev!r} exceeds the certified bound {bound!r}")
    else:
        ref = young_constant(p, q) * p_variation_dp(x, q) * p_variation_dp(x, p)
        if not _close(bound, ref):
            out.append(f"certified bound {bound!r} != C V_q V_p = {ref!r}")
    if doc["tag"] != "left" or doc["interval"] != [0.0, 1.0]:
        out.append("integral report has the wrong tag or interval")
    return out


# ---------------------------------------------------- ladders and pde

def check_ladder(doc: dict, name: str) -> list:
    """Converged and strictly decreasing from the coarsest level down."""
    r = [lv["residual"] for lv in doc["levels"]]
    if not (doc["converged"] and doc.get("pass", True)):
        return [f"{name}: residual ladder did not converge"]
    if any(b >= a for a, b in zip(r, r[1:])):
        return [f"{name}: residuals {r} do not decrease"]
    return []


def check_exact_ladder(doc: dict, name: str) -> list:
    r = [lv["residual"] for lv in doc["levels"]]
    if not (doc["converged"] and doc["pass"]) or max(r) > EXACT_TOL:
        return [f"{name}: residuals {r} of an exact identity exceed {EXACT_TOL}"]
    return []


def check_transport_solution(outdir: Path, times, x, k: float, slice_idx) -> list:
    """Every slice equals sin(y + k (X_t - X_0)), and every point is valid."""
    out = []
    index = load_json(outdir / "slice_index.json")
    if index["times"] != [float(times[i]) for i in slice_idx]:
        out.append("solution slices are not at the requested grid times")
        return out
    if any(s is not None for s in index["sigma_proxy"]):
        out.append("an evaluation point lost validity")
    worst = 0.0
    for name, i in zip(index["files"], slice_idx):
        y, vals = read_path(outdir / name)
        u, du = vals[:, 0], vals[:, 1]
        phase = y + k * (x[i] - x[0])
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(du))):
            out.append(f"{name}: invalid (NaN) points")
            continue
        worst = max(worst, float(np.max(np.abs(u - np.sin(phase)))),
                    float(np.max(np.abs(du - np.cos(phase)))))
    if worst > TRANSPORT_TOL:
        out.append(f"slices deviate from sin(y + k dX) by {worst:.2e} > {TRANSPORT_TOL}")
    return out


def fold_time(times, x) -> float:
    """First time X_t - X_0 crosses -1, linearly interpolated on the grid."""
    det = 1.0 + (x - x[0])
    i = int(np.nonzero((det[:-1] > 0) & (det[1:] <= 0))[0][0])
    return float(times[i] + det[i] / (det[i] - det[i + 1]) * (times[i + 1] - times[i]))


def check_caustic(doc: dict, times, x, n_seeds: int) -> list:
    out = []
    tau = np.asarray(doc["tau_map"], dtype=float)
    t_star = fold_time(times, x)
    if doc["n_folded"] != n_seeds or tau.shape != (n_seeds,):
        out.append(f"{doc['n_folded']} of {n_seeds} seeds folded")
    elif np.max(np.abs(tau - t_star)) > FOLD_TOL or abs(doc["min_tau"] - t_star) > FOLD_TOL:
        out.append(f"fold times differ from the driver's crossing {t_star!r} "
                   f"by {np.max(np.abs(tau - t_star)):.2e}")
    return out


# --------------------------------------------------------------- yde

def euler_log_defect(dx: np.ndarray):
    """(centre, radius) of log(prod(1 + dx)) - sum(dx), Euler's defect.

    For |x| <= 1/2, |log(1 + x) - x + x^2/2| <= (2/3)|x|^3, so the Euler
    product of dY = Y dX is y0 exp(X_T - X_0 - sum dx^2 / 2) up to a
    factor exp(+-(2/3) sum |dx|^3).
    """
    dx = np.asarray(dx, dtype=float)
    if np.max(np.abs(dx)) > 0.5:
        raise ValueError("driver increments too large for the Euler bound")
    return -0.5 * float(np.sum(dx * dx)), 2.0 / 3.0 * float(np.sum(np.abs(dx) ** 3))


def _log_defect_problem(name: str, actual: float, target: float, dx) -> list:
    centre, radius = euler_log_defect(dx)
    err = math.log(actual / target) - centre
    if abs(err) > radius + 1e-12:
        return [f"{name} is off y0 exp(dX) by {err:.2e} in log beyond Euler's "
                f"defect {centre:.2e} +- {radius:.2e}"]
    return []


def check_scaling_solve(times, vals, driver_times, x, y0: float) -> list:
    """dY = Y dX ends at y0 exp(X_T - X_0), up to Euler's defect."""
    if not np.array_equal(times, driver_times) or vals[0, 0] != y0:
        return ["solution does not start at y0 on the driver grid"]
    return _log_defect_problem("Y_T", vals[-1, 0], y0 * math.exp(x[-1] - x[0]), np.diff(x))


def rotation(theta: float) -> np.ndarray:
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def check_rotation_flow(outdir: Path, x, grid_axis) -> list:
    """Each trajectory of dY = J Y dX ends near R(X_T - X_0) y0.

    An Euler step multiplies the radius by (1 + dx^2)^(1/2) and turns by
    atan(dx), so the end radius lies in [|y0|, |y0| exp(sum dx^2 / 2)]
    and the angle is off X_T - X_0 by at most sum |dx|^3 / 3.
    """
    out = []
    index = load_json(outdir / "flow_index.json")
    pts = np.array([[a, b] for a in grid_axis for b in grid_axis])
    if not np.array_equal(np.asarray(index["initial_points"]), pts):
        return ["flow initial points are not the requested grid"]
    if any(t != 1.0 for t in index["alive_until"]):
        out.append("a flow trajectory was frozen before the horizon")
    dx = np.diff(x)
    growth = math.exp(0.5 * float(np.sum(dx * dx)))
    turn = float(np.sum(np.abs(dx) ** 3)) / 3.0
    for name, y0 in zip(index["files"], pts):
        _, vals = read_path(outdir / name)
        r0, r1 = np.linalg.norm(y0), np.linalg.norm(vals[-1])
        if not np.array_equal(vals[0], y0):
            out.append(f"{name}: does not start at {y0}")
        elif r0 == 0.0:
            if r1 != 0.0:
                out.append(f"{name}: leaves the fixed point 0")
        else:
            end = rotation(-(x[-1] - x[0])) @ vals[-1]
            angle = math.atan2(end[1], end[0]) - math.atan2(y0[1], y0[0])
            angle = (angle + math.pi) % (2 * math.pi) - math.pi
            if not (r0 * (1 - 1e-12) <= r1 <= r0 * growth * (1 + 1e-12)
                    and abs(angle) <= turn + 1e-12):
                out.append(f"{name}: end point is not R(X_T - X_0) y0 up to Euler's defect")
    return out


def chain_residual(z: np.ndarray) -> float:
    """Finest-level sup_t |e^Z_t - e^Z_0 - sum_{s<t} e^Z_s dZ_s|, left tags."""
    g = np.exp(z)
    w = np.concatenate([[0.0], np.cumsum(g[:-1] * np.diff(z))])
    return float(np.max(np.abs(g - g[0] - w)))


def check_compose(doc: dict, u, x, y0: float) -> list:
    """Both routes end at y0 exp(dU + dX), up to their Euler defects.

    The composed route is the product of two Euler flows; the direct
    route is Euler for dZ = Z (dX + dU).
    """
    du, dx = np.diff(u), np.diff(x)
    target = y0 * math.exp((u[-1] - u[0]) + (x[-1] - x[0]))
    out = check_ladder(doc, "compose")
    out += _log_defect_problem("final_composed", doc["final_composed"][0], target,
                               np.concatenate([du, dx]))
    out += _log_defect_problem("final_direct", doc["final_direct"][0], target, du + dx)
    return out
