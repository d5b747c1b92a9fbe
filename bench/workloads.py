"""The three workloads: seeded inputs, CLI pipelines and output checks.

A workload is built from the benchmark seed into a directory of input
files. Its pass is a fixed list of `youngflow` CLI calls, each run with
the pass's output directory as working directory, so output names are
relative and inputs absolute. `check` reads the files one pass wrote and
returns the problems it finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks as ck
import inputs
from inputs import read_path


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple  # argv lists, after `python -m youngflow.cli`
    check: Callable  # (outdir: Path) -> list of problems


# ----------------------------------------------------- driver_pipeline

FBM_N = 4097  # gen fbm size: dense Cholesky is O(n^3) time, O(n^2) memory
GEN_SEEDS = 2
PVAR_N = 8193  # scalar path for pvar and integrate: the DP is O(n^2)
PVAR_VEC_N = 4097
PVAR_P = 1.5
YOUNG_P = 1.0 / 0.7  # p = q, 1/p + 1/q = 1.4 > 1


def driver_pipeline(seed: int, indir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    xs, xv = indir / "x_scalar.csv", indir / "x_vector.csv"
    inputs.write_path(xs, *inputs.fbm(PVAR_N, 0.75, rng))
    inputs.write_path(xv, *inputs.fbm(PVAR_VEC_N, 0.75, rng, dim=2))
    gen_seeds = [int(s) for s in rng.integers(0, 2**31, GEN_SEEDS)]
    p = repr(YOUNG_P)
    calls = [["gen", "fbm", "--n", str(FBM_N), "--hurst", "0.75", "--seed", str(s),
              "-o", f"gen_{k}.csv"] for k, s in enumerate(gen_seeds)]
    calls += [
        ["pvar", "--p", repr(PVAR_P), "--path", str(xs), "-o", "pvar_scalar.json"],
        ["pvar", "--p", repr(PVAR_P), "--path", str(xv), "-o", "pvar_vector.json"],
        ["integrate", "--integrand", str(xs), "--driver", str(xs), "--p", p, "--q", p,
         "-o", "integral.json"],
    ]
    _, scalar = read_path(xs)
    _, vector = read_path(xv)

    def check(out: Path) -> list:
        problems = ck.check_generated_fbm(
            [out / f"gen_{k}.csv" for k in range(GEN_SEEDS)], FBM_N, 0.75)
        problems += ck.check_pvar(ck.load_json(out / "pvar_scalar.json"), scalar, PVAR_P)
        problems += ck.check_pvar(ck.load_json(out / "pvar_vector.json"), vector, PVAR_P)
        problems += ck.check_self_integral(ck.load_json(out / "integral.json"),
                                           scalar[:, 0], YOUNG_P, YOUNG_P)
        return problems

    return Workload("driver_pipeline", tuple(calls), check)


# ------------------------------------------------------- pde_transport

PDE_N = 2049  # ~2k time slices, each a batched Newton inversion
TRANSPORT_K = 0.7
SEED_SPACING = 0.05
EVAL_POINTS = 21
SLICES = 129
CAUSTIC_SEEDS = 401


def _transport_box(x: np.ndarray) -> str:
    """Seed box wide enough that every preimage of [-1, 1] stays inside."""
    half = 1.0 + TRANSPORT_K * float(np.max(np.abs(x - x[0]))) + 0.5
    count = int(round(2 * half / SEED_SPACING)) + 1
    return f"--box={-half!r}:{half!r}:{count}"


def pde_transport(seed: int, indir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    drivers = []
    for tag in ("a", "b"):
        fname = indir / f"w_{tag}.csv"
        times, vals = inputs.fbm(PDE_N, 0.8, rng)
        inputs.write_path(fname, times, vals)
        drivers.append((fname, times, vals[:, 0]))
    burgers = indir / "burgers.csv"
    b_times, b_vals = inputs.burgers_driver(PDE_N, rng)
    inputs.write_path(burgers, b_times, b_vals)

    transport = ["--hamiltonian", "transport-k", "--params", f"k={TRANSPORT_K!r}",
                 "--init", "sin", f"--eval=-1:1:{EVAL_POINTS}"]
    calls = [["pde", "residual", *transport, "--driver", str(f), _transport_box(x),
              "--levels", "3", "-o", f"residual_{tag}.json"]
             for (f, _, x), tag in zip(drivers, "ab")]
    fa, times_a, xa = drivers[0]
    calls.append(["pde", "solve", *transport, "--driver", str(fa), _transport_box(xa),
                  "--slices", str(SLICES), "-o", "solution"])
    calls.append(["pde", "caustic", "--hamiltonian", "burgers-half-p-squared",
                  "--init", "neg-half-square", "--driver", str(burgers),
                  f"--box=-2:2:{CAUSTIC_SEEDS}", "-o", "caustic.json"])
    slice_idx = np.unique(np.linspace(0, PDE_N - 1, SLICES).round().astype(int))

    def check(out: Path) -> list:
        problems = []
        for tag in "ab":
            problems += ck.check_ladder(ck.load_json(out / f"residual_{tag}.json"),
                                        f"pde residual {tag}")
        problems += ck.check_transport_solution(out / "solution", times_a, xa,
                                                TRANSPORT_K, slice_idx)
        problems += ck.check_caustic(ck.load_json(out / "caustic.json"),
                                     b_times, b_vals[:, 0], CAUSTIC_SEEDS)
        return problems

    return Workload("pde_transport", tuple(calls), check)


# ------------------------------------------------------- checks_ladder

LADDER_N = 2049
LEVELS = "4"
FLOW_AXIS = np.linspace(-1.0, 1.0, 9)
Y0 = 1.5


def checks_ladder(seed: int, indir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    t, z = inputs.fbm(LADDER_N, 0.75, rng)
    _, x = inputs.fbm(LADDER_N, 0.75, rng)
    _, v = inputs.fbm(LADDER_N, 0.75, rng)
    # Operator paths for the substitution identity: g (1x2) and f (2x1).
    # f is increasing in Z, so the coarse-level defect is a sum of
    # quadratic-variation gaps of one sign and the ladder decreases on
    # every seed, not only on average.
    g = np.stack([2.0 + np.sin(v[:, 0]), 1.0 + 0.5 * np.cos(v[:, 0])], axis=1)[:, None, :]
    f = np.stack([z[:, 0], np.exp(z[:, 0])], axis=1)[:, :, None]
    # A ramp as the outer compose driver: the two routes then differ by
    # sum dU dX = mesh (X_t - X_0), which halves with every level.
    u = t[:, None].copy()
    paths = {"z": (t, z), "x": (t, x), "u": (t, u), "g": (t, g), "f": (t, f)}
    files = {}
    for key, (tt, vals) in paths.items():
        files[key] = str(indir / f"{key}.csv")
        inputs.write_path(files[key], tt, vals)

    rot2 = ["--field", "rotation", "--dim", "2"]
    traj = ["--mode", "trajectory", "--driver", files["x"], "--y0", "0.5,0.5",
            "--levels", LEVELS]
    calls = (
        ["solve", "--field", "scaling", "--dim", "1", "--driver", files["z"],
         "--y0", repr(Y0), "-o", "solve.csv"],
        ["flow", *rot2, "--driver", files["x"], "--grid=-1:1:9;-1:1:9", "-o", "flow"],
        ["check", "chain", "--map", "exp", "--path", files["z"], "--levels", LEVELS,
         "-o", "chain.json"],
        ["check", "ito", "--map", "square", "--driver-z", files["z"],
         "--driver-x", files["x"], "--levels", LEVELS, "-o", "ito.json"],
        ["check", "substitution", "--g-path", files["g"], "--f-path", files["f"],
         "--driver", files["z"], "--levels", LEVELS, "-o", "substitution.json"],
        ["check", "conserved", *rot2, *traj, "-o", "conserved.json"],
        ["check", "symmetry", "--map", "rotation", "--map-params", "angle=0.7", *rot2,
         *traj, "-o", "symmetry.json"],
        ["check", "infinitesimal", "--generator", "rotation", "--field", "scaling",
         "--dim", "2", "-o", "infinitesimal.json"],
        ["compose", "--outer-field", "scaling", "--outer-driver", files["u"],
         "--inner-field", "scaling", "--inner-driver", files["x"], "--dim", "1",
         "--y0", "1.0", "--levels", LEVELS, "-o", "compose.json"],
    )
    zs, xs = z[:, 0], x[:, 0]

    def check(out: Path) -> list:
        st, sv = read_path(out / "solve.csv")
        problems = ck.check_scaling_solve(st, sv, t, zs, Y0)
        problems += ck.check_rotation_flow(out / "flow", xs, FLOW_AXIS)
        chain = ck.load_json(out / "chain.json")
        problems += ck.check_ladder(chain, "chain")
        ref = ck.chain_residual(zs)
        if not math.isclose(chain["levels"][-1]["residual"], ref, rel_tol=1e-9):
            problems.append(f"finest chain residual {chain['levels'][-1]['residual']!r} "
                            f"!= recomputed {ref!r}")
        for name in ("ito", "substitution", "conserved"):
            problems += ck.check_ladder(ck.load_json(out / f"{name}.json"), name)
        problems += ck.check_exact_ladder(ck.load_json(out / "symmetry.json"), "symmetry")
        inf = ck.load_json(out / "infinitesimal.json")
        if not (inf["pass"] and inf["max_residual"] <= inf["tol"]):
            problems.append("infinitesimal symmetry check did not pass")
        problems += ck.check_compose(ck.load_json(out / "compose.json"), t, xs, 1.0)
        return problems

    return Workload("checks_ladder", calls, check)


WORKLOADS = {
    "driver_pipeline": driver_pipeline,
    "pde_transport": pde_transport,
    "checks_ladder": checks_ladder,
}
