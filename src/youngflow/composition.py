"""Composition of driven flows and pushforward vector fields.

Two routes to the same object: the composed path Z_t = Y_t(V_t) built
from two flow solves, and the direct Euler solve of
dZ = g(Z) dX + (Y_.)_* f(Z) dU, where the pushforward field is
(Y_s)_* f(z) = D_x Y_s(Y_s^{-1}(z)) f(Y_s^{-1}(z)), evaluated at each
interval's left endpoint. Agreement of the two routes under refinement
is the check; neither route reads the other's state.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldSpec
from .paths import PathError, SampledPath
from .reports import residual_ladder
from .yde import (BlowUpError, NewtonError, SolveConfig, _apply, _euler_core, _euler_sweep,
                  _raise_blow_up, solve_yde, substep_grid)


def _diagonal_flow(g: FieldSpec, X: SampledPath, seeds: np.ndarray, cfg: SolveConfig,
                   with_jacobian: bool):
    """Y_{t_i}(seeds[i]) for every row i, and D_x Y_{t_i}(seeds[i]) if asked.

    One _euler_sweep over all rows; row i is read at grid point i. The
    update kernel is row-wise, so row i undergoes exactly the arithmetic
    of a fresh solve from seeds[i] up to time t_i, and the diagonal equals
    per-row fresh solves bitwise. seeds may cover a prefix of the grid.
    Returns [values] or [values, jacobians].
    """
    n = len(seeds)
    alive_idx = np.full(n, n - 1, dtype=int)
    sweep = _euler_sweep(g, X, seeds, cfg, with_jacobian, n, alive_idx)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, rows in enumerate(sweep):
            if alive_idx[i] < i:
                raise BlowUpError(float(X.times[i - 1]))
            if i == 0:
                out = [np.empty_like(v) for v in rows]
            for o, v in zip(out, rows):
                o[i] = v[i]
    return out


def _start_flow(g: FieldSpec, X: SampledPath, y0: np.ndarray, cfg: SolveConfig):
    """_diagonal_flow(g, X, seeds, cfg, with_jacobian=True) with y0 as the
    seed of each of the first n - 1 grid points of X, from one trajectory.

    Every row starts at y0 and the kernel is row-wise, so row i is the
    trajectory from y0 read at t_i, and it dies where the trajectory does.
    """
    n = X.n_points - 1
    (W, J), alive_idx = _euler_core(g, X, y0[None, :], cfg, with_jacobian=True, n=n)
    _raise_blow_up(X, alive_idx, n)
    return [W[:, 0], J[:, 0]]


def _combined_interval(g: FieldSpec, ts, dx, du, state, pf):
    """Euler substeps of dZ = g(Z) dX + pf dU, pf frozen at the left end."""
    for t in ts:
        state = state + _apply(g.value_at(t, state), dx) + _apply(pf, du)
    return state


def _direct_combined(f: FieldSpec, U: SampledPath, g: FieldSpec, X: SampledPath,
                     y0: np.ndarray, cfg: SolveConfig, newton_tol: float,
                     max_sweeps: int) -> np.ndarray:
    """Euler for dZ = g(Z) dX + (Y)_* f(Z) dU by waveform relaxation.

    Each row i < n-1 carries a preimage x_i of z_i, checked against the
    exact W_i = Y_{t_i}(x_i) and J_i = D_x Y_{t_i}(x_i) of one diagonal
    kernel call (of _start_flow while every x_i is y0). A sweep runs in
    time order from the first unsettled row: x_i takes one Newton step
    when |W_i - z_i| > newton_tol, and z steps with the pushforward
    J_i f(t_i, x_i). Row i is settled when, at the new x,
    |W_i - z_i| <= newton_tol and J_i is bitwise the Jacobian its step
    used; then z is the Euler path whose pushforward uses D_x Y at
    preimages within tolerance. Rows still unsettled after max_sweeps
    sweeps raise NewtonError.
    """
    times = X.times
    n = times.size
    ts, dX = substep_grid(X, cfg.substeps_per_interval)
    dU = substep_grid(U, cfg.substeps_per_interval)[1]
    xs = np.broadcast_to(y0, (n - 1, y0.size)).copy()
    zs = np.empty((n, y0.size))
    zs[0] = y0
    W, J = _start_flow(g, X, y0, cfg)
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_sweeps):
            for i in range(start, n - 1):
                r = W[i] - zs[i]
                if np.linalg.norm(r) > newton_tol:
                    xs[i] = xs[i] - np.linalg.solve(J[i], r)
                pf = (J[i] @ f.value_at(times[i], xs[i]))[None, :, :]  # (1, d, nU)
                z = _combined_interval(g, ts[i], dX[i], dU[i], zs[i][None, :], pf)
                if not np.isfinite(z).all():
                    raise BlowUpError(float(times[i]))
                zs[i + 1] = z[0]
            used = J  # the rows each step used; rows before start have not moved
            W, J = _diagonal_flow(g, X, xs, cfg, with_jacobian=True)
            res = np.linalg.norm(W - zs[:-1], axis=1)
            unsettled = (res > newton_tol) | (J != used).any(axis=(1, 2))
            if not unsettled.any():
                return zs
            start = int(np.argmax(unsettled))
    raise NewtonError(f"compose rows unsettled after {max_sweeps} sweeps",
                      float(res[unsettled].max()))


def compose_flows(f: FieldSpec, U: SampledPath, g: FieldSpec, X: SampledPath, y0,
                  cfg: SolveConfig | None = None, levels: int = 4,
                  newton_tol: float = 1e-10, newton_max_iter: int = 50):
    """Composed vs direct solution of the combined system.

    Returns (Z_comp, Z_dir, report): both finest-level paths and the
    sup-norm residual between the routes per dyadic level. newton_max_iter
    bounds the relaxation sweeps of the direct route.
    """
    cfg = cfg or SolveConfig()
    if not np.array_equal(U.times, X.times):
        raise PathError("compose_flows needs U and X on one grid; refine first")
    if f.in_dim != g.in_dim:
        raise PathError("f and g must act on the same state space")
    if newton_max_iter < 1:
        raise PathError("newton_max_iter must be >= 1")
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    finest = []

    def level(step, Uk, Xk):
        V = solve_yde(f, Uk, y0, cfg)
        comp, = _diagonal_flow(g, Xk, V.values, cfg, with_jacobian=False)
        dirv = _direct_combined(f, Uk, g, Xk, y0, cfg, newton_tol, newton_max_iter)
        finest[:] = [SampledPath(Xk.times, comp), SampledPath(Xk.times, dirv)]
        return (Xk.mesh, float(np.max(np.linalg.norm(comp - dirv, axis=1))),
                float(np.max(np.abs(comp))))

    rep = residual_ladder((U, X), levels, level)
    return finest[0], finest[1], rep
