"""Composition of driven flows and pushforward vector fields.

Two routes to the same object: the composed path Z_t = Y_t(V_t) built
from two flow solves, and the direct Euler solve of
dZ = g(Z) dX + (Y_.)_* f(Z) dU, where the pushforward field is
(Y_s)_* f(z) = D_x Y_s(Y_s^{-1}(z)) f(Y_s^{-1}(z)), evaluated at each
interval's left endpoint. Agreement of the two routes under refinement
is the check; neither route reads the other's state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldSpec
from .paths import PathError, SampledPath
from .reports import residual_ladder
from .yde import (BlowUpError, FlowMap, SolveConfig, _apply, _euler_interval,
                  invert_flow, solve_flow, solve_yde, substep_grid)


@dataclass(frozen=True)
class PushforwardField:
    """Evaluator for z -> D_x Y_s(Y_s^{-1}(z)) f(Y_s^{-1}(z)).

    Inversion is certified Newton against fresh flow evaluations; the
    Jacobian factor is the stored one at the initial point nearest the
    inverted preimage.
    """

    flow: FlowMap
    time: float
    wrapped: FieldSpec
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    @property
    def in_dim(self) -> int:
        return self.wrapped.in_dim

    @property
    def driver_dim(self) -> int:
        return self.wrapped.driver_dim

    def preimage(self, z) -> np.ndarray:
        return invert_flow(self.flow, self.time, z,
                           newton_tol=self.newton_tol, max_iter=self.newton_max_iter)

    def __call__(self, z) -> np.ndarray:
        x = self.preimage(z)
        idx = self.flow.index_of(self.time)
        near = int(np.argmin(np.linalg.norm(self.flow.initial_points - x, axis=1)))
        jac = self.flow.jacobians[idx, near]
        fv = self.wrapped.value_at(self.time, x)  # (d, n)
        return jac @ fv


def pushforward_field(flow: FlowMap, s: float, f: FieldSpec,
                      newton_tol: float = 1e-10, newton_max_iter: int = 50) -> PushforwardField:
    if f.in_dim != flow.initial_points.shape[1]:
        raise PathError("pushforward field dimension does not match the flow")
    flow.index_of(s)  # validate s on the grid
    return PushforwardField(flow=flow, time=s, wrapped=f,
                            newton_tol=newton_tol, newton_max_iter=newton_max_iter)


def _diagonal_flow(g: FieldSpec, X: SampledPath, seeds: np.ndarray,
                   cfg: SolveConfig) -> np.ndarray:
    """Y_{t_i}(seeds[i]) for every row i, one batched Euler sweep.

    Row i undergoes exactly the arithmetic of a fresh solve from seeds[i]
    up to time t_i (the update kernel is row-wise), so the diagonal equals
    per-row fresh solves bitwise. seeds may cover a prefix of the grid.
    """
    n = len(seeds)
    ts, dX = substep_grid(X, cfg.substeps_per_interval, n)
    B = np.array(seeds, dtype=float)
    out = np.empty_like(B)
    out[0] = B[0]
    for i in range(n - 1):
        B[i + 1 :] = _euler_interval(g, ts[i], dX[i], B[i + 1 :])
        out[i + 1] = B[i + 1]
        if not np.isfinite(out[i + 1]).all():
            raise BlowUpError(float(X.times[i]))
    return out


def _combined_interval(g: FieldSpec, ts, dx, du, state, pf):
    """Euler substeps of dZ = g(Z) dX + pf dU, pf frozen at the left end."""
    for t in ts:
        state = state + _apply(g.value_at(t, state), dx) + _apply(pf, du)
    return state


def _direct_combined(f: FieldSpec, U: SampledPath, g: FieldSpec, X: SampledPath,
                     y0: np.ndarray, cfg: SolveConfig, newton_tol: float,
                     max_iter: int) -> np.ndarray:
    """Euler for dZ = g(Z) dX + (Y)_* f(Z) dU with per-step certified inversion.

    Fast pass: warm-started Newton whose residual model advances the
    predicted flow value with the stored Jacobian of y0's trajectory.
    The preimages it used (steps 0..n-2) are then certified in one
    diagonal batch (bitwise equal to fresh per-step solves); on failure
    the loop is re-run from the first uncertified step with exact Newton
    re-solves.
    """
    yflow = solve_flow(g, X, y0[None, :], cfg)
    jacs = yflow.jacobians[:, 0]  # (n, d, d)
    times = X.times
    n = times.size
    ts, dX = substep_grid(X, cfg.substeps_per_interval)
    dU = substep_grid(U, cfg.substeps_per_interval)[1]

    z, x, w = (y0[None, :].copy() for _ in range(3))  # w predicts Y_{t_i}(x)
    zs = np.empty((n, y0.size))
    xs = np.empty((n - 1, y0.size))
    zs[0] = z[0]

    for i in range(n - 1):
        r = w - z
        for _ in range(max_iter):
            if np.linalg.norm(r) <= newton_tol:
                break
            delta = np.linalg.solve(jacs[i], r[0])
            x = x - delta[None, :]
            w = w - (jacs[i] @ delta)[None, :]
            r = w - z
        xs[i] = x[0]
        pf = (jacs[i] @ f.value_at(times[i], x[0]))[None, :, :]  # (1, d, nU)
        z = _combined_interval(g, ts[i], dX[i], dU[i], z, pf)
        if not np.isfinite(z).all():
            raise BlowUpError(float(times[i]))
        w = _euler_interval(g, ts[i], dX[i], w)
        zs[i + 1] = z[0]

    # Certify every used preimage in one pass: true Y_{t_i}(x_i) vs z_i.
    errs = np.linalg.norm(_diagonal_flow(g, X, xs, cfg) - zs[:-1], axis=1)
    bad = np.nonzero(errs > newton_tol)[0]
    if bad.size == 0:
        return zs
    return _direct_exact(f, g, yflow, (ts, dX, dU), zs, xs, int(bad[0]),
                         newton_tol, max_iter)


def _direct_exact(f, g, yflow, grid, zs, xs, start, newton_tol, max_iter):
    """Slow path: exact Newton re-solves per step from the first bad index."""
    ts, dX, dU = grid
    times = yflow.times
    z = zs[start].copy()
    x = xs[max(start - 1, 0)].copy()
    for i in range(start, times.size - 1):
        x = invert_flow(yflow, float(times[i]), z,
                        newton_tol=newton_tol, max_iter=max_iter, initial_guess=x)
        xs[i] = x
        pf = (yflow.jacobians[i, 0] @ f.value_at(times[i], x))[None, :, :]
        z = _combined_interval(g, ts[i], dX[i], dU[i], z[None, :], pf)[0]
        if not np.isfinite(z).all():
            raise BlowUpError(float(times[i]))
        zs[i + 1] = z
    return zs


def compose_flows(f: FieldSpec, U: SampledPath, g: FieldSpec, X: SampledPath, y0,
                  cfg: SolveConfig | None = None, levels: int = 4,
                  newton_tol: float = 1e-10, newton_max_iter: int = 50):
    """Composed vs direct solution of the combined system.

    Returns (Z_comp, Z_dir, report): both finest-level paths and the
    sup-norm residual between the routes per dyadic level.
    """
    cfg = cfg or SolveConfig()
    if not np.array_equal(U.times, X.times):
        raise PathError("compose_flows needs U and X on one grid; refine first")
    if f.in_dim != g.in_dim:
        raise PathError("f and g must act on the same state space")
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    finest = []

    def level(step, Uk, Xk):
        V = solve_yde(f, Uk, y0, cfg)
        comp = _diagonal_flow(g, Xk, V.values, cfg)
        dirv = _direct_combined(f, Uk, g, Xk, y0, cfg, newton_tol, newton_max_iter)
        finest[:] = [SampledPath(Xk.times, comp), SampledPath(Xk.times, dirv)]
        return (Xk.mesh, float(np.max(np.linalg.norm(comp - dirv, axis=1))),
                float(np.max(np.abs(comp))))

    rep = residual_ladder((U, X), levels, level)
    return finest[0], finest[1], rep
