"""Differential systems dY = f(Y) dX: explicit Euler and flows."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FieldSpec
from .paths import NumericFailure, PathError, SampledPath

# np.einsum without optimize calls this contraction behind a dispatch
# layer that costs more than the contraction on the few rows of an Euler
# step; the sweeps call it directly, with the same bits.
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # a numpy without that module: the public function
    _einsum = np.einsum


class BlowUpError(NumericFailure):
    """State left the finite range; carries the last valid time."""

    def __init__(self, last_valid_time: float):
        super().__init__(f"state became non-finite after t={last_valid_time}")
        self.last_valid_time = last_valid_time


class NewtonError(NumericFailure, RuntimeError):
    """Newton iteration failed to meet its residual tolerance."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


@dataclass(frozen=True)
class SolveConfig:
    substeps_per_interval: int = 1

    def __post_init__(self):
        if self.substeps_per_interval < 1:
            raise PathError("substeps_per_interval must be >= 1")


def _check_compat(field: FieldSpec, X: SampledPath):
    if X.is_operator:
        raise PathError("drivers must be vector paths")
    if field.driver_dim != X.dim:
        raise PathError(
            f"field expects a {field.driver_dim}-dim driver, path has dim {X.dim}"
        )


def substep_grid(X: SampledPath, sub: int, n: int | None = None):
    """Left times (n-1, sub) and increments (n-1, dim) of every Euler substep.

    Substep s of interval i starts at t_i + (t_{i+1} - t_i) (s / sub) and
    advances the driver by (X_{i+1} - X_i) / sub: the driver is linear
    between samples. n cuts the grid to its first n points.
    """
    times = X.times[:n]
    ts = times[:-1, None] + np.diff(times)[:, None] * (np.arange(sub) / sub)
    return ts, np.diff(X.values[:n], axis=0) / sub


def _apply(F: np.ndarray, dx: np.ndarray) -> np.ndarray:
    # One fixed kernel for field-times-increment in every Euler sweep, so
    # degenerate routes agree bitwise.
    return _einsum("mdn,n->md", F, dx)


def _freeze_rows(new: list, i: int, alive: np.ndarray, alive_idx: np.ndarray,
                 prev: list) -> list:
    """The step-(i+1) arrays from new, with dead rows frozen.

    A row that turns non-finite in any array on interval i dies there
    (alive_idx = i, alive cleared) and keeps its step-i values from then
    on, from the step-i arrays prev. Returns the arrays to continue from.
    """
    if not np.isfinite(sum(v.sum() for v in new)):  # one cheap pass while all is finite
        ok = np.logical_and.reduce(
            [np.isfinite(v.reshape(v.shape[0], -1)).all(axis=1) for v in new])
        bad = alive & ~ok
        alive_idx[bad] = i
        alive &= ~bad
    if not alive.all():
        new = [np.where(alive.reshape((-1,) + (1,) * (v.ndim - 1)), v, p)
               for v, p in zip(new, prev)]
    return new


def _euler_sweep(field: FieldSpec, X: SampledPath, y0s: np.ndarray, cfg: SolveConfig,
                 with_jacobian: bool, n: int, alive_idx: np.ndarray):
    """Batched explicit Euler over the first n grid points of X, row by row.

    Y_{i+1} = Y_i + f(t_i, Y_i) (X_{t_{i+1}} - X_{t_i}) over the substeps of
    substep_grid, with the variational recursion of jac = D_x Y if asked.
    Yields [y] (m, d) or [y, jac] (m, d, d) per grid point, never written
    again. Rows that turn non-finite are frozen by _freeze_rows and
    recorded in alive_idx (m,), which must hold n - 1 on entry. Overflow
    is expected: the caller advances the sweep under np.errstate. The
    field and X are checked to fit when the first row is asked for.
    """
    _check_compat(field, X)
    ts, dx = substep_grid(X, cfg.substeps_per_interval, n)
    value_at, jacobian_at = field.value_at, field.jacobian_at
    y = np.array(np.atleast_2d(y0s), dtype=float)
    m, d = y.shape
    cur = [y] + ([np.broadcast_to(np.eye(d), (m, d, d)).copy()] if with_jacobian else [])
    alive = np.ones(m, dtype=bool)
    all_alive = True
    yield cur
    for i in range(n - 1):
        y, jac = cur[0], cur[-1]
        dxi = dx[i]
        for t in ts[i].tolist():  # per interval: a list of the whole grid grows with n
            if with_jacobian:
                step_lin = _einsum("mdnk,n->mdk", jacobian_at(t, y), dxi)
                jac = jac + _einsum("mde,mek->mdk", step_lin, jac)
            y = y + _apply(value_at(t, y), dxi)
        new = [y, jac] if with_jacobian else [y]
        # while every row lives, a finite sum shows that every entry is finite
        if all_alive and math.isfinite(sum([np.add.reduce(v, None) for v in new])):
            cur = new
        else:
            cur = _freeze_rows(new, i, alive, alive_idx, cur)
            all_alive = bool(alive.all())
        yield cur


def _euler_fixed(F: np.ndarray, dx: np.ndarray, out: np.ndarray) -> None:
    """Euler rows out[1:] from out[0] of a value F (..., n) that no step changes.

    Row r adds F . dx[r - 1] to row r - 1, in the order of _euler_sweep at
    one substep: np.add.accumulate gives its bits, and einsum sums from
    +0.0 as _apply does.
    """
    _einsum("...n,in->i...", F, dx, out=out[1:])
    np.add.accumulate(out, axis=0, out=out)


def _euler_core(field: FieldSpec, X: SampledPath, y0s: np.ndarray, cfg: SolveConfig,
                with_jacobian: bool, history: int = 2, n: int | None = None):
    """([states] or [states, jacobians], alive_idx) of _euler_sweep over the
    first n grid points of X (all by default); the first `history` arrays
    hold every row (n, m, ...), the rest their last."""
    n = X.n_points if n is None else n
    alive_idx = np.full(np.atleast_2d(y0s).shape[0], n - 1, dtype=int)
    sweep = _euler_sweep(field, X, y0s, cfg, with_jacobian, n, alive_idx)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, rows in enumerate(sweep):
            if i == 0:
                hist = [np.empty((n,) + v.shape) for v in rows[:history]]
            for h, v in zip(hist, rows):
                h[i] = v
    return hist + rows[history:], alive_idx


def solve_yde(field: FieldSpec, X: SampledPath, y0, cfg: SolveConfig | None = None) -> SampledPath:
    """Solve dY = f(Y) dX from y0; raises BlowUpError on non-finite state."""
    cfg = cfg or SolveConfig()
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    (states,), alive_idx = _euler_core(field, X, y0[None, :], cfg, with_jacobian=False)
    _raise_blow_up(X, alive_idx, X.n_points)
    return SampledPath(X.times, states[:, 0, :])


def _raise_blow_up(X: SampledPath, alive_idx: np.ndarray, n: int) -> None:
    """BlowUpError for the first row, in row order, of a sweep over the
    first n grid points of X that did not stay finite to the end."""
    for k in alive_idx:
        if k != n - 1:
            raise BlowUpError(float(X.times[k]))


@dataclass(frozen=True)
class FlowMap:
    """Flow of dY = f(Y) dX over a batch of initial points.

    states has shape (n, m, d) on the driver times (n,), jacobians
    (n, m, d, d) from the variational recursion
    J_{i+1} = (I + sum_j D_y f_j dX^j) J_i, or None if solved with
    jacobian_history=False. alive_until[i] is the last time the i-th
    trajectory was finite; beyond it the stored state is frozen.
    """

    times: np.ndarray
    initial_points: np.ndarray
    states: np.ndarray
    jacobians: np.ndarray | None
    alive_until: np.ndarray

    @property
    def n_points(self) -> int:
        return self.initial_points.shape[0]

    def trajectory(self, i: int) -> SampledPath:
        return SampledPath(self.times, self.states[:, i, :])


def solve_flow(field: FieldSpec, X: SampledPath, initial_points, cfg: SolveConfig | None = None,
               jacobian_history: bool = True) -> FlowMap:
    cfg = cfg or SolveConfig()
    pts = np.atleast_2d(np.asarray(initial_points, dtype=float))
    # the Jacobian is computed either way: a row dies where it turns non-finite
    (states, jacs), alive_idx = _euler_core(field, X, pts, cfg, with_jacobian=True,
                                            history=1 + jacobian_history)
    return FlowMap(
        times=X.times,
        initial_points=pts,
        states=states,
        jacobians=jacs if jacobian_history else None,
        alive_until=X.times[alive_idx],
    )
