"""Callable wrappers with derivatives: vector fields, maps, observables.

Evaluators are batched: the state argument may carry arbitrary leading
axes, y of shape (..., d), and results broadcast accordingly. Analytic
derivatives are used when supplied, otherwise central finite differences
with the configured step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_FD_STEP = 1e-6


def _fd_last_axis(fn: Callable, y: np.ndarray, step: float) -> np.ndarray:
    """Central differences of fn along the last axis of y.

    Returns an array of shape fn(y).shape + (d,).
    """
    y = np.asarray(y, dtype=float)
    d = y.shape[-1]
    cols = []
    for k in range(d):
        e = np.zeros(d)
        e[k] = step
        cols.append((fn(y + e) - fn(y - e)) / (2.0 * step))
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class FieldSpec:
    """Driving vector field f: (t, y) -> L(R^n, R^d), stored as (d, n).

    value(t, y): y (..., d) -> (..., d, n)
    jacobian(t, y): (..., d, n, d), analytic or finite differences.
    """

    in_dim: int
    driver_dim: int
    value: Callable
    jacobian: Callable | None = None
    fd_step: float = DEFAULT_FD_STEP

    def value_at(self, t: float, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.value(t, y), dtype=float)

    def jacobian_at(self, t: float, y: np.ndarray) -> np.ndarray:
        if self.jacobian is not None:
            return np.asarray(self.jacobian(t, y), dtype=float)
        return _fd_last_axis(lambda z: self.value_at(t, z), y, self.fd_step)

    def column(self, j: int) -> "FieldSpec":
        """The j-th driver column as a one-driver field."""
        val = lambda t, y, _j=j: self.value_at(t, y)[..., _j : _j + 1]
        jac = None
        if self.jacobian is not None:
            jac = lambda t, y, _j=j: np.asarray(self.jacobian(t, y), float)[..., _j : _j + 1, :]
        return FieldSpec(
            in_dim=self.in_dim,
            driver_dim=1,
            value=val,
            jacobian=jac,
            fd_step=self.fd_step,
        )

    @staticmethod
    def autonomous(fn: Callable, in_dim: int, driver_dim: int, jac: Callable | None = None,
                   fd_step: float = DEFAULT_FD_STEP) -> "FieldSpec":
        """Wrap time-independent evaluators fn(y), jac(y)."""
        return FieldSpec(
            in_dim=in_dim,
            driver_dim=driver_dim,
            value=lambda t, y: fn(y),
            jacobian=None if jac is None else (lambda t, y: jac(y)),
            fd_step=fd_step,
        )


def as_single_field(fields, in_dim: int | None = None) -> FieldSpec:
    """Normalize a FieldSpec or a list of one-driver columns to one FieldSpec."""
    if isinstance(fields, FieldSpec):
        return fields
    cols = list(fields)
    d = in_dim if in_dim is not None else cols[0].in_dim

    def value(t, y):
        return np.concatenate([c.value_at(t, y) for c in cols], axis=-1)

    def jacobian(t, y):
        return np.concatenate([c.jacobian_at(t, y) for c in cols], axis=-2)

    return FieldSpec(in_dim=d, driver_dim=len(cols), value=value, jacobian=jacobian)


@dataclass(frozen=True)
class SmoothMap:
    """y (..., d) -> (..., m) with Jacobian (..., m, d)."""

    in_dim: int
    out_dim: int
    value: Callable
    jacobian: Callable | None = None
    fd_step: float = DEFAULT_FD_STEP

    def value_at(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.value(y), dtype=float)

    def jacobian_at(self, y: np.ndarray) -> np.ndarray:
        if self.jacobian is not None:
            return np.asarray(self.jacobian(y), dtype=float)
        return _fd_last_axis(self.value_at, y, self.fd_step)

    @property
    def has_analytic_jacobian(self) -> bool:
        return self.jacobian is not None


class ScalarObservable(SmoothMap):
    """A SmoothMap used as an observable F: R^d -> R^k (k usually 1)."""


class PointMap(SmoothMap):
    """A SmoothMap R^d -> R^d used as a candidate symmetry Phi."""

    def __post_init__(self):
        if self.in_dim != self.out_dim:
            raise ValueError("a point map must preserve the state dimension")


@dataclass(frozen=True)
class TimeDependentMap:
    """(t, x) -> array with any trailing shape S; space Jacobian appends (d,).

    Covers vector-valued maps (S = (m,)) and operator-valued families
    (S = (m, k)) alike.
    """

    in_dim: int
    value: Callable
    space_jacobian: Callable | None = None
    fd_step: float = DEFAULT_FD_STEP

    def value_at(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.value(t, x), dtype=float)

    def space_jacobian_at(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.space_jacobian is not None:
            return np.asarray(self.space_jacobian(t, x), dtype=float)
        return _fd_last_axis(lambda z: self.value_at(t, z), x, self.fd_step)
