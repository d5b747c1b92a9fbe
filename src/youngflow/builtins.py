"""Named builders for fields, maps, observables, and Hamiltonians.

The CLI and the test-suite demos refer to these by name. Every builder
takes the state dimension plus optional keyword parameters and returns a
fully analytic object (Jacobians supplied, no finite differences).
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING

import numpy as np

from .fields import (FieldSpec, PointMap, ScalarObservable, SmoothMap,
                     TimeDependentMap)
from .paths import PathError

if TYPE_CHECKING:
    from .pde import HamiltonianSpec


class UnknownBuiltin(PathError, LookupError):
    pass


def _diag_embed(vals: np.ndarray) -> np.ndarray:
    """(..., d) -> (..., d, d) with vals on the diagonal."""
    out = np.zeros(vals.shape + (vals.shape[-1],))
    idx = np.arange(vals.shape[-1])
    out[..., idx, idx] = vals
    return out


def _constant(block: np.ndarray):
    """The evaluator y -> block at every leading index of y (..., d), as a
    new array of shape y.shape[:-1] + block.shape."""
    def at(y):
        out = np.empty(y.shape[:-1] + block.shape)
        out[...] = block
        return out
    return at


# ---------------------------------------------------------------- fields

def _field_scaling(dim: int) -> FieldSpec:
    return FieldSpec.autonomous(
        lambda y: y[..., :, None],
        in_dim=dim, driver_dim=1,
        jac=_constant(np.eye(dim)[:, None, :]),
    )


def _field_square(dim: int) -> FieldSpec:
    return FieldSpec.autonomous(
        lambda y: (y ** 2)[..., :, None],
        in_dim=dim, driver_dim=1,
        jac=lambda y: _diag_embed(2.0 * y)[..., :, None, :],
    )


def _field_exp(dim: int) -> FieldSpec:
    return FieldSpec.autonomous(
        lambda y: np.exp(y)[..., :, None],
        in_dim=dim, driver_dim=1,
        jac=lambda y: _diag_embed(np.exp(y))[..., :, None, :],
    )


_ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def _field_rotation(dim: int) -> FieldSpec:
    if dim != 2:
        raise UnknownBuiltin("rotation field needs dim=2")
    return FieldSpec.autonomous(
        lambda y: (y @ _ROT.T)[..., :, None],
        in_dim=2, driver_dim=1,
        jac=_constant(_ROT[:, None, :]),
    )


FIELDS = {
    "scaling": _field_scaling,
    "square": _field_square,
    "exp": _field_exp,
    "rotation": _field_rotation,
}


# ------------------------------------------------------ maps/observables

def _map_identity(dim: int) -> SmoothMap:
    return SmoothMap(
        in_dim=dim, out_dim=dim,
        value=lambda x: x,
        jacobian=_constant(np.eye(dim)),
    )


def _map_square(dim: int) -> SmoothMap:
    return SmoothMap(
        in_dim=dim, out_dim=dim,
        value=lambda x: x ** 2,
        jacobian=lambda x: _diag_embed(2.0 * x),
    )


def _map_sin(dim: int) -> SmoothMap:
    return SmoothMap(
        in_dim=dim, out_dim=dim,
        value=np.sin,
        jacobian=lambda x: _diag_embed(np.cos(x)),
    )


def _map_exp(dim: int) -> SmoothMap:
    return SmoothMap(
        in_dim=dim, out_dim=dim,
        value=np.exp,
        jacobian=lambda x: _diag_embed(np.exp(x)),
    )


def _obs_norm2(dim: int) -> ScalarObservable:
    return ScalarObservable(
        in_dim=dim, out_dim=1,
        value=lambda x: np.sum(x ** 2, axis=-1, keepdims=True),
        jacobian=lambda x: 2.0 * x[..., None, :],
    )


def _pm_rotation(dim: int, angle: float = np.pi / 2) -> PointMap:
    if dim != 2:
        raise UnknownBuiltin("rotation map needs dim=2")
    R = np.array([[np.cos(angle), -np.sin(angle)],
                  [np.sin(angle), np.cos(angle)]])
    return PointMap(
        in_dim=2, out_dim=2,
        value=lambda x: x @ R.T,
        jacobian=_constant(R),
    )


def _pm_scaling(dim: int, factor: float = 2.0) -> PointMap:
    return PointMap(
        in_dim=dim, out_dim=dim,
        value=lambda x: factor * x,
        jacobian=_constant(factor * np.eye(dim)),
    )


def _pm_translation(dim: int, offset: float = 1.0) -> PointMap:
    shift = np.full(dim, float(offset))
    return PointMap(
        in_dim=dim, out_dim=dim,
        value=lambda x: x + shift,
        jacobian=_constant(np.eye(dim)),
    )


SMOOTH_MAPS = {
    "identity": _map_identity,
    "square": _map_square,
    "sin": _map_sin,
    "exp": _map_exp,
}

OBSERVABLES = {
    "norm2": _obs_norm2,
}

POINT_MAPS = {
    "rotation": _pm_rotation,
    "scaling": _pm_scaling,
    "translation": _pm_translation,
}


def _tm_modulated_sin(dim: int) -> TimeDependentMap:
    """h(t, x) = cos(t) sin(x) as a (d, 1) operator on a scalar driver."""
    return TimeDependentMap(
        in_dim=dim,
        value=lambda t, x: (np.cos(t) * np.sin(x))[..., :, None],
        space_jacobian=lambda t, x: _diag_embed(np.cos(t) * np.cos(x))[..., :, None, :],
    )


TIME_MAPS = {
    "modulated-sin": _tm_modulated_sin,
}


# ------------------------------------------------------------ pde pieces
# The Hamiltonian builders import pde when they run, so that the field,
# map and observable builders load no pde code.

def _ham_transport(dim: int, k: float | tuple = 1.0) -> HamiltonianSpec:
    from .pde import HamiltonianSpec, ScalarHamiltonian

    kv = np.broadcast_to(np.asarray(k, dtype=float), (dim,)).copy()
    k_rows = _constant(kv)

    comp = ScalarHamiltonian(
        value=lambda t, x, u, p: p @ kv,
        dx=lambda t, x, u, p: np.zeros(x.shape),
        du=lambda t, x, u, p: np.zeros(u.shape),
        dp=lambda t, x, u, p: k_rows(p),
    )
    return HamiltonianSpec(state_dim=dim, components=(comp,), p_only=True)


def _ham_burgers(dim: int) -> HamiltonianSpec:
    from .pde import HamiltonianSpec, ScalarHamiltonian

    comp = ScalarHamiltonian(
        value=lambda t, x, u, p: 0.5 * np.add.reduce(p ** 2, axis=-1),  # np.sum's kernel
        dx=lambda t, x, u, p: np.zeros(x.shape),
        du=lambda t, x, u, p: np.zeros(u.shape),
        dp=lambda t, x, u, p: p.copy(),
    )
    return HamiltonianSpec(state_dim=dim, components=(comp,), p_only=True)


HAMILTONIANS = {
    "transport-k": _ham_transport,
    "burgers-half-p-squared": _ham_burgers,
}


def _init_neg_half_square(dim: int) -> SmoothMap:
    return SmoothMap(
        in_dim=dim, out_dim=1,
        value=lambda x: -0.5 * np.sum(x ** 2, axis=-1, keepdims=True),
        jacobian=lambda x: -x[..., None, :],
    )


def _init_sin(dim: int, wavenumber: float = 1.0) -> SmoothMap:
    a = float(wavenumber)
    return SmoothMap(
        in_dim=dim, out_dim=1,
        value=lambda x: np.sin(a * x[..., :1]),
        jacobian=lambda x: np.concatenate(
            [a * np.cos(a * x[..., :1])[..., None],
             np.zeros(x.shape[:-1] + (1, dim - 1))], axis=-1),
    )


def _init_gauss(dim: int, width: float = 1.0) -> SmoothMap:
    w = float(width)
    return SmoothMap(
        in_dim=dim, out_dim=1,
        value=lambda x: np.exp(-np.sum(x ** 2, axis=-1, keepdims=True) / (2 * w ** 2)),
        jacobian=lambda x: (-x / w ** 2)[..., None, :]
        * np.exp(-np.sum(x ** 2, axis=-1, keepdims=True) / (2 * w ** 2))[..., None],
    )


INITIAL_DATA = {
    "neg-half-square": _init_neg_half_square,
    "sin": _init_sin,
    "gauss": _init_gauss,
}


def _lookup(table: dict, kind: str, name: str, dim: int, params: dict | None):
    try:
        builder = table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise UnknownBuiltin(f"unknown {kind} {name!r}; known: {known}") from None
    params = params or {}
    accepted = list(inspect.signature(builder).parameters)[1:]  # after dim
    for key in params:
        if key not in accepted:
            raise UnknownBuiltin(f"{kind} {name!r} takes no parameter {key!r}; "
                                 f"accepted: {', '.join(accepted) or 'none'}")
    return builder(dim, **params)


def get_field(name: str, dim: int, params: dict | None = None) -> FieldSpec:
    return _lookup(FIELDS, "field", name, dim, params)


def get_smooth_map(name: str, dim: int, params: dict | None = None) -> SmoothMap:
    """A smooth map or an observable by name."""
    return _lookup({**OBSERVABLES, **SMOOTH_MAPS}, "map", name, dim, params)


def get_observable(name: str, dim: int, params: dict | None = None) -> ScalarObservable:
    return _lookup(OBSERVABLES, "observable", name, dim, params)


def get_point_map(name: str, dim: int, params: dict | None = None) -> PointMap:
    return _lookup(POINT_MAPS, "point map", name, dim, params)


def get_time_map(name: str, dim: int, params: dict | None = None) -> TimeDependentMap:
    return _lookup(TIME_MAPS, "time-dependent map", name, dim, params)


def get_hamiltonian(name: str, dim: int, params: dict | None = None) -> HamiltonianSpec:
    return _lookup(HAMILTONIANS, "hamiltonian", name, dim, params)


def get_initial_data(name: str, dim: int, params: dict | None = None) -> SmoothMap:
    return _lookup(INITIAL_DATA, "initial data", name, dim, params)
