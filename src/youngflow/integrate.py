"""Tagged Riemann-Stieltjes sums against sampled paths.

The integral of Z against X over a grid interval is the tagged sum
sum_i Z(tag_i) (X_{t_{i+1}} - X_{t_i}). Integrand and integrator must
share the grid; left tags are the default throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import PathError, SampledPath, _interval_indices, p_variation

TAGS = ("left", "right", "midpoint-time")


class DimensionMismatch(PathError):
    """Integrand and integrator shapes do not compose."""


class YoungConditionError(PathError):
    """1/p + 1/q <= 1: no certified bound available."""


@dataclass(frozen=True)
class IntegralResult:
    value: np.ndarray
    partition_mesh: float
    certified_bound: float | None = None


def _check_tag(tag: str):
    if tag not in TAGS:
        raise PathError(f"unknown tag rule {tag!r}, expected one of {TAGS}")


def _tagged(Z: SampledPath, i0: int, i1: int, tag: str) -> np.ndarray:
    if tag == "left":
        return Z.values[i0:i1]
    if tag == "right":
        return Z.values[i0 + 1 : i1 + 1]
    # value of the piecewise-linear interpolant at each interval's time midpoint
    return 0.5 * (Z.values[i0:i1] + Z.values[i0 + 1 : i1 + 1])


def _terms(Z: SampledPath, X: SampledPath, i0: int, i1: int, tag: str) -> np.ndarray:
    if not np.array_equal(Z.times, X.times):
        raise PathError("integrand and integrator must share the time grid")
    if X.is_operator:
        raise PathError("the integrator must be a vector path")
    zv = _tagged(Z, i0, i1, tag)
    dx = X.values[i0 + 1 : i1 + 1] - X.values[i0:i1]
    if Z.is_operator:
        if Z.value_shape[1] != X.dim:
            raise DimensionMismatch(
                f"operator integrand {Z.value_shape} cannot act on increments of dim {X.dim}"
            )
        return np.einsum("imk,ik->im", zv, dx)
    if X.dim != 1:
        raise DimensionMismatch(
            "vector integrand against a vector integrator: supply operator-valued Z"
        )
    return zv * dx


def young_integral(
    Z: SampledPath,
    X: SampledPath,
    interval=None,
    tag: str = "left",
    p: float | None = None,
    q: float | None = None,
) -> IntegralResult:
    """Tagged sum of Z against X over [s, t] on the shared grid.

    Terms are reduced strictly in index order (fixed summation-order
    contract). When p and q are given, the result carries the certified
    deviation bound from young_loeve_bound; the certificate is grid
    variation based, see that function.
    """
    _check_tag(tag)
    i0, i1 = _interval_indices(X, interval)
    terms = _terms(Z, X, i0, i1, tag)
    value = np.add.accumulate(terms, axis=0)[-1]
    mesh = float(np.max(np.diff(X.times[i0 : i1 + 1])))
    bound = None
    if p is not None and q is not None:
        span = (float(X.times[i0]), float(X.times[i1]))
        bound = young_loeve_bound(Z, X, p, q, span)
    return IntegralResult(value=value, partition_mesh=mesh, certified_bound=bound)


def _same_on(Z: SampledPath, X: SampledPath, interval) -> bool:
    """Equal times and values over the interval, so equal p-variations."""
    z0, z1 = _interval_indices(Z, interval)
    x0, x1 = _interval_indices(X, interval)
    return (np.array_equal(Z.times[z0 : z1 + 1], X.times[x0 : x1 + 1])
            and np.array_equal(Z.values[z0 : z1 + 1], X.values[x0 : x1 + 1]))


def young_loeve_bound(Z: SampledPath, X: SampledPath, p: float, q: float, interval=None) -> float:
    """C_{p,q} ||Z||_{q,[s,t]} ||X||_{p,[s,t]} with C = 1/(1 - 2^{1-theta}).

    theta = 1/p + 1/q must exceed 1. Bounds the distance between the
    tagged sum over [s, t] and the single-increment approximation
    Z_s (X_t - X_s). The certificate is computed from grid p-variations,
    so it certifies the sampled sums, not the underlying continuum
    integral. C dominates the discrete point-removal constant zeta(theta)
    (group the removal losses dyadically), so the inequality is rigorous
    for the grid sums themselves. When p == q and Z equals X on [s, t],
    the single p-variation serves both factors.
    """
    if p < 1 or q < 1:
        raise PathError("variation exponents must be >= 1")
    theta = 1.0 / p + 1.0 / q
    if theta <= 1.0:
        raise YoungConditionError(f"need 1/p + 1/q > 1, got {theta}")
    c = 1.0 / (1.0 - 2.0 ** (1.0 - theta))
    vz = p_variation(Z, q, interval).value
    same = p == q and _same_on(Z, X, interval)
    vx = vz if same else p_variation(X, p, interval).value
    return c * vz * vx


def indefinite_integral(Z: SampledPath, X: SampledPath, tag: str = "left") -> SampledPath:
    """Running integral W on the shared grid, W_{t_0} = 0.

    Prefix sums accumulate in index order, so W_t equals the integral
    over [t_0, t] bitwise; increments over interior intervals agree with
    re-summed integrals to rounding.
    """
    _check_tag(tag)
    i0, i1 = 0, X.n_points - 1
    terms = _terms(Z, X, i0, i1, tag)
    acc = np.add.accumulate(terms, axis=0)
    w = np.concatenate([np.zeros((1,) + acc.shape[1:]), acc], axis=0)
    return SampledPath(X.times, w)
