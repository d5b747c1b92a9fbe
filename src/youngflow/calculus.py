"""Residual checks for change-of-variable identities under refinement.

Each check evaluates both sides of an exact identity with the package's
tagged sums at a ladder of dyadic grid levels and reports the sup-norm
residual per level. Premise quantities (hypothesis integrals, indefinite
integrals feeding a substitution) are always evaluated on the finest
grid, so that coarse levels integrate genuinely refined data instead of
telescoping to zero.
"""

from __future__ import annotations

import numpy as np

from .fields import SmoothMap, TimeDependentMap
from .integrate import DimensionMismatch, indefinite_integral
from .paths import PathError, SampledPath, dyadic_prefix
from .reports import ResidualReport, residual_ladder


def _shared_grid(*paths):
    t = paths[0].times
    for p in paths[1:]:
        if not np.array_equal(p.times, t):
            raise PathError("all paths in a residual check must share the grid")


def chain_rule_residual(g: SmoothMap, Z: SampledPath, levels: int = 4,
                        tag: str = "left") -> ResidualReport:
    """sup_t || g(Z_t) - g(Z_0) - int_0^t Dg(Z_r) dZ_r || per dyadic level."""
    if Z.is_operator:
        raise PathError("chain rule check needs a vector path")
    Z = dyadic_prefix(Z, levels)
    gz = g.value_at(Z.values)  # (n, m)
    scale = float(np.max(np.abs(gz)))

    def level(step, Zk):
        dg = SampledPath(Zk.times, g.jacobian_at(Zk.values))  # (nk, m, d)
        w = indefinite_integral(dg, Zk, tag=tag).values
        resid = gz[::step] - gz[0] - w
        return Zk.mesh, float(np.max(np.linalg.norm(resid, axis=1))), scale

    return residual_ladder(Z, levels, level)


def _premise_on_grid(g0: SmoothMap, h: TimeDependentMap, Z: SampledPath, X: SampledPath):
    """g_t(X_t) and D_x g_t(X_t) for every grid t, with the hypothesis
    integral g_t(x) = g_0(x) + sum_{s<t} h_s(x) dZ_s accumulated on the
    full grid (left tags). Step j only touches the rows after it: the
    rows up to j are final once step j-1 is done."""
    times = X.times
    xv = X.values
    dz = np.diff(Z.values, axis=0)  # (n-1, w)
    g_vals = g0.value_at(xv).copy()  # (n, u)
    dg_vals = g0.jacobian_at(xv).copy()  # (n, u, d)
    acc = np.zeros_like(g_vals)  # rows j: of the sum over s < j
    acc_d = np.zeros_like(dg_vals)
    for j in range(times.size - 1):
        rows = xv[j + 1 :]
        acc = acc[1:] + np.einsum("auw,w->au", h.value_at(times[j], rows), dz[j])
        acc_d = acc_d[1:] + np.einsum("auwd,w->aud", h.space_jacobian_at(times[j], rows), dz[j])
        g_vals[j + 1] += acc[0]
        dg_vals[j + 1] += acc_d[0]
    return g_vals, dg_vals


def ito_kunita_residual(g0: SmoothMap, h: TimeDependentMap, Z: SampledPath,
                        X: SampledPath, levels: int = 4,
                        tag: str = "left") -> ResidualReport:
    """Residual of the time-dependent change of variable.

    The map family g_t(x) = g_0(x) + int_0^t h_s(x) dZ_s is reconstructed
    along X via int h_s(X_s) dZ_s + int D_x g_s(X_s) dX_s and compared with
    g_t(X_t); the premise integrals live on the finest grid, the
    reconstruction on each dyadic level.
    """
    _shared_grid(Z, X)
    if Z.is_operator or X.is_operator:
        raise PathError("ito-kunita check needs vector paths")
    Z, X = dyadic_prefix(Z, levels), dyadic_prefix(X, levels)
    g_vals, dg_vals = _premise_on_grid(g0, h, Z, X)
    scale = float(np.max(np.abs(g_vals)))

    def level(step, Zk, Xk):
        hv = np.stack([h.value_at(t, x) for t, x in zip(Xk.times, Xk.values)])  # (nk,u,w)
        w1 = indefinite_integral(SampledPath(Zk.times, hv), Zk, tag=tag).values
        w2 = indefinite_integral(SampledPath(Xk.times, dg_vals[::step]), Xk, tag=tag).values
        resid = g_vals[::step] - g_vals[0] - w1 - w2
        return Xk.mesh, float(np.max(np.linalg.norm(resid, axis=1))), scale

    return residual_ladder((Z, X), levels, level)


def substitution_residual(g: SampledPath, f: SampledPath, Z: SampledPath,
                          interval=None, levels: int = 4,
                          tag: str = "left") -> ResidualReport:
    """Residual of int g dY vs int (g.f) dZ with Y = int f dZ.

    g and f are operator paths (time-indexed matrices) on Z's grid. Y is
    integrated once on the finest grid; each level integrates the coarse
    tagged sums of g against Y's genuinely finer increments.
    """
    _shared_grid(g, f, Z)
    if not (g.is_operator and f.is_operator):
        raise PathError("substitution check needs operator-valued g and f")
    if g.value_shape[1] != f.value_shape[0]:
        raise DimensionMismatch(f"substitution check: g of shape {g.value_shape} cannot act "
                                f"on f of shape {f.value_shape}")
    if interval is not None:
        g, f, Z = (p.restrict(*interval) for p in (g, f, Z))
    g, f, Z = (dyadic_prefix(p, levels) for p in (g, f, Z))
    Y = indefinite_integral(f, Z, tag=tag)
    comp = np.einsum("iuw,iwk->iuk", g.values, f.values)  # (g.f)_r, row-wise

    def level(step, gk, Zk):
        Yk = SampledPath(Zk.times, Y.values[::step])
        compk = SampledPath(Zk.times, comp[::step])
        lhs = indefinite_integral(gk, Yk, tag=tag).values
        rhs = indefinite_integral(compk, Zk, tag=tag).values
        return (Zk.mesh, float(np.max(np.linalg.norm(lhs - rhs, axis=1))),
                float(np.max(np.abs(lhs))))

    return residual_ladder((g, Z), levels, level)
