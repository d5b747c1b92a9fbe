"""Conserved quantities, symmetries, and infinitesimal symmetry checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldSpec, PointMap, ScalarObservable, as_single_field
from .integrate import indefinite_integral
from .paths import PathError, SampledPath
from .reports import CheckReport, ResidualReport, make_check_report, residual_ladder
from .yde import SolveConfig, _euler_core, _raise_blow_up, solve_yde

# Algebraic identities are held to a tighter tolerance when all
# derivatives involved are analytic rather than finite-differenced.
ALGEBRAIC_TOL_ANALYTIC = 1e-8
ALGEBRAIC_TOL_FD = 1e-4


@dataclass(frozen=True)
class SampleDomain:
    """Axis-aligned box sampled uniformly at random from a fixed seed."""

    lower: tuple
    upper: tuple
    count: int = 128
    seed: int = 0

    def points(self) -> np.ndarray:
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or np.any(hi <= lo):
            raise PathError("sample domain needs lower < upper per axis")
        rng = np.random.default_rng(int(self.seed))
        return rng.uniform(lo, hi, size=(self.count, lo.size))


def _auto_tol(analytic: bool, tol: float | None) -> float:
    if tol is not None:
        return tol
    return ALGEBRAIC_TOL_ANALYTIC if analytic else ALGEBRAIC_TOL_FD


def check_conserved_algebraic(F: ScalarObservable, fields, dom: SampleDomain,
                              tol: float | None = None) -> CheckReport:
    """max over samples of || DF(y) . f_i(y) || across driver columns."""
    f = as_single_field(fields)
    pts = dom.points()
    grad = F.jacobian_at(pts)  # (m, k, d)
    fv = f.value_at(0.0, pts)  # (m, d, n)
    resid = np.einsum("mkd,mdn->mkn", grad, fv)
    norms = np.linalg.norm(resid.reshape(pts.shape[0], -1), axis=1)
    return make_check_report(norms, pts, _auto_tol(F.has_analytic_jacobian, tol))


def check_conserved_trajectory(F: ScalarObservable, fields, X: SampledPath, y0,
                               cfg: SolveConfig | None = None,
                               levels: int = 4) -> ResidualReport:
    """sup_t || F(Y_t) - F(Y_0) || along solves at each dyadic level."""
    f = as_single_field(fields)

    def level(step, Xk):
        Y = solve_yde(f, Xk, y0, cfg)
        fy = F.value_at(Y.values)
        return (Xk.mesh, float(np.max(np.linalg.norm(fy - fy[0], axis=1))),
                float(np.max(np.abs(fy))))

    return residual_ladder(X, levels, level)


def propagate_observable(F: ScalarObservable, fields, X: SampledPath, y0,
                         cfg: SolveConfig | None = None, levels: int = 4,
                         tag: str = "left"):
    """Reconstruct F(Y_t) as F(Y_0) + sum_i int (DF.f_i)(Y_s) dX^i_s.

    Returns the reconstructed path on the finest grid and the sup-norm
    residual against direct evaluation per dyadic level.
    """
    f = as_single_field(fields)
    finest = []

    def level(step, Xk):
        Y = solve_yde(f, Xk, y0, cfg)
        fy = F.value_at(Y.values)  # (n, k)
        lifted = np.einsum("nkd,ndj->nkj", F.jacobian_at(Y.values),
                           f.value_at(0.0, Y.values))  # (n, k, ndrv)
        w = indefinite_integral(SampledPath(Xk.times, lifted), Xk, tag=tag).values
        rhs = fy[0] + w
        finest[:] = [SampledPath(Xk.times, rhs)]
        return (Xk.mesh, float(np.max(np.linalg.norm(fy - rhs, axis=1))),
                float(np.max(np.abs(fy))))

    rep = residual_ladder(X, levels, level)
    return finest[0], rep


def check_symmetry_map(Phi: PointMap, fields, dom: SampleDomain,
                       tol: float | None = None) -> CheckReport:
    """max over samples of || f(Phi(y)) - DPhi(y) f(y) ||."""
    f = as_single_field(fields)
    pts = dom.points()
    lhs = f.value_at(0.0, Phi.value_at(pts))  # (m, d, n)
    rhs = np.einsum("mde,men->mdn", Phi.jacobian_at(pts), f.value_at(0.0, pts))
    norms = np.linalg.norm((lhs - rhs).reshape(pts.shape[0], -1), axis=1)
    return make_check_report(norms, pts, _auto_tol(Phi.has_analytic_jacobian, tol))


def check_symmetry_trajectory(Phi: PointMap, fields, X: SampledPath, y0,
                              cfg: SolveConfig | None = None,
                              levels: int = 4) -> ResidualReport:
    """sup_t || Phi(Y_t(y0)) - Y_t(Phi(y0)) || per dyadic level."""
    f = as_single_field(fields)
    cfg = cfg or SolveConfig()
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))

    def level(step, Xk):
        # Y(y0) and Y(Phi(y0)) as the two rows of one sweep; the kernel is
        # row-wise, so each row is its own solve_yde bit for bit, and Phi
        # maps row 0 as one contiguous array, as it mapped solve_yde's values
        (states,), alive_idx = _euler_core(f, Xk, np.stack([y0, Phi.value_at(y0)]), cfg,
                                           with_jacobian=False)
        _raise_blow_up(Xk, alive_idx, Xk.n_points)
        mapped = Phi.value_at(np.ascontiguousarray(states[:, 0]))
        return (Xk.mesh, float(np.max(np.linalg.norm(mapped - states[:, 1], axis=1))),
                float(np.max(np.abs(mapped))))

    return residual_ladder(X, levels, level)


def _column_fields(fields):
    f = as_single_field(fields)
    return [f.column(j) for j in range(f.driver_dim)], f


def lie_bracket(g: FieldSpec, f: FieldSpec, y) -> np.ndarray:
    """[g, f](y) = Df(y) g(y) - Dg(y) f(y) for one-driver fields."""
    if g.driver_dim != 1 or f.driver_dim != 1:
        raise PathError("lie_bracket takes single-column vector fields")
    y = np.asarray(y, dtype=float)
    gv = g.value_at(0.0, y)[..., 0]
    fv = f.value_at(0.0, y)[..., 0]
    jf = f.jacobian_at(0.0, y)[..., 0, :]
    jg = g.jacobian_at(0.0, y)[..., 0, :]
    return np.einsum("...de,...e->...d", jf, gv) - np.einsum("...de,...e->...d", jg, fv)


def _numeric_flow(g: FieldSpec, s: float, steps_per_unit: int, cfg: SolveConfig | None) -> PointMap:
    """Time-s flow of the one-driver field g, by Euler with driver X_t = t."""
    n = max(2, int(np.ceil(steps_per_unit * abs(s))) + 1)
    driver = SampledPath(np.linspace(0.0, abs(s), n), np.linspace(0.0, s, n))
    cfg = cfg or SolveConfig()

    def last_row(y, with_jacobian):
        # only the last Euler row is kept, so memory does not grow with n
        rows, _ = _euler_core(g, driver, np.atleast_2d(np.asarray(y, dtype=float)), cfg,
                              with_jacobian, history=0)
        return rows[-1][0] if np.asarray(y).ndim == 1 else rows[-1]

    def value(y):
        return last_row(y, with_jacobian=False)

    def jacobian(y):
        return last_row(y, with_jacobian=True)

    return PointMap(in_dim=g.in_dim, out_dim=g.in_dim, value=value, jacobian=jacobian)


def check_infinitesimal_symmetry(g: FieldSpec, fields, dom: SampleDomain,
                                 flow_times=(0.5, 1.0), tol: float | None = None,
                                 flow_tol: float = 1e-6, flow_steps_per_unit: int = 1024,
                                 cfg: SolveConfig | None = None) -> CheckReport:
    """Zero brackets with every driver column, plus the g-flow symmetry check.

    Algebraic part: max over dom of ||[g, f_i](y)||. Dynamic part: for each
    requested s, the numeric time-s flow of g must pass check_symmetry_map
    within flow_tol.
    """
    cols, f = _column_fields(fields)
    pts = dom.points()
    bracket_norms = np.zeros(pts.shape[0])
    for col in cols:
        b = lie_bracket(g, col, pts)
        bracket_norms = np.maximum(bracket_norms, np.linalg.norm(b, axis=1))
    analytic = g.jacobian is not None and f.jacobian is not None
    a_tol = _auto_tol(analytic, tol)
    algebraic = make_check_report(bracket_norms, pts, a_tol)

    flow_results = {}
    dyn_pass = True
    dyn_max = 0.0
    for s in flow_times:
        phi = _numeric_flow(g, float(s), flow_steps_per_unit, cfg)
        rep = check_symmetry_map(phi, f, dom, tol=flow_tol)
        flow_results[str(s)] = rep.to_dict()
        dyn_pass &= rep.passed
        dyn_max = max(dyn_max, rep.max_residual)

    return CheckReport(
        max_residual=max(algebraic.max_residual, dyn_max),
        arg_max_point=algebraic.arg_max_point,
        passed=bool(algebraic.passed and dyn_pass),
        tol=a_tol,
        details={"algebraic_max": algebraic.max_residual, "flow_checks": flow_results,
                 "flow_tol": flow_tol},
    )
