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


# numpy's SeedSequence (numpy/random/bit_generator.pyx): its hash and mix
# constants, on 32-bit words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64 (O'Neill 2014): the 128-bit LCG multiplier of the setseq-128 stream
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _seed_state(seed: int) -> list:
    """numpy's SeedSequence(seed).generate_state(4, np.uint64) for an int seed >= 0."""
    words = [seed & _M32]  # little-endian 32-bit words, at least one
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * _MULT_A & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    h, out = _INIT_B, []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * _MULT_B & _M32
        v = v * h & _M32
        out.append(v ^ v >> 16)
    return [out[2 * k] | out[2 * k + 1] << 32 for k in range(4)]


def _unit_draws(seed: int, n: int):
    """The first n doubles in [0, 1) of np.random.default_rng(seed): PCG64
    XSL-RR 128/64 seeded as numpy seeds it, each output u mapped to
    (u >> 11) * 2^-53."""
    s = _seed_state(seed)
    inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
    state = ((inc + (s[0] << 64 | s[1])) * _PCG_MULT + inc) & _M128  # two steps from 0
    mult, m64, m128 = _PCG_MULT, _M64, _M128
    for _ in range(n):
        state = (state * mult + inc) & m128
        # u = x rotated right by the top 6 bits of state, x = hi ^ lo: the low
        # 64 bits of (x:x) >> r; u >> 11 is then (x:x) >> (r + 11), 53 bits
        x = ((state >> 64) ^ state) & m64
        yield ((x * 0x10000000000000001) >> ((state >> 122) + 11) & 0x1FFFFFFFFFFFFF) * 2.0**-53


@dataclass(frozen=True)
class SampleDomain:
    """Axis-aligned box sampled uniformly at random from a fixed seed.

    The points are np.random.default_rng(seed).uniform(lower, upper,
    (count, d)) bit for bit, drawn by a pure-Python PCG64 so that no check
    loads numpy.random: one step of a Python loop per coordinate.
    """

    lower: tuple
    upper: tuple
    count: int = 128
    seed: int = 0

    def points(self) -> np.ndarray:
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or np.any(hi <= lo):
            raise PathError("sample domain needs lower < upper per axis")
        with np.errstate(over="ignore"):
            width = hi - lo
        if not np.all(np.isfinite(width)):
            raise PathError("sample domain needs a finite width upper - lower per axis")
        seed, count, d = int(self.seed), int(self.count), lo.size
        if seed < 0:
            raise PathError(f"sample domain seed must be a non-negative integer, got {seed}")
        if count < 0:
            raise PathError(f"sample domain count must be non-negative, got {count}")
        u = np.fromiter(_unit_draws(seed, count * d), dtype=float, count=count * d)
        return lo + width * u.reshape(count, d)


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
    return _symmetry_map_report(Phi, as_single_field(fields), dom.points(), tol)


def _symmetry_map_report(Phi: PointMap, f: FieldSpec, pts: np.ndarray,
                         tol: float | None) -> CheckReport:
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
        rep = _symmetry_map_report(phi, f, pts, flow_tol)
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
