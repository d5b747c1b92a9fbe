"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Run with -s to see the verdict lines as they complete. Each criterion
carries a wall-clock budget; exceeding it fails the criterion even if
the numbers come out right.
"""

import itertools
import time

import numpy as np

from youngflow import (
    CharStream,
    DeterministicSpec,
    FbmSpec,
    FieldSpec,
    GridBox,
    SampleDomain,
    SampledPath,
    SolveConfig,
    assemble_solution_field,
    chain_rule_residual,
    check_conserved_trajectory,
    check_symmetry_map,
    compose_flows,
    fold_times,
    gen_deterministic,
    gen_fbm,
    p_variation,
    pde_residual,
    solve_yde,
    verify_compatibility,
    young_integral,
)
from youngflow.builtins import (
    get_field,
    get_hamiltonian,
    get_initial_data,
    get_observable,
    get_point_map,
    get_smooth_map,
)


def _verdict(num, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    ok = bool(ok) and elapsed < budget
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} "
          f"({detail}; {elapsed:.1f}s of {budget:.0f}s)")
    assert ok, f"criterion {num:02d}: {detail}, elapsed {elapsed:.1f}s"


def _linear_field(A):
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    return FieldSpec.autonomous(
        lambda y: (y @ A.T)[..., :, None],
        in_dim=d,
        driver_dim=1,
        jac=lambda y: np.broadcast_to(A[:, None, :], y.shape[:-1] + (d, 1, d)).copy(),
    )


def _ramp(n, horizon, slope=1.0):
    times = np.linspace(0.0, horizon, n)
    return SampledPath(times, (slope * times)[:, None])


def test_criterion_01_pvar_matches_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))])
        vals = rng.normal(size=(n, d))
        X = SampledPath(times, vals)
        flat = vals.reshape(n, -1)
        for p in (1.0, 1.5, 2.0):
            # same vectorized norm/power rows the DP consumes (SIMD pow can
            # differ from scalar pow in the last ulp), so equality is bitwise
            W = [None] + [np.linalg.norm(flat[j] - flat[:j], axis=1) ** p
                          for j in range(1, n)]
            dp = p_variation(X, p).value
            best = -np.inf
            for r in range(n - 1):
                for comb in itertools.combinations(range(1, n - 1), r):
                    idx = (0,) + comb + (n - 1,)
                    tot = 0.0
                    for a, b in zip(idx, idx[1:]):
                        tot = tot + float(W[b][a])
                    best = max(best, tot)
            assert dp == float(np.float64(best) ** (1.0 / p))
            checked += 1
    _verdict(1, checked == 600, f"dp == enumeration on {checked} path/p pairs",
             t0, 10.0)


def test_criterion_02_young_loeve_certificate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    p = q = 1.0 / 0.7
    violations = 0
    margin = np.inf
    for seed in range(5):
        X = gen_fbm(FbmSpec(hurst=0.75, n_points=1024, horizon=1.0, seed=seed))
        for _ in range(20):
            i0 = int(rng.integers(0, 1022))
            i1 = int(rng.integers(i0 + 2, 1024))
            span = (float(X.times[i0]), float(X.times[i1]))
            res = young_integral(X, X, interval=span, p=p, q=q)
            first = X.values[i0] * (X.values[i1] - X.values[i0])
            lhs = float(np.abs(res.value - first)[0])
            if lhs > res.certified_bound:
                violations += 1
            if lhs > 0:
                margin = min(margin, res.certified_bound / lhs)
    _verdict(2, violations == 0,
             f"0 of 100 subintervals violate, min bound/deviation {margin:.2f}",
             t0, 30.0)


def test_criterion_03_chain_rule_convergence():
    t0 = time.perf_counter()
    g = get_smooth_map("exp", 1)
    ratio_seeds = 0
    worst_final = 0.0
    for seed in range(5):
        Z = gen_fbm(FbmSpec(hurst=0.8, n_points=2 ** 11 + 1, horizon=1.0, seed=seed))
        rep = chain_rule_residual(g, Z, levels=4)
        r = [lv[1] for lv in rep.levels]
        ratio_seeds += all(r[k] / r[k + 1] >= 1.3 for k in range(3))
        worst_final = max(worst_final, r[-1] / float(np.max(np.exp(Z.values))))
    _verdict(3, ratio_seeds >= 4 and worst_final <= 1e-2,
             f"{ratio_seeds}/5 seeds decay >= 1.3 per level, "
             f"worst final rel {worst_final:.1e}", t0, 60.0)


def test_criterion_04_linear_yde_closed_form():
    t0 = time.perf_counter()
    field = get_field("scaling", 1)
    n = 2 ** 12 + 1
    cases = [
        ("ramp", gen_deterministic(DeterministicSpec(
            kind="linear", n_points=n, horizon=1.0)), 1e-3),
        ("sine", gen_deterministic(DeterministicSpec(
            kind="sine", n_points=n, horizon=1.0, amplitude=1.0, frequency=0.5)), 1e-3),
        ("fbm", gen_fbm(FbmSpec(hurst=0.8, n_points=n, horizon=1.0, seed=3)), 1e-2),
    ]
    ok = True
    rels = []
    for name, X, tol in cases:
        Y = solve_yde(field, X, np.array([1.5]), SolveConfig())
        target = 1.5 * np.exp(X.values[-1, 0] - X.values[0, 0])
        rel = abs(Y.values[-1, 0] - target) / abs(target)
        rels.append(f"{name} {rel:.1e}")
        ok &= rel <= tol
    _verdict(4, ok, "relative errors " + ", ".join(rels), t0, 30.0)


def test_criterion_05_conserved_quantity_drift():
    t0 = time.perf_counter()
    F = get_observable("norm2", 2)
    field = get_field("rotation", 2)
    ratio_seeds = 0
    worst_sup = 0.0
    for seed in range(5):
        X = gen_fbm(FbmSpec(hurst=0.75, n_points=2 ** 12 + 1, horizon=1.0, seed=seed))
        rep = check_conserved_trajectory(F, field, X, (0.5, 0.5), levels=4)
        r = [lv[1] for lv in rep.levels]
        ratio_seeds += all(r[k] / r[k + 1] >= 1.3 for k in range(3))
        worst_sup = max(worst_sup, r[-1])
    _verdict(5, ratio_seeds >= 4 and worst_sup <= 1e-2,
             f"{ratio_seeds}/5 seeds decay >= 1.3, worst finest drift "
             f"{worst_sup:.1e}", t0, 60.0)


def test_criterion_06_symmetry_suite():
    t0 = time.perf_counter()
    dom = SampleDomain(lower=(-1.0, -1.0), upper=(1.0, 1.0), count=256, seed=1)
    rot = get_field("rotation", 2)
    lin = _linear_field([[0.3, 1.1], [-0.4, 0.2]])
    good = [
        check_symmetry_map(get_point_map("scaling", 2, {"factor": 1.0}), rot, dom),
        check_symmetry_map(get_point_map("rotation", 2, {"angle": 0.7}), rot, dom),
        check_symmetry_map(get_point_map("scaling", 2, {"factor": 2.0}), lin, dom),
    ]
    bad = check_symmetry_map(get_point_map("translation", 2), rot, dom)
    worst = max(rep.max_residual for rep in good)
    ok = (worst <= 1e-10 and all(rep.passed for rep in good)
          and not bad.passed and bad.max_residual >= 0.1)
    _verdict(6, ok, f"commuting cases <= {worst:.1e}, counterexample "
             f"{bad.max_residual:.2f}", t0, 10.0)


def test_criterion_07_kunita_composition():
    t0 = time.perf_counter()
    n = 2 ** 12 + 1
    f = get_field("scaling", 1)
    g = get_field("scaling", 1)
    U = gen_deterministic(DeterministicSpec(kind="linear", n_points=n, horizon=1.0))
    X = gen_deterministic(DeterministicSpec(kind="sine", n_points=n, horizon=1.0,
                                            amplitude=0.5, frequency=0.5))
    comp, direct, rep = compose_flows(f, U, g, X, np.array([1.0]), SolveConfig(),
                                      levels=3)
    target = np.exp((U.values[-1, 0] - U.values[0, 0])
                    + (X.values[-1, 0] - X.values[0, 0]))
    dev = rep.final_residual
    e_comp = abs(comp.values[-1, 0] - target)
    e_dir = abs(direct.values[-1, 0] - target)
    ok = dev <= 1e-3 and e_comp <= 1e-3 and e_dir <= 1e-3
    _verdict(7, ok, f"sup deviation {dev:.1e}, closed-form errors "
             f"{e_comp:.1e}/{e_dir:.1e}", t0, 30.0)


def test_criterion_08_transport_pde_closed_form():
    t0 = time.perf_counter()
    H = get_hamiltonian("transport-k", 1, {"k": 0.7})
    phi = get_initial_data("sin", 1)
    pts = np.linspace(-1.0, 1.0, 21)[:, None]
    n = 2 ** 11 + 1
    worst = 0.0
    resid_ok = False
    for seed in range(101):
        X = gen_fbm(FbmSpec(hurst=0.8, n_points=n, horizon=1.0, seed=seed))
        dx = X.values[:, 0] - X.values[0, 0]
        half = 1.0 + 0.7 * float(np.max(np.abs(dx))) + 0.5
        counts = int(round(2 * half / 0.05)) + 1
        stream = CharStream(H, X, phi, GridBox((-half,), (half,), (counts,)))
        sol = assemble_solution_field(stream, pts)
        assert sol.valid.all()  # transport never folds
        target = np.sin(pts[:, 0][None, :] + 0.7 * dx[:, None])
        worst = max(worst, float(np.max(np.abs(sol.u - target))))
        if seed == 0:
            resid_ok = pde_residual(sol, H, X, phi, levels=3).converged
    _verdict(8, worst <= 1e-2 and resid_ok,
             f"sup error over 101 seeds {worst:.1e}, residual ladder converged "
             f"{resid_ok}", t0, 120.0)


def test_criterion_09_caustic_against_symbolic_oracle():
    t0 = time.perf_counter()
    import sympy as sp

    x, t, p = sp.symbols("x t p", real=True)
    H_sym = p ** 2 / 2
    phi_sym = -(x ** 2) / 2
    X_sym = -t
    p0 = sp.diff(phi_sym, x)
    # momentum is frozen along characteristics: its increment vanishes
    assert sp.simplify(sp.diff(H_sym, x)) == 0
    a_sym = x - sp.diff(H_sym, p).subs(p, p0) * X_sym
    roots = sp.solve(sp.Eq(sp.diff(a_sym, x), 0), t)
    assert len(roots) == 1  # fold time is seed independent here
    tau_star = float(roots[0])

    n = 2 ** 11 + 1
    X = _ramp(n, 1.5, slope=-1.0)
    tau, folded = fold_times(get_hamiltonian("burgers-half-p-squared", 1), X,
                             get_initial_data("neg-half-square", 1),
                             GridBox((-2.0,), (2.0,), (201,)))
    step = 1.5 / (n - 1)
    gap = float(np.max(np.abs(tau - tau_star)))
    ok = folded.all() and gap <= step
    _verdict(9, ok, f"oracle tau {tau_star}, max |tau - oracle| {gap:.2e} "
             f"vs step {step:.2e}", t0, 30.0)


def test_criterion_10_compatibility_identity():
    t0 = time.perf_counter()
    X = _ramp(513, 0.8, slope=-1.0)
    stream = CharStream(get_hamiltonian("burgers-half-p-squared", 1), X,
                        get_initial_data("neg-half-square", 1),
                        GridBox((-2.0,), (2.0,), (401,)))
    rep = verify_compatibility(stream, tol=1e-3)
    _verdict(10, rep.passed and rep.max_residual <= 1e-3,
             f"max residual {rep.max_residual:.1e} at seed spacing 1e-2",
             t0, 30.0)
