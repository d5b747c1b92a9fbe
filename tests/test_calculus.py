"""Change-of-variable residual checks for tagged sums."""

import numpy as np
import pytest

from youngflow import (
    DimensionMismatch,
    FbmSpec,
    PathError,
    SampledPath,
    SmoothMap,
    TimeDependentMap,
    chain_rule_residual,
    gen_fbm,
    ito_kunita_residual,
    substitution_residual,
)
import youngflow.calculus as calculus
from youngflow.builtins import get_smooth_map, get_time_map


def _zero_map(dim, out=1):
    return SmoothMap(
        in_dim=dim,
        out_dim=out,
        value=lambda y: np.zeros(y.shape[:-1] + (out,)),
        jacobian=lambda y: np.zeros(y.shape[:-1] + (out, dim)),
    )


def test_chain_rule_identity_is_exact():
    Z = gen_fbm(FbmSpec(hurst=0.75, n_points=257, seed=1))
    rep = chain_rule_residual(get_smooth_map("identity", dim=1), Z, levels=3)
    assert rep.converged
    assert rep.final_residual < 1e-12


def test_chain_rule_square_of_time_residual_equals_mesh():
    # g(z) = z^2, Z = t: the left-sum defect telescopes to sum(dt^2) = mesh
    n = 2**12 + 1
    times = np.linspace(0.0, 1.0, n)
    Z = SampledPath(times, times)
    rep = chain_rule_residual(get_smooth_map("square", dim=1), Z, levels=4)
    assert rep.converged
    for mesh, resid in rep.levels:
        assert resid == pytest.approx(mesh, rel=1e-10)
    assert rep.final_residual < 1e-3


def test_chain_rule_midpoint_tag_exact_on_quadratic():
    times = np.linspace(0.0, 1.0, 129)
    Z = SampledPath(times, times)
    rep = chain_rule_residual(
        get_smooth_map("square", dim=1), Z, levels=3, tag="midpoint-time"
    )
    assert rep.converged
    assert rep.final_residual < 1e-13


def test_chain_rule_converges_on_rough_path():
    Z = gen_fbm(FbmSpec(hurst=0.8, n_points=2**11 + 1, seed=5))
    rep = chain_rule_residual(get_smooth_map("exp", dim=1), Z, levels=4)
    assert rep.converged
    assert rep.final_residual < rep.residuals[0]
    assert all(a > b for a, b in zip(rep.meshes, rep.meshes[1:]))


def test_chain_rule_rejects_operator_path():
    Z = SampledPath([0.0, 1.0], np.zeros((2, 1, 1)))
    with pytest.raises(PathError):
        chain_rule_residual(get_smooth_map("identity", dim=1), Z)


def test_ito_kunita_with_static_family_matches_chain_rule():
    Z = gen_fbm(FbmSpec(hurst=0.75, n_points=513, seed=7))
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=513, seed=8))
    g0 = get_smooth_map("exp", dim=1)
    h0 = TimeDependentMap(
        in_dim=1,
        value=lambda t, x: np.zeros(x.shape[:-1] + (1, 1)),
        space_jacobian=lambda t, x: np.zeros(x.shape[:-1] + (1, 1, 1)),
    )
    rep = ito_kunita_residual(g0, h0, Z, X, levels=3)
    ref = chain_rule_residual(g0, X, levels=3)
    assert np.array_equal(rep.residuals, ref.residuals)
    assert rep.converged


def test_ito_kunita_product_rule():
    # h(t, x) = x makes g_t(x) = x Z_t, so the identity is the product
    # rule d(X Z) = X dZ + Z dX evaluated with tagged sums
    Z = gen_fbm(FbmSpec(hurst=0.75, n_points=2**11 + 1, seed=21))
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=2**11 + 1, seed=22))
    h = TimeDependentMap(
        in_dim=1,
        value=lambda t, x: x[..., None],
        space_jacobian=lambda t, x: np.ones(x.shape[:-1] + (1, 1, 1)),
    )
    rep = ito_kunita_residual(_zero_map(1), h, Z, X, levels=4)
    assert rep.converged
    assert rep.final_residual < 0.3 * rep.residuals[0]


def test_ito_kunita_requires_shared_grid():
    Z = SampledPath([0.0, 0.5, 1.0], [0.0, 0.1, 0.2])
    X = SampledPath([0.0, 0.4, 1.0], [0.0, 0.1, 0.2])
    with pytest.raises(PathError):
        ito_kunita_residual(_zero_map(1), TimeDependentMap(1, lambda t, x: x[..., None]), Z, X)


def test_substitution_identity_integrands_are_exact():
    rng = np.random.default_rng(3)
    n = 65
    times = np.linspace(0.0, 1.0, n)
    Z = SampledPath(times, np.cumsum(rng.standard_normal((n, 2)), axis=0) * 0.1)
    eye = SampledPath(times, np.broadcast_to(np.eye(2), (n, 2, 2)).copy())
    rep = substitution_residual(eye, eye, Z, levels=3)
    assert rep.converged
    assert rep.final_residual < 1e-13


def test_substitution_constant_outer_machine_level():
    rng = np.random.default_rng(9)
    n = 129
    times = np.linspace(0.0, 1.0, n)
    Z = SampledPath(times, np.cumsum(rng.standard_normal(n)) * 0.1)
    A = SampledPath(times, np.broadcast_to(np.array([[0.5], [2.0]]), (n, 2, 1)).copy())
    g = SampledPath(times, np.broadcast_to(np.array([[1.0, -1.0]]), (n, 1, 2)).copy())
    rep = substitution_residual(g, A, Z, levels=3)
    # both sides reduce to fixed matrices against the same dZ sums
    assert rep.final_residual < 1e-12


def test_substitution_converges_on_rough_path():
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=2**11 + 1, seed=31))
    z = X.values[:, 0]
    f = SampledPath(X.times, np.stack([np.cos(z), np.sin(z)], axis=1)[:, :, None])
    g = SampledPath(X.times, np.stack([z, z**2], axis=1)[:, None, :])
    rep = substitution_residual(g, f, X, levels=4)
    assert rep.converged
    assert rep.final_residual < rep.residuals[0]


def test_substitution_interval_restriction():
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=257, seed=33))
    z = X.values[:, 0]
    f = SampledPath(X.times, np.cos(z)[:, None, None])
    g = SampledPath(X.times, np.sin(z)[:, None, None])
    rep = substitution_residual(g, f, X, interval=(0.25, 0.75), levels=3)
    assert rep.meshes[0] == pytest.approx((0.75 - 0.25) / 32)
    assert rep.converged


def test_substitution_rejects_vector_integrands():
    times = np.linspace(0.0, 1.0, 5)
    vec = SampledPath(times, np.ones((5, 2)))
    Z = SampledPath(times, times)
    with pytest.raises(PathError):
        substitution_residual(vec, vec, Z)


def test_substitution_rejects_operators_that_do_not_compose():
    times = np.linspace(0.0, 1.0, 17)
    g = SampledPath(times, np.ones((17, 1, 3)))
    f = SampledPath(times, np.ones((17, 2, 1)))
    with pytest.raises(DimensionMismatch, match=r"g of shape \(1, 3\) .* f of shape \(2, 1\)"):
        substitution_residual(g, f, SampledPath(times, times))


def test_ito_premise_matches_full_grid_reference():
    # written out: the hypothesis integral accumulated at every row on
    # every step; the library skips the rows a step can no longer change
    Z = gen_fbm(FbmSpec(hurst=0.75, n_points=129, seed=3))
    a = gen_fbm(FbmSpec(hurst=0.75, n_points=129, seed=4))
    b = gen_fbm(FbmSpec(hurst=0.75, n_points=129, seed=5))
    X = SampledPath(a.times, np.column_stack([a.values[:, 0], b.values[:, 0]]))
    g0, h = get_smooth_map("exp", 2), get_time_map("modulated-sin", 2)
    g_ref, dg_ref = g0.value_at(X.values).copy(), g0.jacobian_at(X.values).copy()
    acc, acc_d = np.zeros_like(g_ref), np.zeros_like(dg_ref)
    dz = np.diff(Z.values, axis=0)
    for j in range(X.n_points - 1):
        acc = acc + np.einsum("auw,w->au", h.value_at(X.times[j], X.values), dz[j])
        acc_d = acc_d + np.einsum("auwd,w->aud",
                                  h.space_jacobian_at(X.times[j], X.values), dz[j])
        g_ref[j + 1] += acc[j + 1]
        dg_ref[j + 1] += acc_d[j + 1]
    g_vals, dg_vals = calculus._premise_on_grid(g0, h, Z, X)
    assert np.array_equal(g_vals, g_ref)
    assert np.array_equal(dg_vals, dg_ref)
