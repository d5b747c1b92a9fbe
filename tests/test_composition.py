"""Composed flows against the direct combined solve."""

import numpy as np
import pytest

from youngflow import (
    DeterministicSpec,
    FbmSpec,
    FieldSpec,
    NewtonError,
    PathError,
    SampledPath,
    compose_flows,
    gen_deterministic,
    gen_fbm,
    solve_yde,
)
import youngflow.composition as composition
from youngflow.builtins import get_field


def _zero_field(dim):
    return FieldSpec.autonomous(
        lambda y: np.zeros(y.shape + (1,)),
        in_dim=dim,
        driver_dim=1,
        jac=lambda y: np.zeros(y.shape + (1, dim)),
    )


def test_zero_inner_field_reduces_to_outer_solve():
    U = gen_fbm(FbmSpec(hurst=0.75, n_points=129, seed=1))
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=129, seed=2))
    g = get_field("scaling", dim=1)
    comp, direct, rep = compose_flows(_zero_field(1), U, g, X, 0.7, levels=3)
    plain = solve_yde(g, X, 0.7)
    assert np.array_equal(comp.values, plain.values)
    assert np.array_equal(direct.values, plain.values)
    assert rep.converged
    assert rep.final_residual == 0.0


def test_zero_outer_field_reduces_to_inner_solve():
    U = gen_fbm(FbmSpec(hurst=0.75, n_points=129, seed=3))
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=129, seed=4))
    f = get_field("scaling", dim=1)
    comp, direct, rep = compose_flows(f, U, _zero_field(1), X, 0.7, levels=3)
    plain = solve_yde(f, U, 0.7)
    assert np.allclose(comp.values, plain.values, atol=1e-12)
    assert np.allclose(direct.values, plain.values, atol=1e-9)
    assert rep.converged


def test_scalar_exponential_combination():
    n = 2**10 + 1
    U = gen_deterministic(DeterministicSpec(kind="linear", n_points=n))
    X = gen_deterministic(
        DeterministicSpec(kind="sine", n_points=n, amplitude=0.5, frequency=0.5)
    )
    f = get_field("scaling", dim=1)
    comp, direct, rep = compose_flows(f, U, f, X, 1.0, levels=3)
    assert rep.converged
    du = U.values[-1, 0] - U.values[0, 0]
    dx = X.values[-1, 0] - X.values[0, 0]
    exact = np.exp(du + dx)
    assert abs(comp.values[-1, 0] - exact) < 5e-3 * exact
    assert abs(direct.values[-1, 0] - exact) < 5e-3 * exact
    assert abs(comp.values[-1, 0] - direct.values[-1, 0]) < 1e-3


def test_routes_converge_on_rough_drivers():
    n = 2**10 + 1
    U = gen_fbm(FbmSpec(hurst=0.75, n_points=n, seed=11))
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=n, seed=12))
    comp, direct, rep = compose_flows(
        get_field("square", dim=1), U, get_field("scaling", dim=1), X, 0.3, levels=3
    )
    assert rep.converged
    assert rep.final_residual < rep.residuals[0]
    assert comp.n_points == n and direct.n_points == n
    assert all(a > b for a, b in zip(rep.meshes, rep.meshes[1:]))


def test_linear_inner_field_settles_in_one_sweep(monkeypatch):
    # a linear inner flow has a Jacobian that does not depend on x, so the
    # one Newton step per row of the first sweep settles every row: one
    # trajectory with Jacobians to start and one kernel call to check, per level
    calls = []
    real, start = composition._diagonal_flow, composition._start_flow
    monkeypatch.setattr(composition, "_diagonal_flow",
                        lambda *a, **k: calls.append(k["with_jacobian"]) or real(*a, **k))
    monkeypatch.setattr(composition, "_start_flow",
                        lambda *a: calls.append("start") or start(*a))
    U = gen_fbm(FbmSpec(hurst=0.75, n_points=257, seed=11))
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=257, seed=12))
    g = get_field("scaling", dim=1)
    for f in (g, get_field("square", dim=1)):
        calls.clear()
        _, _, rep = compose_flows(f, U, g, X, 0.3, levels=3)
        assert rep.converged
        assert calls == [False, "start", True] * 3


def test_nonlinear_inner_field_matches_closed_form():
    # 1-d, f(y) = y outer and g(y) = y^2 inner: V_t = y0 exp(U_t - U_0) and
    # Y_t(x) = x / (1 - x (X_t - X_0)), so Z_t = V_t / (1 - V_t (X_t - X_0))
    U = gen_fbm(FbmSpec(hurst=0.75, n_points=513, seed=11))
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=513, seed=12))
    f, g, y0 = get_field("scaling", dim=1), get_field("square", dim=1), 0.3
    V = y0 * np.exp(U.values[:, 0] - U.values[0, 0])
    Z = V / (1 - V * (X.values[:, 0] - X.values[0, 0]))
    dists = []
    for step in (8, 4, 2, 1):
        comp, direct, _ = compose_flows(f, U.subsample(step), g, X.subsample(step), y0,
                                        levels=1)
        dists.append([np.max(np.abs(r.values[:, 0] - Z[::step])) for r in (comp, direct)])
    for coarse, fine in zip(dists, dists[1:]):
        assert fine[0] < coarse[0] and fine[1] < coarse[1], dists
    _, _, rep = compose_flows(f, U, g, X, y0, levels=4)
    assert rep.converged
    assert all(b < a for a, b in zip(rep.residuals, rep.residuals[1:]))


def test_nonlinear_inner_field_needs_more_than_one_sweep():
    # a Newton step moves x_i and with it the Jacobian the row used, so a
    # row it corrects cannot settle in the same sweep
    U = gen_fbm(FbmSpec(hurst=0.75, n_points=129, seed=11))
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=129, seed=12))
    with pytest.raises(NewtonError):
        compose_flows(get_field("scaling", dim=1), U, get_field("square", dim=1), X, 0.3,
                      levels=2, newton_max_iter=1)


def test_grid_and_dimension_validation():
    U = SampledPath([0.0, 0.5, 1.0], [0.0, 0.1, 0.2])
    X = SampledPath([0.0, 0.4, 1.0], [0.0, 0.1, 0.2])
    f = get_field("scaling", dim=1)
    with pytest.raises(PathError):
        compose_flows(f, U, f, X, 1.0)
    X2 = SampledPath([0.0, 0.5, 1.0], [0.0, 0.1, 0.2])
    with pytest.raises(PathError):
        compose_flows(get_field("rotation", dim=2), U, f, X2, 1.0)
    with pytest.raises(PathError):
        compose_flows(f, U, f, X2, 1.0, newton_max_iter=0)
    # an inner driver of another dimension: every Euler sweep checks its driver
    X2d = SampledPath([0.0, 0.5, 1.0], [[0.0, 0.0], [0.1, 0.3], [0.2, 0.5]])
    with pytest.raises(PathError, match="field expects a 1-dim driver, path has dim 2"):
        compose_flows(f, U, f, X2d, 1.0, levels=1)
