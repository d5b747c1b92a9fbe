"""Composed flows against the direct combined solve, and pushforwards."""

import numpy as np
import pytest

from youngflow import (
    DeterministicSpec,
    FbmSpec,
    FieldSpec,
    PathError,
    SampledPath,
    compose_flows,
    gen_deterministic,
    gen_fbm,
    pushforward_field,
    solve_flow,
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


def _constant_field(vec):
    vec = np.asarray(vec, dtype=float)
    d = vec.size
    return FieldSpec.autonomous(
        lambda y: np.broadcast_to(vec[:, None], y.shape[:-1] + (d, 1)).copy(),
        in_dim=d,
        driver_dim=1,
        jac=lambda y: np.zeros(y.shape[:-1] + (d, 1, d)),
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


def test_linear_inner_field_never_takes_the_slow_path(monkeypatch):
    # with a linear inner flow the fast pass predicts Y_t(x) exactly, so
    # every preimage it used is certified and no step is re-solved
    entered = []
    real = composition._direct_exact
    monkeypatch.setattr(composition, "_direct_exact",
                        lambda *a, **k: entered.append(1) or real(*a, **k))
    U = gen_fbm(FbmSpec(hurst=0.75, n_points=257, seed=11))
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=257, seed=12))
    g = get_field("scaling", dim=1)
    for f in (g, get_field("square", dim=1)):
        _, _, rep = compose_flows(f, U, g, X, 0.3, levels=3)
        assert rep.converged
    assert entered == []


def test_grid_and_dimension_validation():
    U = SampledPath([0.0, 0.5, 1.0], [0.0, 0.1, 0.2])
    X = SampledPath([0.0, 0.4, 1.0], [0.0, 0.1, 0.2])
    f = get_field("scaling", dim=1)
    with pytest.raises(PathError):
        compose_flows(f, U, f, X, 1.0)
    X2 = SampledPath([0.0, 0.5, 1.0], [0.0, 0.1, 0.2])
    with pytest.raises(PathError):
        compose_flows(get_field("rotation", dim=2), U, f, X2, 1.0)


def test_pushforward_of_euler_field_under_its_own_flow():
    # the flow of f(y) = y is linear, so (Y)_* f is again z -> z
    X = gen_fbm(FbmSpec(hurst=0.8, n_points=257, seed=5))
    f = get_field("scaling", dim=1)
    flow = solve_flow(f, X, np.linspace(0.2, 3.0, 15)[:, None])
    P = pushforward_field(flow, 1.0, f)
    k = flow.jacobians[-1, 0, 0, 0]
    for z in (0.5, 1.2, 2.4):
        assert P.preimage([z])[0] == pytest.approx(z / k, abs=1e-8)
        assert P([z])[0, 0] == pytest.approx(z, abs=1e-8)
    assert P.in_dim == 1 and P.driver_dim == 1


def test_pushforward_under_translation_flow():
    # a constant field translates, leaving Jacobian I:
    # (Y)_* f(z) = f(z - shift)
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=129, seed=9))
    g = _constant_field([1.0, -0.5])
    grid = np.array([[a, b] for a in np.linspace(-2, 2, 7) for b in np.linspace(-2, 2, 7)])
    flow = solve_flow(g, X, grid)
    shift = flow.states[-1, 0] - flow.initial_points[0]
    P = pushforward_field(flow, 1.0, get_field("square", dim=2))
    z = np.array([0.4, 0.8])
    expect = (z - shift) ** 2
    assert np.allclose(P(z)[:, 0], expect, atol=1e-8)


def test_pushforward_validation():
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=65, seed=1))
    flow = solve_flow(get_field("scaling", dim=1), X, [[1.0]])
    with pytest.raises(PathError):
        pushforward_field(flow, 1.0, get_field("rotation", dim=2))
    with pytest.raises(PathError):
        pushforward_field(flow, 0.123456, get_field("scaling", dim=1))
