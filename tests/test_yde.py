"""Euler solves of dY = f(Y) dX and flow maps."""

import numpy as np
import pytest
import scipy.linalg

from youngflow import (
    BlowUpError,
    DeterministicSpec,
    FbmSpec,
    FieldSpec,
    PathError,
    SampledPath,
    SolveConfig,
    gen_deterministic,
    gen_fbm,
    solve_flow,
    solve_yde,
)
from youngflow.builtins import get_field


def _zero_field(dim):
    return FieldSpec.autonomous(
        lambda y: np.zeros(y.shape + (1,)),
        in_dim=dim,
        driver_dim=1,
        jac=lambda y: np.zeros(y.shape + (1, dim)),
    )


def _linear_field(A):
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    return FieldSpec.autonomous(
        lambda y: (y @ A.T)[..., :, None],
        in_dim=d,
        driver_dim=1,
        jac=lambda y: np.broadcast_to(A[:, None, :], y.shape[:-1] + (d, 1, d)).copy(),
    )


def _line(n, horizon=1.0):
    return gen_deterministic(DeterministicSpec(kind="linear", n_points=n, horizon=horizon))


def test_zero_field_keeps_state_constant():
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=65, seed=2))
    Y = solve_yde(_zero_field(2), X, [1.5, -0.25])
    assert np.all(Y.values == np.array([1.5, -0.25]))


def test_scalar_exponential_closed_form():
    X = _line(2**12 + 1)
    Y = solve_yde(get_field("scaling", dim=1), X, 1.5)
    exact = 1.5 * np.exp(X.values[:, 0])
    assert np.max(np.abs(Y.values[:, 0] - exact)) / exact.max() < 1e-3


def test_rotation_field_matches_rotation_matrix():
    X = _line(2**12 + 1, horizon=2.0)
    y0 = np.array([0.8, -0.3])
    Y = solve_yde(get_field("rotation", dim=2), X, y0)
    a = X.values[-1, 0] - X.values[0, 0]
    R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    assert np.allclose(Y.values[-1], R @ y0, atol=2e-3)


def test_linear_field_jacobian_matches_matrix_exponential():
    A = np.array([[0.3, 1.1], [-0.4, 0.2]])
    X = _line(2**12 + 1)
    flow = solve_flow(_linear_field(A), X, [[1.0, 0.0]])
    JT = flow.jacobians[-1, 0]
    exact = scipy.linalg.expm(A * (X.values[-1, 0] - X.values[0, 0]))
    assert np.max(np.abs(JT - exact)) < 1e-3


def test_rotation_flow_preserves_volume():
    X = _line(2**12 + 1)
    flow = solve_flow(get_field("rotation", dim=2), X, [[1.0, 0.5]])
    dets = np.linalg.det(flow.jacobians[:, 0])
    assert np.max(np.abs(dets - 1.0)) < 1e-3


def test_grid_compositionality_is_bitwise():
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=65, seed=8))
    mid = float(X.times[32])
    field = get_field("scaling", dim=1)
    whole = solve_yde(field, X, 2.0)
    first = solve_yde(field, X.restrict(0.0, mid), 2.0)
    second = solve_yde(field, X.restrict(mid, 1.0), first.values[-1])
    assert np.array_equal(second.values[-1], whole.values[-1])


def test_substeps_refine_toward_closed_form():
    X = _line(129)
    field = get_field("scaling", dim=1)
    exact = 1.0 * np.exp(1.0)
    errs = []
    for sub in (1, 4, 16):
        Y = solve_yde(field, X, 1.0, SolveConfig(substeps_per_interval=sub))
        errs.append(abs(Y.values[-1, 0] - exact))
    assert errs[2] < errs[1] < errs[0]


def test_jacobian_matches_finite_differences():
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=257, seed=4))
    field = get_field("square", dim=2)
    x0 = np.array([0.3, -0.2])
    flow = solve_flow(field, X, [x0])
    h = 1e-6
    fd = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        plus, minus = solve_flow(field, X, [x0 + e, x0 - e]).states[-1]
        fd[:, j] = (plus - minus) / (2 * h)
    assert np.allclose(flow.jacobians[-1, 0], fd, atol=1e-4)


def test_driver_compatibility_checks():
    field = get_field("rotation", dim=2)
    X2 = SampledPath([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(PathError):
        solve_yde(field, X2, [1.0, 0.0])
    Zop = SampledPath([0.0, 1.0], np.zeros((2, 1, 1)))
    with pytest.raises(PathError):
        solve_yde(get_field("scaling", dim=1), Zop, 1.0)


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(substeps_per_interval=0)


def test_blow_up_reports_last_valid_time():
    # dY = Y^2 dX with X_t = 4t blows up before t = 1
    X = _line(2**10 + 1)
    strong = SampledPath(X.times, 4.0 * X.values)
    with pytest.raises(BlowUpError) as info:
        solve_yde(get_field("square", dim=1), strong, 2.0)
    assert 0.0 < info.value.last_valid_time < 1.0


def test_flow_map_freezes_dead_points():
    X = _line(2**10 + 1)
    strong = SampledPath(X.times, 4.0 * X.values)
    flow = solve_flow(get_field("square", dim=1), strong, [[2.0], [-1.0]])
    # the positive point dies, the negative one survives to the horizon
    assert flow.alive_until[0] < 1.0
    assert flow.alive_until[1] == 1.0
    i_dead = strong.index_of(flow.alive_until[0])
    frozen = flow.states[i_dead, 0]
    assert np.array_equal(flow.states[-1, 0], frozen)
    assert np.isfinite(flow.states).all()


def test_self_convergence_under_dyadic_refinement():
    X = gen_fbm(FbmSpec(hurst=0.8, n_points=2**12 + 1, seed=3))
    field = get_field("square", dim=1)
    ref = solve_yde(field, X, 0.4)
    errs = []
    for step in (16, 8, 4, 2):
        Y = solve_yde(field, X.subsample(step), 0.4)
        errs.append(np.max(np.abs(Y.values[:, 0] - ref.values[::step, 0])))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(r > 1.3 for r in ratios)
