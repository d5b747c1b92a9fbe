"""Conserved quantities, symmetry maps, and bracket checks."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from youngflow import (
    FbmSpec,
    FieldSpec,
    PathError,
    SampleDomain,
    check_conserved_algebraic,
    check_conserved_trajectory,
    check_infinitesimal_symmetry,
    check_symmetry_map,
    check_symmetry_trajectory,
    gen_fbm,
    lie_bracket,
    propagate_observable,
)
from youngflow.builtins import get_field, get_observable, get_point_map
from youngflow.fields import ScalarObservable


DOM = SampleDomain(lower=(-1.0, -1.0), upper=(1.0, 1.0), count=256, seed=1)


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


def _first_coordinate():
    return ScalarObservable(
        in_dim=2,
        out_dim=1,
        value=lambda y: y[..., :1],
        jacobian=lambda y: np.broadcast_to(
            np.array([[1.0, 0.0]]), y.shape[:-1] + (1, 2)
        ).copy(),
    )


def test_sample_domain_determinism_and_validation():
    pts = DOM.points()
    assert pts.shape == (256, 2)
    assert np.array_equal(pts, DOM.points())
    assert np.all(pts >= -1.0) and np.all(pts <= 1.0)
    with pytest.raises(PathError):
        SampleDomain(lower=(0.0,), upper=(0.0,)).points()


@pytest.mark.parametrize("dom, message", [
    (SampleDomain(lower=(-1e308, 0.0), upper=(1e308, 1.0)), "finite width"),
    (SampleDomain(lower=(float("nan"),), upper=(1.0,)), "finite width"),
    (SampleDomain(lower=(0.0,), upper=(1.0,), seed=-1), "seed must be a non-negative"),
    (SampleDomain(lower=(0.0,), upper=(1.0,), count=-1), "count must be non-negative"),
], ids=["overflowing-width", "nan", "negative-seed", "negative-count"])
def test_sample_domain_refuses_what_it_cannot_sample(dom, message):
    with np.errstate(all="raise"):  # refused before any arithmetic warns
        with pytest.raises(PathError, match=message):
            dom.points()


def _same_as_numpy(seed, lower, upper, count):
    ref = np.random.default_rng(seed).uniform(lower, upper, (count, len(lower)))
    pts = SampleDomain(lower=tuple(lower), upper=tuple(upper), count=count, seed=seed).points()
    assert pts.shape == ref.shape
    assert np.array_equal(pts.view(np.uint64), ref.view(np.uint64))


def _axis(lo, width):
    return lo, lo + width


# Boxes with lo < hi and a finite width: any two distinct floats up to
# 1e300 apart, widths of 1e-300 near the origin, and widths of 1e300.
AXES = st.one_of(
    st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300))
    .filter(lambda ends: ends[0] != ends[1]).map(sorted),
    st.builds(_axis, st.floats(-1e-290, 1e-290), st.just(1e-300)),
    st.builds(_axis, st.floats(-1e299, 1e299), st.just(1e300)),
)


# numpy documents its bit generators' streams as stable, but not the
# method of Generator.uniform: this is the guard on a new numpy.
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**256), st.lists(AXES, min_size=1, max_size=4), st.integers(1, 300))
@example(0, [(-1.0, 1.0)], 1)
@example(2**32, [(0.0, 1e-300), (-5e299, 5e299), (-1.0, 1.0)], 300)
def test_sample_points_are_numpys_uniform_bitwise(seed, axes, count):
    lower, upper = zip(*axes)
    _same_as_numpy(seed, lower, upper, count)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 9])
def test_sample_points_match_numpy_at_word_boundary_seeds(seed):
    # one, two, three and seven 32-bit words of entropy
    _same_as_numpy(seed, (-1.0, 0.0, 3.0), (1.0, 1e-300, 1e300), 300)


def test_norm_conserved_by_rotation_algebraically():
    rep = check_conserved_algebraic(get_observable("norm2", dim=2), get_field("rotation", dim=2), DOM)
    assert rep.passed
    assert rep.max_residual == 0.0


def test_everything_conserved_by_zero_field():
    rep = check_conserved_algebraic(get_observable("norm2", dim=2), _zero_field(2), DOM)
    assert rep.passed and rep.max_residual == 0.0


def test_coordinate_not_conserved_by_rotation():
    rep = check_conserved_algebraic(_first_coordinate(), get_field("rotation", dim=2), DOM)
    assert not rep.passed
    assert rep.max_residual > 0.1
    assert len(rep.arg_max_point) == 2


def test_multi_column_fields_checked_jointly():
    fields = [get_field("rotation", dim=2), get_field("scaling", dim=2)]
    rep = check_conserved_algebraic(get_observable("norm2", dim=2), fields, DOM)
    # the scaling column breaks conservation even though rotation keeps it
    assert not rep.passed


def test_norm_conserved_along_rotation_trajectories():
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=2**10 + 1, seed=2))
    rep = check_conserved_trajectory(
        get_observable("norm2", dim=2), get_field("rotation", dim=2), X, [0.6, 0.8], levels=4
    )
    assert rep.converged
    assert rep.final_residual < rep.residuals[0]


def test_coordinate_drifts_along_rotation_trajectories():
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=2**9 + 1, seed=2))
    rep = check_conserved_trajectory(
        _first_coordinate(), get_field("rotation", dim=2), X, [0.6, 0.8], levels=3
    )
    assert rep.final_residual > 0.1


def test_propagate_observable_constant_when_conserved():
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=2**9 + 1, seed=4))
    F = get_observable("norm2", dim=2)
    rhs, rep = propagate_observable(F, get_field("rotation", dim=2), X, [0.6, 0.8])
    assert np.allclose(rhs.values, 1.0, atol=1e-12)
    assert rep.converged


def test_propagate_observable_linear_case_is_exact():
    # a linear observable of an Euler solve telescopes bitwise: the
    # lifted integrand reproduces the solver's own update terms
    X = gen_fbm(FbmSpec(hurst=0.8, n_points=2**9 + 1, seed=6))
    F = _first_coordinate()
    _, rep = propagate_observable(F, get_field("scaling", dim=2), X, [0.5, 0.25])
    assert rep.converged
    assert rep.final_residual < 1e-13


def test_propagate_observable_reconstructs_growth():
    X = gen_fbm(FbmSpec(hurst=0.8, n_points=2**11 + 1, seed=6))
    F = ScalarObservable(
        in_dim=2,
        out_dim=1,
        value=lambda y: y[..., :1] ** 2,
        jacobian=lambda y: np.stack(
            [2.0 * y[..., 0], np.zeros(y.shape[:-1])], axis=-1
        )[..., None, :],
    )
    rhs, rep = propagate_observable(F, get_field("scaling", dim=2), X, [0.5, 0.25])
    assert rep.converged
    assert rep.final_residual < rep.residuals[0]
    # reconstruction tracks the continuum value to Euler accuracy: on
    # dF = 2F dX the Euler solve and the left-point sum each miss about
    # F (dX)^2 per step, so the bound scales with the path, not a constant
    exact = (0.5 * np.exp(X.values[:, 0])) ** 2
    err = abs(rhs.values[-1, 0] - exact[-1])
    assert err <= 2.0 * exact.max() * np.sum(X.increments() ** 2)


def test_identity_is_always_a_symmetry():
    phi = get_point_map("scaling", dim=2, params={"factor": 1.0})
    rep = check_symmetry_map(phi, get_field("square", dim=2), DOM)
    assert rep.passed and rep.max_residual == 0.0


def test_rotation_map_commutes_with_rotation_field():
    phi = get_point_map("rotation", dim=2, params={"angle": 0.7})
    rep = check_symmetry_map(phi, get_field("rotation", dim=2), DOM)
    assert rep.passed
    assert rep.max_residual < 1e-14


def test_scaling_map_commutes_with_linear_field():
    A = np.array([[0.3, 1.1], [-0.4, 0.2]])
    f = FieldSpec.autonomous(
        lambda y: (y @ A.T)[..., :, None],
        in_dim=2,
        driver_dim=1,
        jac=lambda y: np.broadcast_to(A[:, None, :], y.shape[:-1] + (2, 1, 2)).copy(),
    )
    rep = check_symmetry_map(get_point_map("scaling", dim=2, params={"factor": 2.0}), f, DOM)
    assert rep.passed and rep.max_residual == 0.0


def test_translation_breaks_rotation_symmetry():
    phi = get_point_map("translation", dim=2, params={"offset": 1.0})
    rep = check_symmetry_map(phi, get_field("rotation", dim=2), DOM)
    assert not rep.passed
    assert rep.max_residual == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_scaling_symmetry_holds_along_trajectories_exactly():
    # doubling is exact in binary arithmetic, so the commuting solves
    # agree bitwise for the linear field
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=257, seed=8))
    rep = check_symmetry_trajectory(
        get_point_map("scaling", dim=2, params={"factor": 2.0}),
        get_field("scaling", dim=2),
        X,
        [0.3, -0.7],
        levels=3,
    )
    assert rep.converged
    assert rep.final_residual == 0.0


def test_translation_fails_along_trajectories():
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=257, seed=8))
    rep = check_symmetry_trajectory(
        get_point_map("translation", dim=2, params={"offset": 1.0}),
        get_field("rotation", dim=2),
        X,
        [0.3, -0.7],
        levels=3,
    )
    assert rep.final_residual > 0.1


def test_lie_bracket_of_field_with_itself_vanishes():
    f = get_field("square", dim=2)
    y = DOM.points()[:8]
    assert np.array_equal(lie_bracket(f, f, y), np.zeros((8, 2)))


def test_lie_bracket_euler_field_commutes_with_linear():
    A = np.array([[0.3, 1.1], [-0.4, 0.2]])
    f = FieldSpec.autonomous(
        lambda y: (y @ A.T)[..., :, None],
        in_dim=2,
        driver_dim=1,
        jac=lambda y: np.broadcast_to(A[:, None, :], y.shape[:-1] + (2, 1, 2)).copy(),
    )
    g = get_field("scaling", dim=2)
    b = lie_bracket(g, f, DOM.points()[:16])
    assert np.max(np.abs(b)) < 1e-14


def test_lie_bracket_constant_against_rotation():
    g = _constant_field([1.0, 0.0])
    f = get_field("rotation", dim=2)
    b = lie_bracket(g, f, np.array([0.2, -0.4]))
    assert np.allclose(b, [0.0, 1.0], atol=1e-15)


def test_lie_bracket_antisymmetry():
    f = get_field("square", dim=2)
    g = get_field("rotation", dim=2)
    y = DOM.points()[:32]
    assert np.array_equal(lie_bracket(g, f, y), -lie_bracket(f, g, y))


def test_lie_bracket_rejects_multi_column_fields():
    from youngflow import as_single_field

    multi = as_single_field([get_field("rotation", dim=2), get_field("scaling", dim=2)])
    with pytest.raises(PathError):
        lie_bracket(multi, get_field("rotation", dim=2), np.zeros(2))


def test_rotation_generates_symmetries_of_scaling_field():
    dom = SampleDomain(lower=(-1.0, -1.0), upper=(1.0, 1.0), count=64, seed=3)
    rep = check_infinitesimal_symmetry(
        get_field("rotation", dim=2),
        get_field("scaling", dim=2),
        dom,
        flow_times=(0.5,),
        flow_steps_per_unit=256,
    )
    assert rep.passed
    assert rep.details["algebraic_max"] < 1e-14
    assert "0.5" in rep.details["flow_checks"]
    assert rep.details["flow_checks"]["0.5"]["pass"]


def test_constant_generator_rejected_for_rotation_field():
    dom = SampleDomain(lower=(-1.0, -1.0), upper=(1.0, 1.0), count=64, seed=3)
    rep = check_infinitesimal_symmetry(
        _constant_field([1.0, 0.0]),
        get_field("rotation", dim=2),
        dom,
        flow_times=(0.25,),
        flow_steps_per_unit=64,
    )
    assert not rep.passed
    assert rep.details["algebraic_max"] == pytest.approx(1.0, rel=1e-12)
