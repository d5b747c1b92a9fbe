"""Tagged sums, the deviation certificate, and indefinite integrals."""

import numpy as np
import pytest

from youngflow import (
    FbmSpec,
    PathError,
    SampledPath,
    YoungConditionError,
    gen_fbm,
    indefinite_integral,
    p_variation,
    young_integral,
    young_loeve_bound,
)


def _op(values):
    """Wrap (n, m, k) matrix samples as an operator path on unit times."""
    values = np.asarray(values, dtype=float)
    return SampledPath(np.arange(values.shape[0], dtype=float), values)


def test_identity_integrand_telescopes():
    times = np.linspace(0, 1, 9)
    X = SampledPath(times, np.column_stack([np.sin(times), np.cos(times)]))
    Z = SampledPath(times, np.broadcast_to(np.eye(2), (9, 2, 2)).copy())
    res = young_integral(Z, X)
    assert np.allclose(res.value, X.values[-1] - X.values[0], atol=1e-15)


def test_left_riemann_sum_frozen_value():
    # Z_r = r against X_r = r, 16 intervals: sum i/16 * 1/16 = 15/32
    times = np.linspace(0, 1, 17)
    Z = SampledPath(times, times)
    res = young_integral(Z, Z, tag="left")
    assert float(res.value[0]) == 0.46875
    assert res.partition_mesh == pytest.approx(1 / 16)


def test_tags_differ_then_agree_under_refinement():
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=2**10 + 1, seed=11))
    gaps = []
    for step in (8, 4, 2, 1):
        Xk = X.subsample(step)
        left = young_integral(Xk, Xk, tag="left").value[0]
        mid = young_integral(Xk, Xk, tag="midpoint-time").value[0]
        gaps.append(abs(left - mid))
    for a, b in zip(gaps, gaps[1:]):
        assert b <= 1.1 * a
    assert gaps[-1] < gaps[0]


def test_right_tag_on_monotone_grid():
    times = np.linspace(0, 1, 5)
    Z = SampledPath(times, times)
    left = young_integral(Z, Z, tag="left").value[0]
    right = young_integral(Z, Z, tag="right").value[0]
    # sum t_{i+1} dt - sum t_i dt = sum dt^2
    assert right - left == pytest.approx(np.sum(np.diff(times) ** 2), rel=1e-14)


def test_unknown_tag_rejected():
    Z = SampledPath([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(PathError):
        young_integral(Z, Z, tag="center")


def test_grid_mismatch_rejected():
    Z = SampledPath([0.0, 0.5, 1.0], [0.0, 1.0, 2.0])
    X = SampledPath([0.0, 0.4, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(PathError):
        young_integral(Z, X)


def test_operator_shape_mismatch_rejected():
    times = np.arange(3, dtype=float)
    Z = _op(np.zeros((3, 2, 3)))
    X = SampledPath(times, np.zeros((3, 2)))
    with pytest.raises(PathError):
        young_integral(Z, X)


def test_vector_against_vector_needs_operator():
    times = np.arange(3, dtype=float)
    Z = SampledPath(times, np.ones((3, 2)))
    X = SampledPath(times, np.ones((3, 2)))
    with pytest.raises(PathError):
        young_integral(Z, X)


def test_linearity_to_machine_precision():
    rng = np.random.default_rng(5)
    times = np.linspace(0, 1, 33)
    X = SampledPath(times, rng.standard_normal((33, 2)))
    Z1 = SampledPath(times, rng.standard_normal((33, 2, 2)))
    Z2 = SampledPath(times, rng.standard_normal((33, 2, 2)))
    a, b = 2.5, -1.25
    combo = SampledPath(times, a * Z1.values + b * Z2.values)
    lhs = young_integral(combo, X).value
    rhs = a * young_integral(Z1, X).value + b * young_integral(Z2, X).value
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_interval_additivity():
    rng = np.random.default_rng(7)
    times = np.linspace(0, 1, 65)
    X = SampledPath(times, np.cumsum(rng.standard_normal(65)))
    whole = young_integral(X, X, interval=(0.0, 1.0)).value
    left = young_integral(X, X, interval=(0.0, 0.5)).value
    right = young_integral(X, X, interval=(0.5, 1.0)).value
    assert np.allclose(left + right, whole, atol=1e-12 * max(1, abs(whole[0])))


# ----------------------------------------------------------- certificates


def test_constant_theta_two():
    assert young_loeve_bound(
        SampledPath([0, 1], [0, 1]), SampledPath([0, 1], [0, 1]), 1.0, 1.0
    ) == pytest.approx(2.0)


def test_constant_integrand_gives_zero_bound():
    times = np.linspace(0, 1, 9)
    Z = SampledPath(times, np.full(9, 3.0))
    X = SampledPath(times, np.sin(times))
    assert young_loeve_bound(Z, X, 1.5, 1.5) == 0.0


def test_linear_case_satisfies_bound():
    times = np.linspace(0, 1, 33)
    Z = SampledPath(times, times)
    res = young_integral(Z, Z, p=1.0, q=1.0)
    dev = abs(float(res.value[0]) - times[0] * (times[-1] - times[0]))
    assert dev <= res.certified_bound
    assert res.certified_bound == pytest.approx(2.0)


def test_self_bound_runs_one_dp_and_is_bitwise(monkeypatch):
    import youngflow.integrate as integrate

    calls = []

    def counted(*args):
        calls.append(args)
        return p_variation(*args)

    monkeypatch.setattr(integrate, "p_variation", counted)
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=257, seed=2))
    p = 1.0 / 0.7
    c = 1.0 / (1.0 - 2.0 ** (1.0 - 2.0 / p))
    for interval in (None, (X.times[32], X.times[200])):
        v = p_variation(X, p, interval).value
        calls.clear()
        assert young_loeve_bound(X, X, p, p, interval) == c * v * v
        assert len(calls) == 1
        # an equal copy shares the DP; unequal exponents or values do not
        young_loeve_bound(X, SampledPath(X.times.copy(), X.values.copy()), p, p, interval)
        young_loeve_bound(X, X, p, 1.5, interval)
        young_loeve_bound(X, SampledPath(X.times, 2.0 * X.values), p, p, interval)
        assert len(calls) == 6


def test_young_condition_enforced():
    Z = SampledPath([0, 1], [0, 1])
    with pytest.raises(YoungConditionError):
        young_loeve_bound(Z, Z, 2.5, 2.5)
    with pytest.raises(PathError):
        young_loeve_bound(Z, Z, 0.5, 1.0)


def test_certificate_on_random_subintervals():
    p = q = 1.0 / 0.7
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=257, seed=3))
    rng = np.random.default_rng(0)
    for _ in range(25):
        i0 = int(rng.integers(0, 255))
        i1 = int(rng.integers(i0 + 1, 257))
        span = (float(X.times[i0]), float(X.times[i1]))
        res = young_integral(X, X, interval=span, p=p, q=q)
        first = X.values[i0, 0] * (X.values[i1, 0] - X.values[i0, 0])
        assert abs(float(res.value[0]) - first) <= res.certified_bound


# ---------------------------------------------------- indefinite integral


def test_indefinite_identity_recovers_path():
    times = np.linspace(0, 1, 17)
    X = SampledPath(times, np.column_stack([times**2, np.cos(times)]))
    Z = SampledPath(times, np.broadcast_to(np.eye(2), (17, 2, 2)).copy())
    W = indefinite_integral(Z, X)
    assert np.allclose(W.values, X.values - X.values[0], atol=1e-14)
    assert np.array_equal(W.values[0], [0.0, 0.0])


def test_indefinite_zero_integrand():
    times = np.linspace(0, 1, 9)
    Z = SampledPath(times, np.zeros((9, 1, 1)))
    X = SampledPath(times, np.sin(times))
    W = indefinite_integral(Z, X)
    assert np.all(W.values == 0.0)


def test_indefinite_increments_match_interval_integrals():
    rng = np.random.default_rng(2)
    times = np.linspace(0, 1, 33)
    X = SampledPath(times, np.cumsum(rng.standard_normal(33)))
    W = indefinite_integral(X, X)
    for i0, i1 in ((0, 32), (4, 20), (8, 9)):
        span = (float(times[i0]), float(times[i1]))
        seg = young_integral(X, X, interval=span).value
        assert np.allclose(W.values[i1] - W.values[i0], seg, atol=1e-12)


def test_indefinite_variation_bound_under_refinement():
    # grid version of the growth bound:
    # ||W||_p <= (sup|Z| + C_{p,q} ||Z||_q) ||X||_p
    p = q = 1.0 / 0.7
    theta = 1.0 / p + 1.0 / q
    C = 1.0 / (1.0 - 2.0 ** (1.0 - theta))
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=513, seed=9))
    for step in (4, 2, 1):
        Xk = X.subsample(step)
        W = indefinite_integral(Xk, Xk)
        vw = p_variation(W, p).value
        vx = p_variation(Xk, p).value
        vz = p_variation(Xk, q).value
        assert vw <= (Xk.sup_norm() + C * vz) * vx * (1 + 1e-12)
