"""Driver generators: exact-covariance fBm and the deterministic families."""

import warnings

import numpy as np
import pytest

from youngflow import (
    DeterministicSpec,
    FbmSpec,
    PathError,
    ResourceError,
    gen_deterministic,
    gen_fbm,
    holder_norm,
    p_variation_norm,
)
from youngflow.drivers import (
    DEFAULT_MAX_POINTS,
    GenerationError,
    circulant_eigenvalues,
    fbm_increment_covariance,
    fbm_value_covariance,
    fgn_autocovariance,
)


def test_fbm_starts_at_zero_on_uniform_grid():
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=33, horizon=2.0, seed=1))
    assert X.values[0, 0] == 0.0
    assert np.allclose(np.diff(X.times), 2.0 / 32)
    assert X.n_points == 33


def test_fbm_seed_reproducibility():
    spec = FbmSpec(hurst=0.8, n_points=129, seed=42)
    a, b = gen_fbm(spec), gen_fbm(spec)
    assert np.array_equal(a.values, b.values)
    c = gen_fbm(FbmSpec(hurst=0.8, n_points=129, seed=43))
    assert not np.array_equal(a.values, c.values)


def test_fbm_spec_validation():
    with pytest.raises(PathError):
        FbmSpec(hurst=0.5, n_points=16)
    with pytest.raises(PathError):
        FbmSpec(hurst=1.0, n_points=16)
    with pytest.raises(PathError):
        FbmSpec(hurst=0.75, n_points=1)
    with pytest.raises(PathError):
        FbmSpec(hurst=0.75, n_points=16, horizon=0.0)
    with pytest.raises(PathError):
        FbmSpec(hurst=0.75, n_points=16, seed=-1)
    with pytest.raises(PathError):
        FbmSpec(hurst=0.75, n_points=16, max_points=0)


def test_fbm_size_cap():
    # the default cap admits a 2^20-interval dyadic grid and nothing larger
    assert DEFAULT_MAX_POINTS == 2**20 + 1
    with pytest.raises(ResourceError):
        gen_fbm(FbmSpec(hurst=0.75, n_points=DEFAULT_MAX_POINTS + 1))
    # the cap can be set explicitly
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=40, max_points=40))
    assert X.n_points == 40
    with pytest.raises(ResourceError):
        gen_fbm(FbmSpec(hurst=0.75, n_points=41, max_points=40))


@pytest.mark.parametrize("hurst", [0.51, 0.75, 0.99])
def test_embedding_covariance_matches_dense_oracle(hurst):
    # the circulant embedding's Toeplitz block is the increment covariance
    n, horizon = 257, 2.0
    times = np.linspace(0.0, horizon, n)
    gamma = fgn_autocovariance(n - 2, hurst) * (horizon / (n - 1)) ** (2 * hurst)
    lag = np.abs(np.subtract.outer(np.arange(n - 1), np.arange(n - 1)))
    dense = fbm_increment_covariance(times, hurst)
    assert np.max(np.abs(gamma[lag] - dense)) <= 1e-13


def test_embedding_nonnegative_at_high_hurst():
    # the naive second difference of k^2H gives an eigenvalue near -0.2 here
    lam = circulant_eigenvalues(fgn_autocovariance(2**20, 0.99))
    assert lam.size == 2**21
    assert lam.min() >= 0.0


def test_non_psd_embedding_raises():
    # |gamma(1)| > gamma(0) is no autocovariance: eigenvalues 3 and -1
    with pytest.raises(GenerationError):
        circulant_eigenvalues(np.array([1.0, 2.0]))


def test_gen_fbm_emits_no_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for hurst in (0.51, 0.99):
            for n in (2, 3, 1025):
                assert gen_fbm(FbmSpec(hurst=hurst, n_points=n, seed=3)).n_points == n


def test_increment_covariance_matches_value_form():
    times = np.linspace(0.0, 1.0, 9)
    cov = fbm_increment_covariance(times, 0.7)
    # diagonal of the increment covariance is the stationary increment
    # variance |dt|^2H
    assert np.allclose(np.diag(cov), np.diff(times)[0] ** 1.4)
    assert np.allclose(cov, cov.T)
    s = np.array(0.3)
    t = np.array(0.3)
    assert fbm_value_covariance(s, t, 0.7) == pytest.approx(0.3**1.4)


def test_fbm_monte_carlo_covariance():
    # empirical second moments over a fixed bank of seeds against
    # R(s, t) = (s^2H + t^2H - |t-s|^2H) / 2, within 3 standard errors
    H, n, N = 0.75, 64, 5000
    i1, i2 = 16, 48
    cross = np.empty(N)
    var = np.empty(N)
    for seed in range(N):
        v = gen_fbm(FbmSpec(hurst=H, n_points=n, seed=seed)).values[:, 0]
        cross[seed] = v[i1] * v[i2]
        var[seed] = v[i2] ** 2
    t = np.linspace(0.0, 1.0, n)
    for samples, target in (
        (cross, fbm_value_covariance(np.array(t[i1]), np.array(t[i2]), H)),
        (var, fbm_value_covariance(np.array(t[i2]), np.array(t[i2]), H)),
    ):
        se = samples.std(ddof=1) / np.sqrt(N)
        assert abs(samples.mean() - float(target)) <= 3.0 * se


def test_fbm_holder_norms_split_at_hurst():
    # On dyadic subsamples of one fine path the alpha-Holder constant
    # should stay bounded for alpha < H and grow for alpha > H. Sampling
    # noise leaves stragglers, so assert a majority over a fixed seed bank.
    H, seeds = 0.75, range(20)
    below, above = [], []
    for seed in seeds:
        X = gen_fbm(FbmSpec(hurst=H, n_points=2**12 + 1, seed=seed))
        coarse, fine = X.subsample(16), X
        below.append(holder_norm(fine, 0.7) / holder_norm(coarse, 0.7))
        above.append(holder_norm(fine, 0.8) / holder_norm(coarse, 0.8))
    below, above = np.array(below), np.array(above)
    assert (below < 1.3).sum() >= 14
    assert (above > 1.18).sum() >= 14
    assert np.median(above) > np.median(below)


def test_fbm_p_variation_threshold():
    # p above 1/H: the p-variation proxy stabilizes under refinement;
    # p = 1: the length keeps growing.
    H = 0.75
    p_star = 1.0 / H + 0.1
    for seed in range(100, 105):
        X = gen_fbm(FbmSpec(hurst=H, n_points=2**11 + 1, seed=seed))
        vals = [p_variation_norm(X.subsample(s), p_star) for s in (8, 4, 2, 1)]
        for a, b in zip(vals, vals[1:]):
            assert 0.8 <= b / a <= 1.25
        length = [p_variation_norm(X.subsample(s), 1.0) for s in (8, 1)]
        assert length[1] / length[0] >= 1.35


# ------------------------------------------------------------ deterministic


def test_linear_driver():
    X = gen_deterministic(DeterministicSpec(kind="linear", n_points=3))
    assert np.array_equal(X.values[:, 0], [0.0, 0.5, 1.0])


def test_power_driver():
    X = gen_deterministic(DeterministicSpec(kind="power", n_points=5, alpha=2.0))
    assert X.values[2, 0] == pytest.approx(0.25)
    assert np.allclose(X.values[:, 0], X.times**2)


def test_sine_driver():
    spec = DeterministicSpec(kind="sine", n_points=9, amplitude=0.0)
    assert np.all(gen_deterministic(spec).values == 0.0)
    spec = DeterministicSpec(kind="sine", n_points=5, amplitude=2.0, frequency=0.25)
    X = gen_deterministic(spec)
    # quarter-period sine: 2 sin(pi t / 2)
    assert np.allclose(X.values[:, 0], 2.0 * np.sin(0.5 * np.pi * X.times))


def test_polygonal_driver():
    spec = DeterministicSpec(kind="polygonal", n_points=9, vertices=(0.0, 1.0, 0.0))
    X = gen_deterministic(spec)
    assert X.values[4, 0] == pytest.approx(1.0)
    assert X.values[2, 0] == pytest.approx(0.5)
    assert X.values[-1, 0] == 0.0
    # multi-channel vertices give a vector path
    spec2 = DeterministicSpec(
        kind="polygonal", n_points=5, vertices=((0.0, 0.0), (1.0, -1.0))
    )
    X2 = gen_deterministic(spec2)
    assert X2.dim == 2
    assert np.allclose(X2.values[:, 1], -X2.times)


def test_deterministic_validation():
    with pytest.raises(PathError):
        DeterministicSpec(kind="brownian", n_points=8)
    with pytest.raises(PathError):
        DeterministicSpec(kind="power", n_points=8, alpha=0.0)
    with pytest.raises(PathError):
        DeterministicSpec(kind="polygonal", n_points=8, vertices=(1.0,))

