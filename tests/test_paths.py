"""Path container, p-variation DP, and grid surgery."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from youngflow import (
    FbmSpec,
    Partition,
    PathError,
    SampledPath,
    gen_fbm,
    holder_norm,
    p_variation,
    p_variation_norm,
)
from youngflow import paths

B = paths._BLOCK


def enum_p_variation(X, p):
    """Independent oracle: exhaustive max over all 2^(n-2) vertex subsets.

    The per-pair increment kernel (vectorized norm along axis 1) and the
    left-to-right accumulation match the DP exactly, so agreement is
    required bitwise, not just approximately. (The 1-d norm would differ
    in the last ulp: BLAS nrm2 scales, the axis reduction does not.)
    """
    vals = X.values.reshape(X.n_points, -1)
    n = vals.shape[0]
    D = np.zeros((n, n))
    for j in range(1, n):
        D[:j, j] = np.linalg.norm(vals[j] - vals[:j], axis=1) ** p
    best = -np.inf
    for r in range(n - 1):
        for mids in itertools.combinations(range(1, n - 1), r):
            idx = (0,) + mids + (n - 1,)
            tot = 0.0
            for a, b in zip(idx[:-1], idx[1:]):
                tot = tot + D[a, b]
            if tot > best:
                best = tot
    return best ** (1.0 / p)


def plain_dp(vals, p):
    """Reference: the unpruned O(n^2) DP over every start point."""
    n = vals.shape[0]
    best = np.zeros(n)
    prev = np.zeros(n, dtype=int)
    for j in range(1, n):
        cand = best[:j] + np.linalg.norm(vals[j] - vals[:j], axis=1) ** p
        i = int(np.argmax(cand))
        best[j] = cand[i]
        prev[j] = i
    return best, prev


def assert_matches_plain_dp(X, p, interval=None):
    """best, prev, value and partition of p_variation equal the plain DP's."""
    i0, i1 = paths._interval_indices(X, interval)
    vals = X.values[i0 : i1 + 1].reshape(i1 - i0 + 1, -1)
    best, prev = plain_dp(vals, p)
    got_best, got_prev = paths._pruned_dp(vals, p)
    assert np.array_equal(got_best, best)
    assert np.array_equal(got_prev, prev)
    idx = [vals.shape[0] - 1]
    while idx[-1] != 0:
        idx.append(int(prev[idx[-1]]))
    res = p_variation(X, p, interval)
    assert res.value == float(best[-1] ** (1.0 / p))
    assert list(res.optimal_partition.indices) == idx[::-1]


def hazard_values(kind, n, shape, rng):
    """Paths whose ties and rounding a pruned DP can get wrong."""
    k = int(np.prod(shape))
    if kind == "walk":
        flat = np.cumsum(rng.normal(size=(n, k)), axis=0)
    elif kind == "steps":  # integer steps, mostly plateaus
        moves = rng.integers(-2, 3, size=(n, k)) * (rng.random((n, 1)) < 0.3)
        flat = np.cumsum(moves, axis=0).astype(float)
    elif kind == "sawtooth":
        flat = np.repeat((np.arange(n) % 2)[:, None], k, axis=1).astype(float)
    else:  # ramp
        flat = np.repeat(np.arange(n)[:, None] * 0.1, k, axis=1)
    return flat.reshape((n,) + shape)


# ---------------------------------------------------------------- container


def test_rejects_bad_grids():
    with pytest.raises(PathError):
        SampledPath([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(PathError):
        SampledPath([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(PathError):
        SampledPath([0.0], [1.0])
    with pytest.raises(PathError):
        SampledPath([0.0, 1.0], [0.0, np.nan])
    with pytest.raises(PathError):
        SampledPath([0.0, np.inf], [0.0, 1.0])


def test_scalar_values_stored_as_column():
    X = SampledPath([0.0, 1.0], [2.0, 3.0])
    assert X.values.shape == (2, 1)
    assert X.dim == 1 and not X.is_operator


def test_values_are_frozen():
    X = SampledPath([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        X.values[0, 0] = 5.0


def test_index_of_rejects_off_grid():
    X = SampledPath([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert X.index_of(0.5) == 1
    with pytest.raises(PathError):
        X.index_of(0.3)


# ------------------------------------------------------------- p-variation


def test_monotone_path_meets_frozen_value():
    # X_t = t on five points, p = 1.5: optimum is the two-endpoint partition
    X = SampledPath(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
    res = p_variation(X, 1.5)
    assert res.value == 1.0
    assert list(res.optimal_partition.indices) == [0, 4]


def test_constant_path_has_zero_variation():
    X = SampledPath([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])
    assert p_variation(X, 1.0).value == 0.0
    assert p_variation(X, 2.0).value == 0.0


def test_zigzag_meets_frozen_value():
    # values 0, 1, 0: at p = 2 keeping the middle point wins, sqrt(1 + 1)
    X = SampledPath([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    res = p_variation(X, 2.0)
    assert res.value == pytest.approx(np.sqrt(2.0), rel=0, abs=0)
    assert list(res.optimal_partition.indices) == [0, 1, 2]


def test_p_below_one_rejected():
    X = SampledPath([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(PathError):
        p_variation(X, 0.9)


def test_interval_endpoints_must_be_on_grid():
    X = SampledPath([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    with pytest.raises(PathError):
        p_variation(X, 1.5, interval=(0.1, 1.0))
    sub = p_variation(X, 1.5, interval=(0.5, 1.0))
    assert sub.value == 1.0


def test_p_variation_norm_frozen_values():
    lin = SampledPath(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
    assert p_variation_norm(lin, 1.0) == 2.0
    const = SampledPath([0.0, 1.0], [[3.0, 4.0], [3.0, 4.0]])
    assert p_variation_norm(const, 1.5) == 5.0
    zig = SampledPath([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert p_variation_norm(zig, 2.0) == pytest.approx(np.sqrt(2.0) + 1.0, rel=1e-15)


def test_holder_norm_frozen_values():
    lin = SampledPath(np.linspace(0, 1, 9), np.linspace(0, 1, 9))
    assert holder_norm(lin, 1.0) == pytest.approx(1.0, rel=1e-15)
    const = SampledPath([0.0, 1.0], [2.0, 2.0])
    assert holder_norm(const, 0.5) == 0.0
    pair = SampledPath([0.0, 1.0], [0.0, 1.0])
    assert holder_norm(pair, 0.5) == 1.0
    with pytest.raises(PathError):
        holder_norm(pair, 1.5)
    with pytest.raises(PathError):
        holder_norm(pair, 0.0)


def loop_holder_norm(X, alpha, interval=None):
    """Reference: the plain loop, one vectorised row per start point."""
    i0, i1 = paths._interval_indices(X, interval)
    times = X.times[i0 : i1 + 1]
    vals = X.values[i0 : i1 + 1].reshape(i1 - i0 + 1, -1)
    out = 0.0
    for i in range(vals.shape[0] - 1):
        d = np.linalg.norm(vals[i + 1 :] - vals[i], axis=1)
        out = max(out, float(np.max(d / (times[i + 1 :] - times[i]) ** alpha)))
    return out


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("shape", [(1,), (2,), (3, 3)], ids=["1d", "2d", "op3x3"])
@pytest.mark.parametrize("n", [2, B - 1, B, B + 1, 3 * B + 1, 300])
def test_blocked_holder_norm_matches_the_loop_bitwise(n, shape, alpha):
    rng = np.random.default_rng([n, len(shape), int(alpha * 10)])
    times = np.cumsum(rng.uniform(0.01, 1.0, n))  # an uneven grid
    for kind in ("walk", "steps", "sawtooth", "ramp"):
        X = SampledPath(times, hazard_values(kind, n, shape, rng))
        assert holder_norm(X, alpha) == loop_holder_norm(X, alpha)
        if n > 10:
            span = (float(times[3]), float(times[n - 5]))
            assert holder_norm(X, alpha, span) == loop_holder_norm(X, alpha, span)


@pytest.mark.parametrize("alpha", [0.1, 0.75, 1.0])
def test_blocked_holder_norm_at_extreme_scales_matches_the_loop(alpha):
    # increments that overflow to inf, subnormal squares and ratios, and
    # time steps whose powers are tiny or huge
    rng = np.random.default_rng(int(alpha * 100))
    n = 3 * B + 1
    for tscale in (1e-200, 1.0, 1e200):
        times = tscale * np.cumsum(rng.uniform(0.5, 1.0, n))
        for shape in [(1,), (2,)]:
            scale = rng.choice([1e300, 1e130, 1.0, 1e-150, 1e-160], size=(n, 1))
            vals = scale * rng.choice([-1.0, -0.5, 0.0, 1.0], size=(n,) + shape)
            with np.errstate(over="ignore", under="ignore"):
                X = SampledPath(times, vals)
                assert holder_norm(X, alpha) == loop_holder_norm(X, alpha)
                tiny = SampledPath(times, 1e-160 * hazard_values("steps", n, shape, rng))
                assert holder_norm(tiny, alpha) == loop_holder_norm(tiny, alpha)


@pytest.mark.parametrize("alpha", [0.7, 0.8])
def test_blocked_holder_norm_on_fbm_matches_the_loop(alpha):
    # a rough path: most block pairs are skipped by their bound
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=2**12 + 1, seed=2))
    assert holder_norm(X, alpha) == loop_holder_norm(X, alpha)


# ---------------------------------------------- pruned DP against plain DP


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 3.0, 40.0])
@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (3, 3)], ids=["1d", "2d", "3d", "op3x3"])
@pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B + 1, 300])
def test_pruned_dp_matches_plain_dp_bitwise(n, shape, p):
    rng = np.random.default_rng([n, len(shape), shape[0], int(p * 10)])
    for kind in ("walk", "steps", "sawtooth", "ramp"):
        vals = hazard_values(kind, n, shape, rng)
        assert_matches_plain_dp(SampledPath(np.arange(n, dtype=float), vals), p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.06, 3.0, 40.0])
def test_pruned_dp_at_extreme_scales_matches_plain_dp(p):
    # near 1e300 the squared norm overflows; near 1e130 (p = 3) and 1e10
    # (p = 40) the norm is finite and its p-th power overflows to inf;
    # near 1e-150 and 1e-160 powers and squares fall into the subnormals
    rng = np.random.default_rng(int(p * 100))
    n = 3 * B + 1
    for shape in [(1,), (2,)]:
        scale = rng.choice([1e300, 1e130, 1e10, 1.0, 1e-150, 1e-160], size=(n, 1))
        vals = scale * rng.choice([-1.0, -0.5, 0.0, 1.0], size=(n,) + shape)
        vals[:B] = rng.normal(size=(B,) + shape)  # finite candidates first
        with np.errstate(over="ignore", under="ignore"):
            assert_matches_plain_dp(SampledPath(np.arange(n, dtype=float), vals), p)
        tiny = 1e-150 * hazard_values("steps", n, shape, rng)
        with np.errstate(under="ignore"):
            assert_matches_plain_dp(SampledPath(np.arange(n, dtype=float), tiny), p)


@pytest.mark.parametrize("p, d", [(2.1, 5.044396607462646e-148),
                                  (2.5, 5.426626893073699e-125),
                                  (3.0, 5.259035914923343e-104),
                                  (4.0, 3.3638428255913847e-78)])
def test_pruned_dp_bound_holds_for_subnormal_powers(p, d):
    # d^p is subnormal; found by search, sqrt(d*d)**p rounds one subnormal
    # step above (d*d)**(p/2) even after the relative slack, so only the
    # bound's absolute floor keeps the zero blocks (numpy 2.4, AVX-512)
    vals = np.zeros(2 * B + 1)
    vals[-1] = d
    with np.errstate(under="ignore"):
        assert_matches_plain_dp(SampledPath(np.arange(2 * B + 1, dtype=float), vals), p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_pruned_dp_on_sub_intervals_matches_plain_dp(p):
    rng = np.random.default_rng(7)
    n = 5 * B + 3
    times = np.arange(n, dtype=float)
    for kind in ("walk", "steps"):
        X = SampledPath(times, hazard_values(kind, n, (2,), rng))
        for s, t in [(1, n - 2), (B, 3 * B), (B - 1, 4 * B + 1), (17, 17 + B)]:
            assert_matches_plain_dp(X, p, interval=(times[s], times[t]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2 * B, max_value=6 * B), st.integers(0, 2**32 - 1),
       st.sampled_from(["fbm", "steps"]), st.sampled_from([(1,), (2,), (2, 2)]),
       st.floats(min_value=1.0, max_value=3.0), st.floats(min_value=0.55, max_value=0.95))
def test_pruned_dp_matches_plain_dp_on_random_paths(n, seed, kind, shape, p, hurst):
    k = int(np.prod(shape))
    if kind == "fbm":
        flat = np.stack([gen_fbm(FbmSpec(hurst=hurst, n_points=n, seed=seed + c)).values[:, 0]
                         for c in range(k)], axis=1)
        vals = flat.reshape((n,) + shape)
    else:
        vals = hazard_values("steps", n, shape, np.random.default_rng(seed))
    assert_matches_plain_dp(SampledPath(np.arange(n, dtype=float), vals), p)


def test_pruning_skips_most_pairs_on_fbm(monkeypatch):
    # exactness alone would also hold for a DP that never prunes
    X = gen_fbm(FbmSpec(hurst=0.75, n_points=64 * B + 1, seed=3))
    pairs = []
    real = paths._powers

    def counted(vals, rows, cols, p):
        pairs.append(len(rows) * len(cols))
        return real(vals, rows, cols, p)

    monkeypatch.setattr(paths, "_powers", counted)
    p_variation(X, 1.5)
    n = X.n_points
    assert sum(pairs) < 0.3 * n * (n - 1) / 2


def test_all_ties_prune_nothing_in_bounded_memory():
    # a ramp at p = 1: every start point ties, no block can be skipped
    n = 2**15 + 1
    X = SampledPath(np.arange(n, dtype=float), np.arange(n, dtype=float))
    tracemalloc.start()
    try:
        res = p_variation(X, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value == n - 1.0
    assert list(res.optimal_partition.indices) == [0, n - 1]
    assert peak < 32 * 2**20


# ------------------------------------------------------------ grid surgery


def test_refine_inserts_midpoints():
    X = SampledPath([0.0, 1.0], [1.0, 3.0])
    R = X.refine(2)
    assert np.array_equal(R.times, [0.0, 0.5, 1.0])
    assert R.values[1, 0] == 2.0  # average of the endpoints


def test_restrict_full_span_is_identity():
    X = SampledPath([0.0, 0.5, 1.0], [0.0, 1.0, 0.5])
    R = X.restrict(0.0, 1.0)
    assert np.array_equal(R.times, X.times)
    assert np.array_equal(R.values, X.values)


def test_refine_preserves_monotone_p_variation():
    X = SampledPath(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
    for k in (2, 3, 5):
        for p in (1.0, 1.5, 2.0):
            assert p_variation(X.refine(k), p).value == p_variation(X, p).value


def test_partition_validation():
    with pytest.raises(PathError):
        Partition([0, 0, 2])
    with pytest.raises(PathError):
        Partition([3])
    assert Partition([0, 2, 5]).n_intervals == 2


# ------------------------------------------------------------- properties

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, width=32)


def _path(draw, n, d):
    vals = draw(
        st.lists(
            st.tuples(*([finite] * d)), min_size=n, max_size=n
        )
    )
    times = np.arange(n, dtype=float)
    return SampledPath(times, np.asarray(vals, dtype=float))


@st.composite
def small_paths(draw, max_n=12, max_d=3):
    n = draw(st.integers(min_value=2, max_value=max_n))
    d = draw(st.integers(min_value=1, max_value=max_d))
    return _path(draw, n, d)


@settings(max_examples=120, deadline=None)
@given(small_paths())
def test_dp_matches_enumeration_bitwise(X):
    for p in (1.0, 1.5, 2.0):
        assert p_variation(X, p).value == enum_p_variation(X, p)


@settings(max_examples=80, deadline=None)
@given(small_paths(), st.floats(min_value=1.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=2.0))
def test_variation_decreases_in_p(X, p, bump):
    q = p + bump
    vp = p_variation(X, p).value
    vq = p_variation(X, q).value
    assert vq <= vp * (1 + 1e-12) + 1e-12


@settings(max_examples=80, deadline=None)
@given(small_paths(max_n=9), st.floats(min_value=1.0, max_value=2.5))
def test_superadditivity_at_grid_point(X, p):
    if X.n_points < 3:
        return
    b = float(X.times[X.n_points // 2])
    left = p_variation(X, p, interval=(X.times[0], b)).value
    right = p_variation(X, p, interval=(b, X.times[-1])).value
    whole = p_variation(X, p).value
    assert left**p + right**p <= whole**p * (1 + 1e-12) + 1e-12


@settings(max_examples=60, deadline=None)
@given(small_paths(), st.floats(min_value=0.55, max_value=1.0))
def test_hoelder_embedding(X, alpha):
    h = holder_norm(X, alpha)
    v = p_variation(X, 1.0 / alpha).value
    assert v <= h * X.duration**alpha * (1 + 1e-10) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10),
       st.floats(min_value=1.01, max_value=3.0))
def test_monotone_scalar_optimum_is_coarsest(n, p):
    vals = np.cumsum(np.abs(np.sin(np.arange(n))) + 0.1)
    X = SampledPath(np.arange(n, dtype=float), vals)
    res = p_variation(X, p)
    assert list(res.optimal_partition.indices) == [0, n - 1]
