"""Sampled paths on finite time grids, p-variation, grid surgery, and
uniform box grids of points in up to three dimensions.

A path is a finite sequence of values observed at strictly increasing
times. All variation quantities are computed over partitions whose points
are grid vertices; nothing is interpolated unless asked for explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class PathError(ValueError):
    """Invalid path data, or an operation addressed off the sampled grid."""


class NumericFailure(ArithmeticError):
    """A computation on valid input that failed: blow-up, overflow, a fold,
    a size cap, or an iteration that did not converge. The base of every
    numeric error of the package; the CLI maps it to exit 3."""


def _as_frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SampledPath:
    """A path observed on a strictly increasing time grid.

    values has shape (n, d) for vector paths, or (n, m, k) for
    operator-valued paths holding one dense matrix per grid point.
    Scalar input of shape (n,) is stored as (n, 1). Instances are
    immutable; the underlying arrays are write-protected.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if times.ndim != 1:
            raise PathError("times must be one-dimensional")
        if times.size < 2:
            raise PathError("a path needs at least two sample times")
        if not np.all(np.isfinite(times)):
            raise PathError("times must be finite")
        if np.any(np.diff(times) <= 0):
            raise PathError("times must be strictly increasing")
        if values.ndim not in (2, 3):
            raise PathError("values must be (n, d) vectors or (n, m, k) matrices")
        if values.shape[0] != times.size:
            raise PathError("times and values disagree in length")
        if values.shape[1] < 1 or (values.ndim == 3 and values.shape[2] < 1):
            raise PathError("value dimension must be positive")
        if not np.all(np.isfinite(values)):
            raise PathError("values must be finite")
        object.__setattr__(self, "times", _as_frozen(times))
        object.__setattr__(self, "values", _as_frozen(values))

    # -- shape -----------------------------------------------------------

    @property
    def n_points(self) -> int:
        return self.times.size

    @property
    def dim(self) -> int:
        """Leading value dimension (d for vectors, rows for matrices)."""
        return self.values.shape[1]

    @property
    def value_shape(self) -> tuple:
        return self.values.shape[1:]

    @property
    def is_operator(self) -> bool:
        return self.values.ndim == 3

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.times)))

    # -- grid addressing -------------------------------------------------

    def index_of(self, t: float) -> int:
        """Grid index of time t; off-grid times are rejected, not interpolated."""
        i = int(np.searchsorted(self.times, t))
        if i >= self.times.size or self.times[i] != t:
            raise PathError(f"time {t!r} is not a grid point")
        return i

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)

    def sup_norm(self) -> float:
        flat = self.values.reshape(self.n_points, -1)
        return float(np.max(np.linalg.norm(flat, axis=1)))

    def column(self, j: int) -> "SampledPath":
        """Scalar path of the j-th component of a vector path."""
        if self.is_operator:
            raise PathError("column() applies to vector paths")
        return SampledPath(self.times, self.values[:, j : j + 1])

    # -- surgery ---------------------------------------------------------

    def restrict(self, s: float, t: float) -> "SampledPath":
        i0, i1 = self.index_of(s), self.index_of(t)
        if i1 <= i0:
            raise PathError("restrict needs s < t on the grid")
        return SampledPath(self.times[i0 : i1 + 1], self.values[i0 : i1 + 1])

    def refine(self, k: int) -> "SampledPath":
        """Insert k-1 equally spaced points per interval, values linear."""
        if k < 1:
            raise PathError("refinement factor must be >= 1")
        if k == 1:
            return self
        t0, t1 = self.times[:-1], self.times[1:]
        v0, v1 = self.values[:-1], self.values[1:]
        w = np.arange(k, dtype=float) / k
        tt = (t0[:, None] * (1 - w) + t1[:, None] * w).reshape(-1)
        shape_ones = (1,) * (self.values.ndim - 1)
        wv = w.reshape((1, k) + shape_ones)
        vv = (v0[:, None] * (1 - wv) + v1[:, None] * wv).reshape((-1,) + self.value_shape)
        return SampledPath(
            np.concatenate([tt, self.times[-1:]]),
            np.concatenate([vv, self.values[-1:]], axis=0),
        )

    def subsample(self, step: int) -> "SampledPath":
        """Keep every step-th grid point; the interval count must divide."""
        if step < 1 or (self.n_points - 1) % step != 0:
            raise PathError("subsample step must divide the interval count")
        return SampledPath(self.times[::step], self.values[::step])


def dyadic_steps(n_points: int, levels: int) -> list:
    """Subsample strides for a coarse-to-fine dyadic refinement ladder."""
    if levels < 1:
        raise PathError("levels must be >= 1")
    steps = [2 ** (levels - 1 - k) for k in range(levels)]
    if (n_points - 1) % steps[0] != 0:
        raise PathError(
            f"{n_points - 1} intervals cannot be split into {levels} dyadic levels"
        )
    return steps


def dyadic_prefix(path: "SampledPath", levels: int) -> "SampledPath":
    """Longest initial segment usable for a dyadic ladder of this depth.

    Residual checks subsample by exact halving, so the interval count
    must be divisible by 2^(levels-1); grids that are not (e.g. 1024
    points = 1023 intervals) lose at most one coarse block at the end.
    Divisible grids come back unchanged.
    """
    if levels < 1:
        raise PathError("levels must be >= 1")
    block = 2 ** (levels - 1)
    n_int = ((path.n_points - 1) // block) * block
    if n_int < block:
        raise PathError(
            f"{path.n_points - 1} intervals cannot support {levels} dyadic levels"
        )
    if n_int == path.n_points - 1:
        return path
    return SampledPath(path.times[: n_int + 1], path.values[: n_int + 1])


# The deterministic families of drivers.DeterministicSpec, kept here so
# that the CLI parser can offer them to `gen` without importing drivers.
DETERMINISTIC_KINDS = ("linear", "power", "sine", "polygonal")


@dataclass(frozen=True)
class GridBox:
    """Axis-aligned uniform box grid, d <= 3."""

    lower: tuple
    upper: tuple
    counts: tuple

    def __post_init__(self):
        lo, hi, ct = (np.atleast_1d(np.asarray(v)) for v in (self.lower, self.upper, self.counts))
        if not (1 <= lo.size <= 3):
            raise PathError("grid boxes support 1 <= d <= 3")
        if lo.size != hi.size or lo.size != ct.size:
            raise PathError("lower/upper/counts disagree in dimension")
        if np.any(hi <= lo) or np.any(ct.astype(int) < 2):
            raise PathError("need lower < upper and counts >= 2 per axis")
        object.__setattr__(self, "lower", tuple(float(v) for v in lo))
        object.__setattr__(self, "upper", tuple(float(v) for v in hi))
        object.__setattr__(self, "counts", tuple(int(v) for v in ct))
        if not all(math.isfinite(h - l) for l, h in zip(self.lower, self.upper)):
            raise PathError("every axis needs a finite width upper - lower")
        axes = tuple(np.linspace(*spec) for spec in zip(self.lower, self.upper, self.counts))
        for ax in axes:
            ax.flags.writeable = False
        object.__setattr__(self, "_axes", axes)

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.counts))

    def axes(self) -> list:
        return list(self._axes)

    def points(self) -> np.ndarray:
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=-1)


@dataclass(frozen=True)
class Partition:
    """Strictly increasing grid indices including both interval ends."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        if idx.ndim != 1 or idx.size < 2 or np.any(np.diff(idx) <= 0):
            raise PathError("partition indices must be strictly increasing, length >= 2")
        idx = idx.copy()
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    @property
    def n_intervals(self) -> int:
        return self.indices.size - 1


@dataclass(frozen=True)
class VariationResult:
    value: float
    optimal_partition: Partition
    p: float


def _interval_indices(X: SampledPath, interval) -> tuple:
    if interval is None:
        return 0, X.n_points - 1
    s, t = interval
    i0, i1 = X.index_of(s), X.index_of(t)
    if i1 <= i0:
        raise PathError("interval must satisfy s < t on the grid")
    return i0, i1


_BLOCK = 64  # grid points per block, both for endpoints and for start points
# Column chunk of the dense candidate evaluation: it stays in cache, and
# below malloc's 128 KiB mmap threshold its temporaries reuse heap pages
# instead of faulting in fresh ones for every chunk.
_CHUNK_BYTES = 2**16


def _powers(vals, rows, cols, p) -> np.ndarray:
    """||vals[j] - vals[i]||^p for j in rows, i in cols.

    Array arithmetic only: numpy's array pow and axis norm give the same
    bits at any position and array shape, which Python-scalar ** does not,
    so every candidate equals the plain DP's bitwise.
    """
    return np.linalg.norm(vals[rows, None, :] - vals[None, cols, :], axis=-1) ** p


def _settled_winners(vals, best, rows, cols, p) -> tuple:
    """Max and first argmax over cols of each row, in column chunks.

    A chunk holds at least one block of columns, so that wide values
    (operator paths) are not evaluated one column at a time.
    """
    step = max(_BLOCK, _CHUNK_BYTES // (8 * vals.shape[1] * rows.size))
    top = np.full(rows.size, -np.inf)
    arg = np.zeros(rows.size, dtype=int)
    at = np.arange(rows.size)
    for c0 in range(0, cols.size, step):
        chunk = cols[c0 : c0 + step]
        cand = best[chunk] + _powers(vals, rows, chunk, p)
        i = np.argmax(cand, axis=1)
        v = cand[at, i]
        won = v > top  # strict: an equal value in a later chunk is a later index
        top[won] = v[won]
        arg[won] = chunk[i[won]]
    return top, arg


def _pruned_dp(vals: np.ndarray, p: float) -> tuple:
    """best[j] = max_{i<j} best[i] + ||vals[j] - vals[i]||^p, and its first argmax.

    Endpoints j go in blocks of _BLOCK. Start points before the endpoint
    block (settled: their best is final) go in blocks too, each with a
    box. A settled block is skipped when an upper bound of its candidates
    is below a real candidate of every row (the start point a - 1 or its
    own backpointer), so it holds neither the max nor the first argmax.
    The kept blocks are evaluated as one dense matrix; start points inside
    the endpoint block then run one row at a time and win only on a strict
    >, so ties go to the earliest index as in the plain DP.
    """
    n, k = vals.shape
    nblk = -(-n // _BLOCK)
    starts = np.arange(nblk) * _BLOCK
    lo = np.minimum.reduceat(vals, starts, axis=0)
    hi = np.maximum.reduceat(vals, starts, axis=0)
    bmax = np.zeros(nblk)
    # Rounding of the bound best_max + (sum of the far corner's squares)^(p/2),
    # with u = eps/2 the unit roundoff. Coordinate differences round
    # monotonically, so each |vals[j] - vals[i]| is at most the far corner's
    # |vals[j] - lo| or |vals[j] - hi| exactly. A candidate's sum of k squares
    # and the bound's (in another order) are each within k u of exact, and
    # the candidate's sqrt adds u: its norm exceeds the square root of the
    # bound's sum by a factor below 1 + (k + 1) eps, which the power p raises
    # to (1 + (k + 1) eps)^p. The two pow results add up to 4 ulps (4 eps)
    # each, and the candidate's add, the bound's add and the bound's product
    # u each: (1 + 12 eps) covers these 9.5 eps. A fixed tolerance would
    # fail at large p or k. A subnormal result is only within half a
    # subnormal step (up to 4 for pow), so the bound also gets 16 steps.
    eps = np.finfo(float).eps
    slack = (1.0 + (k + 1) * eps) ** p * (1.0 + 12 * eps)
    floor = 16 * np.finfo(float).smallest_subnormal
    best = np.zeros(n)
    prev = np.zeros(n, dtype=int)
    cols = np.zeros(0, dtype=int)
    for m in range(nblk):
        a, b = m * _BLOCK, min((m + 1) * _BLOCK, n)
        rows = np.arange(max(a, 1), b)
        if m:
            seeds = np.array([prev[a - 1], a - 1])
            known = (best[seeds] + _powers(vals, rows, seeds, p)).max(axis=1)
            x = vals[rows, None, :]
            far = np.maximum(np.abs(x - lo[:m]), np.abs(x - hi[:m]))
            bound = (bmax[:m] + np.einsum("rck,rck->rc", far, far) ** (p / 2)) * slack + floor
            # keep unless below for every row; a NaN bound (0 * inf) keeps
            kept = np.flatnonzero(~np.all(bound < known[:, None], axis=0))
            cols = (kept[:, None] * _BLOCK + np.arange(_BLOCK)).ravel()
        best[rows], prev[rows] = _settled_winners(vals, best, rows, cols, p)
        inner = _powers(vals, np.arange(a, b), np.arange(a, b), p)
        for j in range(a + 1, b):
            cand = best[a:j] + inner[j - a, : j - a]
            i = cand.argmax()
            if cand[i] > best[j]:  # strict: a tie keeps the earlier settled index
                best[j], prev[j] = cand[i], a + i
        bmax[m] = best[a:b].max()
    return best, prev


def p_variation(X: SampledPath, p: float, interval=None) -> VariationResult:
    """Exact grid p-variation, (sup over partitions of sum ||dX||^p)^(1/p).

    Dynamic program over grid vertices: V[j] = max_{i<j} V[i] + ||X_j - X_i||^p,
    backpointers recover an optimal partition (ties resolved toward the
    coarsest one). Increment norms are Euclidean (Frobenius for operator
    paths). Blocks of start points whose box bound cannot reach a known
    candidate are pruned (after Butkus & Norvaiša, "Computation of
    p-variation", Lith. Math. J. 2018, and the branch and bound of
    Korepanov's p-var); V and the partition are bitwise those of the plain
    DP. Worst case (all ties, e.g. a ramp at p = 1) O(n^2) work, O(n)
    memory.
    """
    if p < 1:
        raise PathError(f"p-variation needs p >= 1, got p={p}")
    i0, i1 = _interval_indices(X, interval)
    vals = X.values[i0 : i1 + 1].reshape(i1 - i0 + 1, -1)
    n = vals.shape[0]
    best, prev = _pruned_dp(vals, p)
    idx = [n - 1]
    while idx[-1] != 0:
        idx.append(int(prev[idx[-1]]))
    part = Partition(np.array(idx[::-1]))
    return VariationResult(value=float(best[-1] ** (1.0 / p)), optimal_partition=part, p=p)


def p_variation_norm(X: SampledPath, p: float, interval=None) -> float:
    """p-variation plus the sup of ||X_t|| over the interval."""
    i0, i1 = _interval_indices(X, interval)
    flat = X.values[i0 : i1 + 1].reshape(i1 - i0 + 1, -1)
    sup = float(np.max(np.linalg.norm(flat, axis=1)))
    return p_variation(X, p, interval).value + sup


def holder_norm(X: SampledPath, alpha: float, interval=None) -> float:
    """max over grid pairs s < t of ||X_t - X_s|| / (t - s)^alpha.

    Start points go in blocks of _BLOCK, each against its own block and
    every later block that a box bound does not rule out: the far corners
    of the two blocks' boxes over their time gap. The max starts at the
    one-step ratios. Every ratio is computed with array arithmetic, so it
    is bitwise the one of a loop over start points (see _powers), and so
    is the max.
    """
    if not 0 < alpha <= 1:
        raise PathError(f"Hoelder exponent must lie in (0, 1], got {alpha}")
    i0, i1 = _interval_indices(X, interval)
    times = X.times[i0 : i1 + 1]
    vals = X.values[i0 : i1 + 1].reshape(i1 - i0 + 1, -1)
    n, k = vals.shape
    starts = np.arange(0, n, _BLOCK)
    ends = np.minimum(starts + _BLOCK, n) - 1
    lo = np.minimum.reduceat(vals, starts, axis=0)
    hi = np.maximum.reduceat(vals, starts, axis=0)
    out = float(np.max(np.linalg.norm(np.diff(vals, axis=0), axis=1) / np.diff(times) ** alpha))
    # Differences, squares, sums, sqrt and division round monotonically, so
    # a block pair's bound is at least each of its ratios, up to what the
    # two pow results may add: 4 ulps each (slack), or subnormal steps (floor).
    slack, floor = 1.0 + 16 * np.finfo(float).eps, 16 * np.finfo(float).smallest_subnormal
    for m, a in enumerate(starts):
        reach = np.linalg.norm(np.maximum(hi[m + 1 :] - lo[m], hi[m] - lo[m + 1 :]), axis=1)
        bound = reach / (times[starts[m + 1 :]] - times[ends[m]]) ** alpha * slack + floor
        kept = m + 1 + np.flatnonzero(~(bound < out))  # a NaN bound keeps its block
        cols = np.concatenate([np.arange(a + 1, ends[m] + 1),
                               (kept[:, None] * _BLOCK + np.arange(_BLOCK)).ravel()])
        cols, rows = cols[cols < n], np.arange(a, ends[m] + 1)
        step = max(_BLOCK, _CHUNK_BYTES // (8 * k * rows.size))
        for c0 in range(0, cols.size, step):
            c = cols[c0 : c0 + step]
            dt = times[c] - times[rows, None]
            later = dt > 0
            d = np.linalg.norm(vals[c] - vals[rows, None], axis=-1)
            out = float(np.max(d / np.where(later, dt, 1.0) ** alpha, where=later, initial=out))
    return out
