"""Sampled paths on finite time grids, p-variation, and grid surgery.

A path is a finite sequence of values observed at strictly increasing
times. All variation quantities are computed over partitions whose points
are grid vertices; nothing is interpolated unless asked for explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PathError(ValueError):
    """Invalid path data, or an operation addressed off the sampled grid."""


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

    def concat(self, other: "SampledPath") -> "SampledPath":
        if self.value_shape != other.value_shape:
            raise PathError("concat needs matching value shapes")
        if self.times[-1] != other.times[0] or not np.array_equal(
            self.values[-1], other.values[0]
        ):
            raise PathError("concat needs exact agreement at the junction")
        return SampledPath(
            np.concatenate([self.times, other.times[1:]]),
            np.concatenate([self.values, other.values[1:]], axis=0),
        )

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


def p_variation(X: SampledPath, p: float, interval=None) -> VariationResult:
    """Exact grid p-variation, (sup over partitions of sum ||dX||^p)^(1/p).

    Dynamic program over grid vertices: V[j] = max_{i<j} V[i] + ||X_j - X_i||^p,
    backpointers recover an optimal partition (ties resolved toward the
    coarsest one). Increment norms are Euclidean (Frobenius for operator
    paths). O(n^2) work, O(n) memory.
    """
    if p < 1:
        raise PathError(f"p-variation needs p >= 1, got p={p}")
    i0, i1 = _interval_indices(X, interval)
    vals = X.values[i0 : i1 + 1].reshape(i1 - i0 + 1, -1)
    n = vals.shape[0]
    best = np.zeros(n)
    prev = np.zeros(n, dtype=int)
    for j in range(1, n):
        cand = best[:j] + np.linalg.norm(vals[j] - vals[:j], axis=1) ** p
        i = int(np.argmax(cand))  # first max: prefers the coarsest partition
        best[j] = cand[i]
        prev[j] = i
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
    """max over grid pairs s != t of ||X_t - X_s|| / |t - s|^alpha."""
    if not 0 < alpha <= 1:
        raise PathError(f"Hoelder exponent must lie in (0, 1], got {alpha}")
    i0, i1 = _interval_indices(X, interval)
    times = X.times[i0 : i1 + 1]
    vals = X.values[i0 : i1 + 1].reshape(i1 - i0 + 1, -1)
    out = 0.0
    for i in range(vals.shape[0] - 1):
        d = np.linalg.norm(vals[i + 1 :] - vals[i], axis=1)
        out = max(out, float(np.max(d / (times[i + 1 :] - times[i]) ** alpha)))
    return out
