"""Driver path generation: exact-covariance fBm and deterministic families."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import DETERMINISTIC_KINDS, NumericFailure, PathError, SampledPath

# Bump when the sampling algorithm or RNG contract changes; recorded in
# generated metadata so stored paths can be traced to the generator.
GENERATOR_VERSION = "youngflow-gen-2"

# 2^20 intervals: the largest dyadic grid generated without an explicit
# override. Sampling it peaks at a few hundred MB.
DEFAULT_MAX_POINTS = 2**20 + 1


class ResourceError(NumericFailure, RuntimeError):
    """Request exceeds the configured size cap."""


class GenerationError(NumericFailure, RuntimeError):
    """Numerical failure while sampling (e.g. covariance embedding not PSD)."""


@dataclass(frozen=True)
class FbmSpec:
    """Fractional Brownian motion sample spec, Hurst index in (0.5, 1).

    The path starts at zero on a uniform grid of n_points over
    [0, horizon]. A fixed 64-bit seed makes the sample bitwise
    reproducible for a given numpy build.
    """

    hurst: float
    n_points: int
    horizon: float = 1.0
    seed: int = 0
    max_points: int = DEFAULT_MAX_POINTS

    def __post_init__(self):
        if not 0.5 < self.hurst < 1.0:
            raise PathError(f"hurst must lie in (0.5, 1), got {self.hurst}")
        if self.n_points < 2:
            raise PathError("n_points must be >= 2")
        if self.horizon <= 0:
            raise PathError("horizon must be positive")
        if not 0 <= int(self.seed) < 2**64:
            raise PathError("seed must fit in 64 bits")
        if self.max_points < 2:
            raise PathError("max_points must be >= 2")


def fbm_value_covariance(s: np.ndarray, t: np.ndarray, hurst: float) -> np.ndarray:
    """R(s, t) = (s^2H + t^2H - |t - s|^2H) / 2."""
    h2 = 2.0 * hurst
    return 0.5 * (s**h2 + t**h2 - np.abs(t - s) ** h2)


def fbm_increment_covariance(times: np.ndarray, hurst: float) -> np.ndarray:
    """Covariance of the increments over consecutive grid intervals.

    Second difference of R: Cov(dB_i, dB_j) =
    R(t_{i+1}, t_{j+1}) - R(t_{i+1}, t_j) - R(t_i, t_{j+1}) + R(t_i, t_j).
    Dense O(n^2); the sampler does not use it, tests compare against it.
    """
    a, b = times[:-1], times[1:]
    return (
        fbm_value_covariance(b[:, None], b[None, :], hurst)
        - fbm_value_covariance(b[:, None], a[None, :], hurst)
        - fbm_value_covariance(a[:, None], b[None, :], hurst)
        + fbm_value_covariance(a[:, None], a[None, :], hurst)
    )


def fgn_autocovariance(n_lags: int, hurst: float) -> np.ndarray:
    """gamma(k), k = 0..n_lags, of unit-step fractional Gaussian noise.

    gamma(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2, evaluated for k >= 2 as
    k^2H (expm1(2H log1p(1/k)) + expm1(2H log1p(-1/k))) / 2. The naive
    second difference cancels catastrophically at large lags (at H = 0.99
    and 2^20 lags it turns circulant eigenvalues negative); this form keeps
    full relative precision. Lag 1 is 2^(2H-1) - 1, apart because
    log1p(-1) diverges.
    """
    h2 = 2.0 * hurst
    gamma = np.empty(n_lags + 1)
    gamma[0] = 1.0
    if n_lags >= 1:
        gamma[1] = np.expm1((h2 - 1.0) * np.log(2.0))
    k = np.arange(2, n_lags + 1, dtype=float)
    gamma[2:] = 0.5 * k**h2 * (np.expm1(h2 * np.log1p(1.0 / k))
                               + np.expm1(h2 * np.log1p(-1.0 / k)))
    return gamma


def circulant_eigenvalues(acov: np.ndarray) -> np.ndarray:
    """Eigenvalues of the circulant embedding of a Toeplitz autocovariance.

    The first row is acov[0..m] followed by acov[m-1..1], size 2m. Raises
    GenerationError if any eigenvalue is negative: the embedding is then
    not a covariance, and no jitter is added to make it one. For fGn with
    H in (1/2, 1) the autocovariance is convex and decreasing, so the
    embedding is nonnegative definite (Craigmile 2003).
    """
    row = np.concatenate([acov, acov[-2:0:-1]])
    lam = np.fft.fft(row).real
    low = float(lam.min())
    if low < 0.0:
        raise GenerationError(
            f"circulant embedding of size {row.size} is not nonnegative "
            f"definite (smallest eigenvalue {low:.3g})"
        )
    return lam


def gen_fbm(spec: FbmSpec) -> SampledPath:
    """Sample fBm by exact circulant embedding of its increments.

    Davies & Harte 1987; Wood & Chan 1994: the increments are fractional
    Gaussian noise, whose Toeplitz covariance embeds in a circulant one
    of size 2(n - 1). One FFT gives its eigenvalues, a second one maps
    complex white noise to a sample whose real part has exactly the
    Toeplitz covariance. O(n log n) time, O(n) memory; sizes above
    max_points are refused.
    """
    if spec.n_points > spec.max_points:
        raise ResourceError(
            f"n_points={spec.n_points} exceeds the size cap {spec.max_points}; "
            f"raise max_points explicitly"
        )
    n_incr = spec.n_points - 1
    lam = circulant_eigenvalues(fgn_autocovariance(n_incr, float(spec.hurst)))
    m = lam.size
    rng = np.random.default_rng(int(spec.seed))
    z = rng.standard_normal(2 * m).view(np.complex128)
    z *= np.sqrt(lam / m)
    noise = np.fft.fft(z)[:n_incr].real
    step = spec.horizon / n_incr
    times = np.linspace(0.0, spec.horizon, spec.n_points)
    values = np.concatenate([[0.0], np.cumsum(noise * step**spec.hurst)])
    return SampledPath(times, values)


@dataclass(frozen=True)
class DeterministicSpec:
    """Smooth or polygonal test drivers on a uniform grid over [0, horizon].

    linear:    X_t = t
    power:     X_t = t^alpha
    sine:      X_t = amplitude * sin(2 pi frequency t)
    polygonal: linear interpolation through equally spaced vertices
    """

    kind: str
    n_points: int
    horizon: float = 1.0
    alpha: float = 2.0
    amplitude: float = 1.0
    frequency: float = 1.0
    vertices: tuple = ()

    def __post_init__(self):
        if self.kind not in DETERMINISTIC_KINDS:
            raise PathError(f"unknown deterministic kind {self.kind!r}")
        if self.n_points < 2:
            raise PathError("n_points must be >= 2")
        if self.horizon <= 0:
            raise PathError("horizon must be positive")
        if self.kind == "power" and self.alpha <= 0:
            raise PathError("power driver needs alpha > 0")
        if self.kind == "polygonal" and len(self.vertices) < 2:
            raise PathError("polygonal driver needs at least two vertices")


def gen_deterministic(spec: DeterministicSpec) -> SampledPath:
    times = np.linspace(0.0, spec.horizon, spec.n_points)
    if spec.kind == "linear":
        values = times.copy()
    elif spec.kind == "power":
        values = times**spec.alpha
    elif spec.kind == "sine":
        values = spec.amplitude * np.sin(2.0 * np.pi * spec.frequency * times)
    else:
        verts = np.asarray(spec.vertices, dtype=float)
        if verts.ndim == 1:
            verts = verts[:, None]
        knots = np.linspace(0.0, spec.horizon, verts.shape[0])
        values = np.column_stack(
            [np.interp(times, knots, verts[:, j]) for j in range(verts.shape[1])]
        )
    return SampledPath(times, values)

