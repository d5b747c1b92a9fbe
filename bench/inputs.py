"""Seeded inputs of the benchmark workloads.

Every input is made here from the benchmark seed, never by `youngflow
gen`, so the inputs stay byte-identical when the program's own sampler
changes. Files use the program's path CSV layout: a `t,x1,...` header
for vector paths, `t,z11,...` (row-major) for operator paths, and `%.17g`
values, which round-trip float64 exactly.
"""

from __future__ import annotations

import numpy as np


def _fgn_pair(n_incr: int, hurst: float, rng: np.random.Generator):
    """Two independent exact fractional Gaussian noise samples, unit step.

    Circulant embedding of the fGn autocovariance (Davies & Harte 1987;
    Dietrich & Newsam 1997): for H in [1/2, 1) the minimal embedding is
    nonnegative definite, so the samples have the exact Toeplitz
    covariance. The real and imaginary parts of one FFT are independent.
    """
    k = np.arange(n_incr + 1, dtype=float)
    h2 = 2.0 * hurst
    gamma = 0.5 * ((k + 1.0) ** h2 - 2.0 * k ** h2 + np.abs(k - 1.0) ** h2)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = np.fft.fft(row).real
    if lam.min() < -1e-10 * lam.max():
        raise ValueError(f"circulant embedding is not nonnegative at H={hurst}")
    m = row.size
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    y = np.fft.fft(np.sqrt(np.maximum(lam, 0.0) / m) * z)[:n_incr]
    return y.real, y.imag


def fbm(n_points: int, hurst: float, rng: np.random.Generator, dim: int = 1,
        horizon: float = 1.0):
    """(times (n,), values (n, dim)) of fBm started at 0 on a uniform grid."""
    if dim not in (1, 2):
        raise ValueError("fbm makes one or two independent components")
    times = np.linspace(0.0, horizon, n_points)
    scale = (horizon / (n_points - 1)) ** hurst
    noise = _fgn_pair(n_points - 1, hurst, rng)[:dim]
    incr = np.stack(noise, axis=1) * scale
    values = np.concatenate([np.zeros((1, dim)), np.cumsum(incr, axis=0)])
    return times, values


def burgers_driver(n_points: int, rng: np.random.Generator, hurst: float = 0.75,
                   drift: float = 2.0, noise: float = 0.5):
    """noise * (fBm bridge) - drift * t on [0, 1].

    The bridge pins X_1 - X_0 = -drift < -1, so the Burgers solution from
    -x^2/2 folds on every seed, at the first time X_t - X_0 crosses -1.
    """
    times, values = fbm(n_points, hurst, rng)
    bridge = values[:, 0] - times * values[-1, 0]
    return times, (noise * bridge - drift * times)[:, None]


def write_path(fname, times, values) -> None:
    """Path CSV: vector paths (n, d) or operator paths (n, m, k)."""
    values = np.asarray(values, dtype=float)
    n = times.size
    if values.ndim == 3:
        m, k = values.shape[1:]
        labels = [f"z{i + 1}{j + 1}" for i in range(m) for j in range(k)]
        values = values.reshape(n, m * k)
    else:
        labels = [f"x{j + 1}" for j in range(values.shape[1])]
    np.savetxt(fname, np.column_stack([times, values]), delimiter=",",
               fmt="%.17g", header=",".join(["t"] + labels), comments="")


def read_path(fname):
    """(times (n,), flat values (n, columns)) of a path CSV."""
    data = np.loadtxt(fname, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:]
