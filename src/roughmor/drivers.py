"""Driver paths: fractional Brownian motion, smooth test paths, dyadic
coarsening, and CSV round-trips.

All paths live on a uniform grid t_k = k T / M, start at the origin, and are
deterministic given their seed. fBm is sampled exactly in law by the
standard circulant embedding of the fractional Gaussian noise covariance
(Davies-Harte).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ArgumentError, NumericalError
from ._util import atomic_write_text, csv_text


@dataclass(frozen=True, eq=False)
class DriverPath:
    """Sampled driver on the uniform grid t_k = k T / M.

    ``values`` is (M+1) x d with values[0] = 0.
    """

    T: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 2:
            raise ArgumentError(
                f"values must be (M+1) x d with M >= 1, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ArgumentError("driver path contains non-finite entries")
        if np.any(values[0] != 0.0):
            raise ArgumentError("driver paths must start at the origin")
        if not (0.0 < self.T < np.inf):
            raise ArgumentError(f"need 0 < T < inf, got {self.T}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "T", float(self.T))

    @property
    def M(self) -> int:
        return self.values.shape[0] - 1

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def dt(self) -> float:
        return self.T / self.M

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.M + 1) * self.dt


def _fgn_circulant(M: int, H: float, rng) -> np.ndarray:
    """One length-M fractional Gaussian noise sample at unit step.

    The circulant row gamma(0..M), gamma(M-1..1) has nonnegative
    eigenvalues for fGn (tested for H = 0.01..0.99, M = 2..4096): only
    round-off is clipped, and a clearly negative one raises NumericalError.
    """
    k = np.arange(M + 1)
    gamma = 0.5 * ((k + 1.0) ** (2 * H)
                   + np.abs(k - 1.0) ** (2 * H)
                   - 2.0 * k ** (2 * H))
    c = np.concatenate([gamma, gamma[-2:0:-1]])
    g = np.fft.fft(c).real
    if g.min() < -1e-12 * g.max():
        raise NumericalError(
            f"fGn circulant embedding has eigenvalue {g.min():.3e} "
            f"(largest {g.max():.3e}) for H={H}, M={M}")
    g = np.clip(g, 0.0, None)
    Z = np.zeros(2 * M, dtype=complex)
    Z[0] = np.sqrt(2.0) * rng.standard_normal()
    Z[M] = np.sqrt(2.0) * rng.standard_normal()
    V = rng.standard_normal((M - 1, 2))
    Z[1:M] = V[:, 0] + 1j * V[:, 1]
    Z[M + 1:] = np.conj(Z[1:M][::-1])
    # ifft carries 1/(2M) and E|Z_k|^2 = 2, so sqrt(M) lands the sample
    # on covariance toeplitz(gamma[:M])
    return np.fft.ifft(np.sqrt(g) * Z * np.sqrt(float(M))).real[:M]


def sample_fbm_path(H: float, d: int, T: float, M: int, seed: int) -> DriverPath:
    """d independent fBm components with Hurst index H on M uniform steps.

    Components use split seeds (SeedSequence.spawn), making them mutually
    independent while the whole path stays bitwise reproducible given ``seed``.
    """
    if not (0.0 < H < 1.0):
        raise ArgumentError(f"Hurst index must lie in (0, 1), got {H}")
    if M < 2:
        raise ArgumentError(f"need M >= 2 steps, got {M}")
    if d < 1:
        raise ArgumentError(f"need d >= 1 components, got {d}")
    if not (0.0 < T < np.inf):
        raise ArgumentError(f"need 0 < T < inf, got {T}")
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    scale = (T / M) ** H
    values = np.zeros((M + 1, d))
    for j, child in enumerate(np.random.SeedSequence(seed).spawn(d)):
        rng = np.random.default_rng(child)
        values[1:, j] = np.cumsum(_fgn_circulant(M, H, rng) * scale)
    return DriverPath(T=T, values=values)


def smooth_path_from_function(
        fn: Callable[[float], np.ndarray], T: float, M: int) -> DriverPath:
    """Sample a smooth deterministic driver t -> fn(t) on the uniform grid.

    The value at t = 0 is subtracted so the path starts at the origin; only
    increments matter to the dynamics.
    """
    # checked here, not left to DriverPath: the times below need a finite T
    if M < 1 or not (0.0 < T < np.inf):
        raise ArgumentError(f"need M >= 1 and 0 < T < inf, got M={M}, T={T}")
    times = np.arange(M + 1) * (T / M)
    rows = [np.atleast_1d(np.asarray(fn(t), dtype=float)) for t in times]
    values = np.stack(rows, axis=0)
    values = values - values[0]
    values[0] = 0.0
    return DriverPath(T=T, values=values)


def coarsen_path(path: DriverPath, factor: int) -> DriverPath:
    """Restrict a path to every ``factor``-th grid node (exact subsampling).

    Read as its piecewise-linear interpolant, as the Gronwall probe reads
    every path, the result stands for the smooth approximation W^eps that
    linearly interpolates the sampled path on the coarser grid.
    """
    if factor < 1 or path.M % factor != 0:
        raise ArgumentError(
            f"coarsening factor {factor} does not divide M = {path.M}")
    return DriverPath(T=path.T, values=path.values[::factor].copy())


def write_path_csv(path: DriverPath, file) -> None:
    """Dump a path as ``t, W1, ..., Wd`` rows (shortest round-trip text)."""
    atomic_write_text(file, csv_text(
        ["t"] + [f"W{j + 1}" for j in range(path.d)],
        np.column_stack([path.times, path.values])))


def read_path_csv(file) -> DriverPath:
    """Load a ``t, W1, ..., Wd`` CSV produced by :func:`write_path_csv`.

    The time column must be the uniform grid t_k = k T / M, which starts
    at 0. The file holds only the samples, so the result is the
    piecewise-linear record of whatever was sampled.
    """
    try:
        data = np.loadtxt(file, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ArgumentError(f"cannot read path CSV {file}: {exc}") from exc
    if data.shape[1] < 2:
        raise ArgumentError(
            f"path CSV {file} needs a time column and >= 1 component")
    times, values = data[:, 0], data[:, 1:]
    M = len(times) - 1
    if M < 1:
        raise ArgumentError(f"path CSV {file} needs at least two rows")
    T = float(times[-1])
    # written so that a nan or inf time fails too
    if not (0.0 < T < np.inf and np.max(np.abs(
            times - np.arange(M + 1) * (T / M))) <= 1e-9 * max(T, 1.0)):
        raise ArgumentError(f"path CSV {file}: time column is not a uniform "
                            "grid from t = 0 to some T > 0")
    return DriverPath(T=T, values=values)
