"""Signals, Gaussian priors, seeded randomness and elementary metrics."""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "Signal",
    "GaussianPrior",
    "RandomSource",
    "squared_exponential_prior",
    "prior_sample",
    "prior_nll",
    "mse",
    "psnr",
    "write_pgm",
    "write_csv",
    "write_signal",
    "read_signal",
]

_SIGNAL_MAGIC = b"DIRACSIG"
_SIGNAL_VERSION = 1
_SYMMETRY_TILE = 64  # side of the blocks GaussianPrior's symmetry check reads


@dataclass(frozen=True)
class Signal:
    """An n-dimensional real vector with 1-D or 2-D shape metadata.

    ``values`` is always stored flat; ``shape`` records the logical layout.
    Degraded/noisy signals may leave [0,1] and are never clipped here.
    """

    values: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).ravel()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        shape = tuple(int(s) for s in self.shape)
        if len(shape) not in (1, 2) or any(s <= 0 for s in shape):
            raise ValueError(f"shape must be 1-D or 2-D with positive sizes, got {shape}")
        if math.prod(shape) != vals.size:
            raise ValueError(f"shape {shape} does not match {vals.size} values")
        object.__setattr__(self, "shape", shape)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Signal":
        arr = np.asarray(arr, dtype=np.float64)
        return cls(arr.ravel(), arr.shape)

    @property
    def n(self) -> int:
        return self.values.size

    def as_array(self) -> np.ndarray:
        """Values reshaped to the logical shape (a read-only view)."""
        return self.values.reshape(self.shape)

    def with_values(self, values: np.ndarray) -> "Signal":
        return Signal(np.asarray(values), self.shape)


@dataclass(frozen=True)
class GaussianPrior:
    """Gaussian data model N(mean, covariance) over signals.

    The covariance must be finite, symmetric within 1e-12 and have every eigenvalue at least
    1e-9. The floor is tested by inertia, not by an eigendecomposition: Sigma - 1e-9 I must
    factor by Cholesky (LAPACK dpotrf, in place). Both checks share one n x n scratch array,
    freed before the stored factor is taken.

    ``cholesky_factor``, ``log_det`` and ``entry_bound`` are computed, not passed.
    ``cholesky_factor`` is numpy's Cholesky of the lower triangle. ``precision`` is Sigma^{-1},
    formed on first use and kept: only its lower triangle is valid. ``entry_bound`` is the
    radius B such that samples are treated as entrywise bounded for error-bound audits; samples
    exceeding it are rejected by those audits rather than clipped.
    """

    mean: Signal
    covariance: np.ndarray
    cholesky_factor: np.ndarray = field(init=False)
    log_det: float = field(init=False)
    entry_bound: float = field(init=False)

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=np.float64)
        n = self.mean.n
        if cov.shape != (n, n):
            raise ValueError(f"covariance must be {n}x{n}, got {cov.shape}")
        # cov - cov^T tile by tile, so that the transposed read stays within a few pages
        scratch = np.empty((n, n))
        with np.errstate(invalid="ignore"):  # inf - inf: NaN, which fails the test below
            for i in range(0, n, _SYMMETRY_TILE):
                rows = slice(i, i + _SYMMETRY_TILE)
                for j in range(0, n, _SYMMETRY_TILE):
                    cols = slice(j, j + _SYMMETRY_TILE)
                    np.subtract(cov[rows, cols], cov[cols, rows].T, out=scratch[rows, cols])
        if not np.max(np.abs(scratch, out=scratch)) <= 1e-12:
            raise ValueError("covariance is not finite and symmetric within 1e-12")
        # Sylvester's law of inertia: every eigenvalue is above 1e-9 exactly when
        # Sigma - 1e-9 I is positive definite. The transposed view is in Fortran order,
        # so dpotrf factors it in place; its upper triangle is cov's lower one.
        np.copyto(scratch, cov)
        scratch.flat[:: n + 1] -= 1e-9
        if lapack.dpotrf(scratch.T, lower=0, overwrite_a=1, clean=0)[1]:
            raise ValueError("covariance eigenvalues must be >= 1e-9")
        del scratch
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)
        chol = np.linalg.cholesky(cov)
        chol.setflags(write=False)
        object.__setattr__(self, "cholesky_factor", chol)
        object.__setattr__(self, "log_det", float(2.0 * np.sum(np.log(np.diag(chol)))))
        bound = np.max(np.abs(self.mean.values)) + 4.0 * np.sqrt(np.max(np.diag(cov)))
        object.__setattr__(self, "entry_bound", float(bound))

    @property
    def n(self) -> int:
        return self.mean.n

    @functools.cached_property
    def precision(self) -> np.ndarray:
        """Read-only Sigma^{-1} by LAPACK dpotri on the factor, valid in the lower triangle."""
        precision = lapack.dpotri(self.cholesky_factor, lower=1)[0]
        precision.setflags(write=False)
        return precision


class RandomSource:
    """Deterministic randomness keyed by an integer seed.

    Uses numpy's PCG64 via SeedSequence; independent sub-streams derive
    from (seed, stream-id) spawn keys. One task owns one source.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._spawn_key = _spawn_key
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=_spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def split(self, stream_id: int) -> "RandomSource":
        """A fresh, independent sub-stream for (seed, stream_id)."""
        return RandomSource(self.seed, self._spawn_key + (int(stream_id),))

    def normal(self, size) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)


def squared_exponential_prior(
    shape: tuple[int, ...],
    length_scale: float = 2.0,
    jitter: float = 1e-4,
    mean_value: float = 0.5,
) -> GaussianPrior:
    """Default desk-scale prior: squared-exponential covariance over pixels.

    Sigma_ij = exp(-d(i,j)^2 / (2 l^2)) + jitter * I, with d the Euclidean
    pixel distance; mean is constant. On a grid d^2 is the sum of the squared
    per-axis offsets, so exp is taken once per combination of axis offsets
    (h * w values) and each pixel pair gathers its entry by its offsets
    (Saatci 2011): no pairwise difference array, and the same bits as
    evaluating every pair.
    """
    shape = tuple(int(s) for s in shape)
    n = math.prod(shape)
    squares = np.ix_(*(np.arange(s, dtype=np.float64) ** 2 for s in shape))
    table = np.exp(-sum(squares) / (2.0 * length_scale**2))
    offsets = [abs(np.arange(s)[:, None] - np.arange(s)) for s in shape]  # |i_k - j_k|
    if len(shape) == 1:
        cov = table[offsets[0]]
    else:  # entry (i, j, i', j') of the (h, w, h, w) array reads table[|i - i'|, |j - j'|]
        off_h, off_w = offsets
        cov = table[off_h[:, None, :, None], off_w[None, :, None, :]].reshape(n, n)
    cov.flat[:: n + 1] += jitter
    mean = Signal(np.full(n, mean_value), shape)
    return GaussianPrior(mean=mean, covariance=cov)


def prior_sample(prior: GaussianPrior, rng: RandomSource) -> Signal:
    """Draw mu + L @ eps with eps standard normal; deterministic given seed."""
    eps = rng.normal(prior.n)
    return prior.mean.with_values(prior.mean.values + prior.cholesky_factor @ eps)


def prior_nll(prior: GaussianPrior, x: Signal) -> float:
    """Negative log-density of x under the prior, via the stored factorization.

    Solves L w = x - mu with LAPACK's dtrtrs on L^T, the Fortran-ordered view of the
    C-ordered factor, with trans=1: the call solve_triangular makes, without its scan
    of the n x n factor for non-finite values.
    """
    r = _difference(x, prior.mean)
    white = lapack.dtrtrs(prior.cholesky_factor.T, r, lower=0, trans=1, overwrite_b=1)[0]
    return float(
        0.5 * white @ white + 0.5 * prior.log_det + 0.5 * prior.n * math.log(2.0 * math.pi))


def _difference(a: Signal, b: Signal) -> np.ndarray:
    """a - b over the flat values, refusing signals of different shapes."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a.values - b.values


def mse(a: Signal, b: Signal) -> float:
    d = _difference(a, b)
    return float(np.mean(d * d))


def psnr(a: Signal, b: Signal, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical signals."""
    m = mse(a, b)
    if m == 0.0:
        return math.inf
    return float(10.0 * math.log10(peak * peak / m))


def write_pgm(signal: Signal, path) -> None:
    """8-bit binary portable graymap; values clipped to [0,1] at export only."""
    if len(signal.shape) != 2:
        raise ValueError("portable graymap export requires a 2-D signal")
    img = np.clip(signal.as_array(), 0.0, 1.0)
    data = np.round(img * 255.0).astype(np.uint8)
    h, w = signal.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def write_csv(path, header: str, rows) -> None:
    """Header, then a line per row: str and int as written, floats at 9 significant digits."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            cells = (str(v) if isinstance(v, (str, int)) else f"{v:.9g}" for v in row)
            f.write(",".join(cells) + "\n")


def write_signal(signal: Signal, path) -> None:
    """Binary little-endian export: magic, version, shape preamble, raw float64."""
    with open(path, "wb") as f:
        f.write(_SIGNAL_MAGIC)
        f.write(struct.pack("<B", _SIGNAL_VERSION))
        f.write(struct.pack("<B", len(signal.shape)))
        for s in signal.shape:
            f.write(struct.pack("<I", s))
        f.write(signal.values.astype("<f8").tobytes())


def check_length(path, data: bytes, expected: int, at_least: bool = False) -> None:
    """Refuse data that is not exactly expected bytes long, or with at_least, shorter."""
    if len(data) < expected or (not at_least and len(data) != expected):
        raise ValueError(
            f"{path}: expected {'at least ' * at_least}{expected} bytes, got {len(data)}")


def with_path(path, build, *args, **kwargs):
    """build(*args, **kwargs), with the path put in front of the message of its ValueError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_binary(path, magic: bytes, version: int, header: int) -> bytes:
    """A binary file's bytes, once its header length, magic and version byte check out."""
    with open(path, "rb") as f:
        data = f.read()
    check_length(path, data, header, at_least=True)
    if data[: len(magic)] != magic or data[len(magic)] != version:
        raise ValueError(f"{path}: not a version {version} {magic.decode()} file")
    return data


def read_signal(path) -> Signal:
    data = read_binary(path, _SIGNAL_MAGIC, _SIGNAL_VERSION, header=10)
    ndim = data[9]
    header = 10 + 4 * ndim
    check_length(path, data, header, at_least=True)
    shape = struct.unpack_from(f"<{ndim}I", data, 10)
    check_length(path, data, header + 8 * math.prod(shape))
    # Signal refuses a shape preamble of ndim 0 or 3, or a zero size
    return with_path(path, Signal, np.frombuffer(data, dtype="<f8", offset=header).copy(), shape)
