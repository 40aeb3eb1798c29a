"""Signals, Gaussian priors, seeded randomness and elementary metrics."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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
    "write_signal",
    "read_signal",
]

_SIGNAL_MAGIC = b"DIRACSIG"
_SIGNAL_VERSION = 1


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

    ``cholesky_factor`` and ``entry_bound`` are computed, not passed.
    ``entry_bound`` is the radius B such that samples are treated as
    entrywise bounded for error-bound audits; samples exceeding it are
    rejected by those audits rather than clipped.
    """

    mean: Signal
    covariance: np.ndarray
    cholesky_factor: np.ndarray = field(init=False)
    entry_bound: float = field(init=False)

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=np.float64)
        n = self.mean.n
        if cov.shape != (n, n):
            raise ValueError(f"covariance must be {n}x{n}, got {cov.shape}")
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ValueError("covariance is not symmetric within 1e-12")
        if np.min(scipy.linalg.eigvalsh(cov)) < 1e-9:
            raise ValueError("covariance eigenvalues must be >= 1e-9")
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)
        chol = np.linalg.cholesky(cov)
        chol.setflags(write=False)
        object.__setattr__(self, "cholesky_factor", chol)
        bound = np.max(np.abs(self.mean.values)) + 4.0 * np.sqrt(np.max(np.diag(cov)))
        object.__setattr__(self, "entry_bound", float(bound))

    @property
    def n(self) -> int:
        return self.mean.n


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
    pixel distance; mean is constant.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 1:
        coords = np.arange(shape[0], dtype=np.float64)[:, None]
    else:
        h, w = shape
        ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        coords = np.stack([ii.ravel(), jj.ravel()], axis=1).astype(np.float64)
    d2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=-1)
    cov = np.exp(-d2 / (2.0 * length_scale**2))
    cov += jitter * np.eye(cov.shape[0])
    n = math.prod(shape)
    mean = Signal(np.full(n, mean_value), shape)
    return GaussianPrior(mean=mean, covariance=cov)


def prior_sample(prior: GaussianPrior, rng: RandomSource) -> Signal:
    """Draw mu + L @ eps with eps standard normal; deterministic given seed."""
    eps = rng.normal(prior.n)
    return prior.mean.with_values(prior.mean.values + prior.cholesky_factor @ eps)


def prior_nll(prior: GaussianPrior, x: Signal) -> float:
    """Negative log-density of x under the prior, via the stored factorization."""
    if x.shape != prior.mean.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {prior.mean.shape}")
    r = x.values - prior.mean.values
    white = scipy.linalg.solve_triangular(prior.cholesky_factor, r, lower=True)
    logdet = 2.0 * np.sum(np.log(np.diag(prior.cholesky_factor)))
    return float(0.5 * white @ white + 0.5 * logdet + 0.5 * prior.n * math.log(2.0 * math.pi))


def mse(a: Signal, b: Signal) -> float:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a.values - b.values
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
    return Signal(np.frombuffer(data, dtype="<f8", offset=header).copy(), shape)
