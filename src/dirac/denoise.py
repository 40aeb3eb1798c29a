"""Denoiser interface, closed-form MMSE oracle, affine model and training losses.

The score network is parameterized through a clean-image predictor Phi:
s(y, t) = (A_t(Phi(y, t)) - y) / sigma_t^2. For Gaussian priors with affine
degradations the exact posterior mean is affine in y at each severity (the
oracle solves it in information form with a Cholesky factor, on scipy's LAPACK
alone), but its gain changes with t, so per-bin affine maps only approximate it.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .core import (GaussianPrior, RandomSource, Signal, check_length, prior_sample, read_binary,
                   with_path)
from .degrade import DegradationProcess
from .schedule import check_severity
from .sdp import NoiseSchedule, sdp_sample

__all__ = [
    "Denoiser",
    "OracleDenoiser",
    "GroundTruthDenoiser",
    "AffineDenoiser",
    "score_from_denoiser",
    "loss_denoising",
    "loss_incremental",
    "check_training",
    "train_affine",
    "TrainingReport",
    "save_model",
    "load_model",
]

_MODEL_MAGIC = b"DIRACMDL"
_MODEL_VERSION = 1
_EPS = np.finfo(float).eps
# Bytes of packed Cholesky factors the oracle keeps: the 20 severities of a Δt = 0.05 schedule
# at 32×32 (80.1 MiB; 21 would need 84.1 MiB), or one 64×64 entry (64 MiB) alone.
_FACTOR_CACHE_BYTES = 84 * 2**20


class Denoiser(ABC):
    """Produces clean-image estimates x0_hat = Phi(y_t, t)."""

    @abstractmethod
    def estimate(self, y: Signal, t: float) -> Signal:
        """Predict the clean signal from a degraded, noisy observation."""

    def vjp(self, y: Signal, t: float, v: Signal) -> Signal:
        """J^T v for J = d Phi / d y. The base raises: a denoiser without one samples unguided."""
        raise NotImplementedError(f"{type(self).__name__} does not support vjp")


class OracleDenoiser(Denoiser):
    """Closed-form posterior mean E[x0 | y_t] for a Gaussian prior N(mu, Sigma).

    estimate(y, t) = mu + H_t^{-1} M^T (y - A_t(mu)), H_t = sigma_t^2 Sigma^{-1} + M^T M: the
    information form of the gain Sigma M^T (M Sigma M^T + sigma_t^2 I)^{-1} (Bishop, PRML
    2.3.3), one fixed linear map per severity, so vjp(v) = M H_t^{-1} v is exact. Sigma^{-1} is
    the prior's `precision`, shared by every oracle on that prior. The oracle's one n x n array
    is its Fortran-order work buffer (8 MiB at 32x32, allocated at construction): a cold
    severity writes sigma_t^2 Sigma^{-1} there, the process's `add_gram` adds M^T M, and LAPACK
    factors H_t = L_t L_t^T in place, so inpainting and blending allocate no other n x n array.
    Each severity caches L_t in LAPACK's packed storage (n(n + 1)/2 doubles, 4 MiB at 32x32) and
    applies H_t^{-1} by one `dpptrs` solve, never forming H_t^{-1}; the cache holds up to
    _FACTOR_CACHE_BYTES (84 MiB): a trajectory visits each severity once, so only sweeps reuse
    entries. A new severity that would overflow the cap evicts the most recently added entry and
    is itself kept, so estimate and vjp at one t share a factorization. Under a sweep's cyclic
    traffic this keeps the oldest entries warm, where evicting the oldest would miss on every
    severity once they outnumber the cap; a severity factored again gives the same bits. At
    sigma_t = 0 the form stays exact where M^T M is positive definite; a singular H_t (an
    operator that zeroes entries), or at sigma_t = 0 one singular to working precision (blur at
    high severity), raises ValueError naming t and sigma_t. All dense algebra runs in scipy's
    LAPACK/BLAS: a numpy `@` here would wake numpy's own OpenBLAS pool to spin against scipy's.
    """

    def __init__(self, prior: GaussianPrior, proc: DegradationProcess, noise: NoiseSchedule):
        self.prior = prior
        self.proc = proc
        self.noise = noise
        self._work = np.empty((prior.n, prior.n), order="F")  # H_t, then its factor
        self._factors: dict[float, np.ndarray] = {}

    def _solve(self, t: float, x: np.ndarray) -> np.ndarray:
        """H_t^{-1} x, factoring H_t on the first call at t."""
        n = self.prior.n
        cache = self._factors
        if t not in cache:
            entry = 4 * n * (n + 1)  # bytes of one packed L_t
            while cache and (len(cache) + 1) * entry > _FACTOR_CACHE_BYTES:
                cache.popitem()  # the newest entry
            s = self.noise.sigma(t)
            h = np.multiply(s * s, self.prior.precision, out=self._work)
            self.proc.add_gram(t, h)
            anorm = lapack.dlange("1", h) if s == 0.0 else 0.0
            chol, info = lapack.dpotrf(h, lower=1, overwrite_a=1)
            # without noise nothing regularizes M^T M: also refuse it when singular to working
            # precision (reciprocal condition number below machine epsilon), as xGESVX does
            if info or (s == 0.0 and lapack.dpocon(chol, anorm, uplo="L")[0] < _EPS):
                raise ValueError(f"posterior not positive definite at t={t:.6g}, sigma_t={s:.6g}")
            cache[t] = lapack.dtrttp(chol, uplo="L")[0]
        return lapack.dpptrs(n, cache[t], x, lower=1)[0]

    def estimate(self, y: Signal, t: float) -> Signal:
        resid = y.values - self.proc.apply(t, self.prior.mean).values
        return y.with_values(self.prior.mean.values + self._solve(t, self.proc.rmatvec(t, resid)))

    def vjp(self, y: Signal, t: float, v: Signal) -> Signal:
        return v.with_values(self.proc.matvec(t, self._solve(t, v.values)))


class GroundTruthDenoiser(Denoiser):
    """Always returns the true clean signal; realizes idealized hypotheses."""

    def __init__(self, truth: Signal):
        self.truth = truth

    def estimate(self, y: Signal, t: float) -> Signal:
        return self.truth

    def vjp(self, y: Signal, t: float, v: Signal) -> Signal:
        return v.with_values(np.zeros(v.n))


class AffineDenoiser(Denoiser):
    """Trainable per-severity-bin affine map: Phi(y, t) = D_b y + c_b."""

    def __init__(self, d: np.ndarray, c: np.ndarray):
        d = np.asarray(d, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        if d.ndim != 3 or d.shape[1] != d.shape[2] or c.shape != d.shape[:2]:
            raise ValueError("expected D of shape (B, n, n) and c of shape (B, n)")
        if 0 in d.shape:
            raise ValueError(f"model has {d.shape[0]} bins of size {d.shape[1]}; "
                             "both must be positive")
        self.d = d
        self.c = c

    @classmethod
    def initialized(cls, prior: GaussianPrior, n_bins: int = 8) -> "AffineDenoiser":
        """Contraction toward the prior mean: D = 0.5 I, c = 0.5 mu per bin."""
        n = prior.n
        d = np.repeat(0.5 * np.eye(n)[None], n_bins, axis=0)
        c = np.repeat(0.5 * prior.mean.values[None], n_bins, axis=0)
        return cls(d, c)

    @property
    def n_bins(self) -> int:
        return self.d.shape[0]

    @property
    def n(self) -> int:
        return self.d.shape[1]

    def bin_index(self, t: float) -> int:
        check_severity(t)
        return min(int(self.n_bins * t), self.n_bins - 1)

    def estimate(self, y: Signal, t: float) -> Signal:
        b = self.bin_index(t)
        return y.with_values(self.d[b] @ y.values + self.c[b])

    def vjp(self, y: Signal, t: float, v: Signal) -> Signal:
        return v.with_values(self.d[self.bin_index(t)].T @ v.values)


def score_from_denoiser(
    den: Denoiser,
    proc: DegradationProcess,
    noise: NoiseSchedule,
    y: Signal,
    t: float,
) -> Signal:
    """Score implied by a clean-image predictor: (A_t(Phi(y,t)) - y) / sigma_t^2."""
    s = noise.sigma(t)
    if s == 0.0:
        raise ValueError("score undefined at sigma_t = 0")
    est = den.estimate(y, t)
    return y.with_values((proc.apply(t, est).values - y.values) / (s * s))


def loss_denoising(den: Denoiser, proc, noise, batch) -> float:
    """Batch mean of w(t) ||A_t(Phi(y_t,t)) - A_t(x0)||^2 with w = 1/sigma_t^2."""
    return loss_incremental(den, proc, noise, 0.0, batch)


def loss_incremental(den: Denoiser, proc, noise, delta_t: float, batch) -> float:
    """Same objective evaluated at tau = max(t - delta_t, 0) instead of t."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    total = 0.0
    for x0, y_t, t in batch:
        s = noise.sigma(t)
        if s == 0.0:
            raise ValueError("loss weighting 1/sigma_t^2 undefined at sigma_t = 0")
        tau = max(t - delta_t, 0.0)
        diff = proc.matvec(tau, den.estimate(y_t, t).values - x0.values)  # offsets cancel
        total += float(diff @ diff) / (s * s)
    return total / len(batch)


@dataclass
class TrainingReport:
    losses: list[float] = field(default_factory=list)
    diverged: bool = False

    @property
    def steps_run(self) -> int:
        return len(self.losses)


def affine_loss_gradients(model: AffineDenoiser, proc, noise, delta_t: float, batch):
    """Analytic per-bin gradients of the (incremental) loss for an affine model.

    For each sample with bin b and tau = max(t - delta_t, 0):
      d/dD_b = 2 w(t) M_tau^T r y^T,  d/dc_b = 2 w(t) M_tau^T r,
    with r = M_tau (D_b y + c_b - x0) and M_tau the linear part of A_tau
    (offsets cancel in the residual). Gradients are averaged over the batch.
    """
    g_d = np.zeros_like(model.d)
    g_c = np.zeros_like(model.c)
    for x0, y_t, t in batch:
        b = model.bin_index(t)
        tau = max(t - delta_t, 0.0)
        s = noise.sigma(t)
        w = 1.0 / (s * s)
        est = model.d[b] @ y_t.values + model.c[b]
        r = proc.matvec(tau, est - x0.values)
        back = 2.0 * w * proc.rmatvec(tau, r)
        g_d[b] += np.outer(back, y_t.values)
        g_c[b] += back
    g_d /= len(batch)
    g_c /= len(batch)
    return g_d, g_c


def check_training(loss_kind: str, delta_t: float, steps: int, step_size: float, batch_size: int):
    """train_affine's settings; denoising is the incremental loss at delta_t = 0, and only there."""
    if loss_kind not in ("denoising", "incremental"):
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    if loss_kind == "denoising" and delta_t != 0.0:
        raise ValueError(f"loss = denoising trains at delta_t = 0, not {delta_t:g}")
    if not 0.0 <= delta_t <= 1.0 or steps < 0 or not 0.0 < step_size < np.inf or batch_size < 1:
        raise ValueError(f"training needs 0 <= delta_t <= 1, steps >= 0, 0 < step_size < inf and "
                         f"batch_size >= 1, not {delta_t:g}, {steps}, {step_size:g}, {batch_size}")


def train_affine(
    model: AffineDenoiser,
    proc: DegradationProcess,
    noise: NoiseSchedule,
    prior: GaussianPrior,
    loss_kind: str = "denoising",
    delta_t: float = 0.0,
    steps: int = 1000,
    step_size: float = 1e-5,
    batch_size: int = 32,
    rng: RandomSource | None = None,
) -> TrainingReport:
    """Minibatch gradient descent on the denoising or incremental loss.

    Fresh (x0, t, y_t) are sampled each step with t uniform on [0,1]; aborts
    with diverged=True when the batch loss exceeds 1e6.
    """
    check_training(loss_kind, delta_t, steps, step_size, batch_size)
    if rng is None:
        rng = RandomSource(0)
    report = TrainingReport()
    for step in range(steps):
        step_rng = rng.split(step)
        batch = []
        for j in range(batch_size):
            sub = step_rng.split(j)
            x0 = prior_sample(prior, sub.split(0))
            t = float(sub.split(1).uniform())
            y_t = sdp_sample(proc, noise, x0, t, sub.split(2))
            batch.append((x0, y_t, t))
        loss = loss_incremental(model, proc, noise, delta_t, batch)
        report.losses.append(loss)
        if not np.isfinite(loss) or loss > 1e6:
            report.diverged = True
            return report
        g_d, g_c = affine_loss_gradients(model, proc, noise, delta_t, batch)
        model.d -= step_size * g_d
        model.c -= step_size * g_c
    return report


def save_model(model: AffineDenoiser, path) -> None:
    """Binary model file: magic, version, B, n, then row-major D and c per bin."""
    with open(path, "wb") as f:
        f.write(_MODEL_MAGIC)
        f.write(struct.pack("<B", _MODEL_VERSION))
        f.write(struct.pack("<II", model.n_bins, model.n))
        for b in range(model.n_bins):
            f.write(model.d[b].astype("<f8").tobytes())
            f.write(model.c[b].astype("<f8").tobytes())


def load_model(path) -> AffineDenoiser:
    data = read_binary(path, _MODEL_MAGIC, _MODEL_VERSION, header=17)
    n_bins, n = struct.unpack_from("<II", data, 9)
    check_length(path, data, 17 + 8 * n_bins * (n * n + n))
    blocks = np.frombuffer(data, dtype="<f8", offset=17).reshape(n_bins, n * n + n)
    return with_path(path, AffineDenoiser, blocks[:, : n * n].reshape(n_bins, n, n).copy(),
                     blocks[:, n * n:].copy())
