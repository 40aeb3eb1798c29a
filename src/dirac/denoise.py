"""Denoiser interface, closed-form MMSE oracle, affine model and training losses.

The score network is parameterized through a clean-image predictor Phi:
s(y, t) = (A_t(Phi(y, t)) - y) / sigma_t^2. For Gaussian priors with affine
degradations the exact posterior mean is affine in y at each severity, but
its gain changes with t, so a per-severity-bin affine family can only
approximate it within a bin.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import GaussianPrior, RandomSource, Signal, prior_sample
from .degrade import DegradationProcess
from .sdp import NoiseSchedule, sdp_sample

__all__ = [
    "Denoiser",
    "OracleDenoiser",
    "GroundTruthDenoiser",
    "AffineDenoiser",
    "score_from_denoiser",
    "loss_denoising",
    "loss_incremental",
    "train_affine",
    "TrainingReport",
    "save_model",
    "load_model",
]

_MODEL_MAGIC = b"DIRACMDL"
_MODEL_VERSION = 1


class Denoiser(ABC):
    """Produces clean-image estimates x0_hat = Phi(y_t, t)."""

    supports_vjp: bool = False

    @abstractmethod
    def estimate(self, y: Signal, t: float) -> Signal:
        """Predict the clean signal from a degraded, noisy observation."""

    def vjp(self, y: Signal, t: float, v: Signal) -> Signal:
        """J^T v for J = d Phi / d y; only when supports_vjp."""
        raise NotImplementedError(f"{type(self).__name__} does not support vjp")


class OracleDenoiser(Denoiser):
    """Closed-form posterior mean E[x0 | y_t] for a Gaussian prior.

    estimate(y, t) = mu + Sigma M^T S^{-1} (y - A_t(mu)) with
    S = M Sigma M^T + sigma_t^2 I; the Jacobian is the constant gain matrix,
    so vjp is exact. S is built from the operator's structure, as
    matvec(t, matvec(t, Sigma)^T) with sigma_t^2 added on its diagonal, and
    never forms the dense M. Each severity's gain is solved once from a
    Cholesky factor of S and cached. A severity where S is singular (the
    noiseless limit sigma_t = 0 with an operator that zeroes entries) raises
    ValueError.
    """

    supports_vjp = True

    def __init__(self, prior: GaussianPrior, proc: DegradationProcess, noise: NoiseSchedule):
        self.prior = prior
        self.proc = proc
        self.noise = noise
        self._gain_cache: dict[float, np.ndarray] = {}

    def _gain(self, t: float) -> np.ndarray:
        if t not in self._gain_cache:
            s = self.noise.sigma(t)
            m_sigma = self.proc.matvec(t, self.prior.covariance)
            cov = self.proc.matvec(t, m_sigma.T)
            cov[np.diag_indices_from(cov)] += s * s
            try:
                factor = scipy.linalg.cho_factor(cov, overwrite_a=True)
            except scipy.linalg.LinAlgError as exc:
                raise ValueError(
                    f"posterior system not positive definite at t={t:.6g}, sigma_t={s:.6g}"
                ) from exc
            # K = Sigma M^T S^{-1}, solved as S K^T = M Sigma.
            self._gain_cache[t] = scipy.linalg.cho_solve(factor, m_sigma).T
        return self._gain_cache[t]

    def estimate(self, y: Signal, t: float) -> Signal:
        resid = y.values - self.proc.apply(t, self.prior.mean).values
        return y.with_values(self.prior.mean.values + self._gain(t) @ resid)

    def vjp(self, y: Signal, t: float, v: Signal) -> Signal:
        return v.with_values(self._gain(t).T @ v.values)


class GroundTruthDenoiser(Denoiser):
    """Always returns the true clean signal; realizes idealized hypotheses."""

    supports_vjp = True

    def __init__(self, truth: Signal):
        self.truth = truth

    def estimate(self, y: Signal, t: float) -> Signal:
        return self.truth

    def vjp(self, y: Signal, t: float, v: Signal) -> Signal:
        return v.with_values(np.zeros(v.n))


class AffineDenoiser(Denoiser):
    """Trainable per-severity-bin affine map: Phi(y, t) = D_b y + c_b."""

    supports_vjp = True

    def __init__(self, d: np.ndarray, c: np.ndarray):
        d = np.asarray(d, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        if d.ndim != 3 or d.shape[1] != d.shape[2] or c.shape != d.shape[:2]:
            raise ValueError("expected D of shape (B, n, n) and c of shape (B, n)")
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
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"severity {t} outside [0,1]")
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


def _weighted_loss(den, proc, noise, batch, tau_of) -> float:
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    total = 0.0
    for x0, y_t, t in batch:
        s = noise.sigma(t)
        if s == 0.0:
            raise ValueError("loss weighting 1/sigma_t^2 undefined at sigma_t = 0")
        tau = tau_of(t)
        diff = proc.apply(tau, den.estimate(y_t, t)).values - proc.apply(tau, x0).values
        total += float(diff @ diff) / (s * s)
    return total / len(batch)


def loss_denoising(den: Denoiser, proc, noise, batch) -> float:
    """Batch mean of w(t) ||A_t(Phi(y_t,t)) - A_t(x0)||^2 with w = 1/sigma_t^2."""
    return _weighted_loss(den, proc, noise, batch, lambda t: t)


def loss_incremental(den: Denoiser, proc, noise, delta_t: float, batch) -> float:
    """Same objective evaluated at tau = max(t - delta_t, 0) instead of t."""
    if not 0.0 <= delta_t <= 1.0:
        raise ValueError("delta_t must be in [0,1]")
    return _weighted_loss(den, proc, noise, batch, lambda t: max(t - delta_t, 0.0))


@dataclass
class TrainingReport:
    losses: list[float] = field(default_factory=list)
    diverged: bool = False
    steps_run: int = 0


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


def train_affine(
    model: AffineDenoiser,
    proc: DegradationProcess,
    noise: NoiseSchedule,
    prior: GaussianPrior,
    loss_kind: str = "denoising",
    delta_t: float = 0.0,
    steps: int = 1000,
    step_size: float = 1e-2,
    batch_size: int = 32,
    rng: RandomSource | None = None,
) -> TrainingReport:
    """Minibatch gradient descent on the denoising or incremental loss.

    Fresh (x0, t, y_t) are sampled each step with t uniform on [0,1]; aborts
    with diverged=True when the batch loss exceeds 1e6.
    """
    if steps < 0 or step_size <= 0 or batch_size <= 0:
        raise ValueError("steps, step_size and batch_size must be positive")
    if loss_kind not in ("denoising", "incremental"):
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    if loss_kind == "denoising":
        delta_t = 0.0
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
        report.steps_run = step + 1
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
    with open(path, "rb") as f:
        if f.read(8) != _MODEL_MAGIC:
            raise ValueError("not a model file (bad magic)")
        version = struct.unpack("<B", f.read(1))[0]
        if version != _MODEL_VERSION:
            raise ValueError(f"unsupported model file version {version}")
        n_bins, n = struct.unpack("<II", f.read(8))
        d = np.empty((n_bins, n, n))
        c = np.empty((n_bins, n))
        for b in range(n_bins):
            d[b] = np.frombuffer(f.read(n * n * 8), dtype="<f8").reshape(n, n)
            c[b] = np.frombuffer(f.read(n * 8), dtype="<f8")
    return AffineDenoiser(d, c)
