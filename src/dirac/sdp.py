"""Stochastic degradation process: noise schedule, forward sampling, scores."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import GaussianPrior, RandomSource, Signal
from .degrade import DegradationProcess

__all__ = [
    "NoiseSchedule",
    "sdp_sample",
    "conditional_score",
    "marginal_score",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Geometric noise level sigma_t = sigma_min * (sigma_max/sigma_min)^t.

    sigma_min = sigma_max = 0 is accepted as the noiseless limit (the
    geometric rule degenerates to zero everywhere). sigma_max must have a
    finite square, since every consumer works with variances sigma_t^2.
    """

    sigma_min: float = 0.01
    sigma_max: float = 0.05

    def __post_init__(self):
        if not (self.sigma_min >= 0) or not (self.sigma_max >= self.sigma_min):
            raise ValueError("requires 0 <= sigma_min <= sigma_max")
        # a Python float product overflows to inf, where ** would raise and numpy would warn
        if not math.isfinite(float(self.sigma_max) * float(self.sigma_max)):
            raise ValueError(f"sigma_max={self.sigma_max!r} has no finite square")
        if self.sigma_min == 0.0 and self.sigma_max > 0.0:
            raise ValueError("geometric schedule needs sigma_min > 0 unless fully noiseless")

    def sigma(self, t: float) -> float:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"severity {t} outside [0,1]")
        if self.sigma_min == 0.0:
            return 0.0
        return self.sigma_min * (self.sigma_max / self.sigma_min) ** t


def sdp_sample(
    proc: DegradationProcess,
    noise: NoiseSchedule,
    x0: Signal,
    t: float,
    rng: RandomSource,
) -> Signal:
    """Forward draw y_t = A_t(x0) + sigma_t * eps; deterministic given seed."""
    degraded = proc.apply(t, x0)
    s = noise.sigma(t)
    if s == 0.0:
        return degraded
    return degraded.with_values(degraded.values + s * rng.normal(degraded.n))


def conditional_score(
    proc: DegradationProcess,
    noise: NoiseSchedule,
    y_t: Signal,
    x0: Signal,
    t: float,
) -> Signal:
    """Score of y_t given x0: (A_t(x0) - y_t) / sigma_t^2."""
    s = noise.sigma(t)
    if s == 0.0:
        raise ValueError("conditional score undefined at sigma_t = 0")
    return y_t.with_values((proc.apply(t, x0).values - y_t.values) / (s * s))


def marginal_score(
    prior: GaussianPrior,
    proc: DegradationProcess,
    noise: NoiseSchedule,
    y_t: Signal,
    t: float,
) -> Signal:
    """Exact score of the marginal q_t(y) for a Gaussian prior and affine A_t.

    y_t ~ N(A_t(mu), M Sigma M^T + sigma_t^2 I) with M the linear part, so the
    score is -S_t^{-1} (y_t - A_t(mu)), computed by Cholesky factorization; M Sigma
    M^T is formed in two operator calls, rmatvec on Sigma's rows (Sigma M) and
    matvec on the columns of that. The factorization overwrites S_t where it comes out
    in Fortran order (blur); scipy copies a C-order one (the pixel-diagonal families).
    """
    sigma_m = proc.rmatvec(t, prior.covariance)
    s = noise.sigma(t)
    cov = proc.matvec(t, sigma_m.T).T
    del sigma_m  # freed before the factorization
    cov.flat[:: prior.n + 1] += s * s
    try:
        factor = scipy.linalg.cho_factor(cov, overwrite_a=True)
    except scipy.linalg.LinAlgError as exc:  # unreachable for sigma_t > 0
        raise ValueError("marginal covariance not positive definite") from exc
    resid = y_t.values - proc.apply(t, prior.mean).values
    return y_t.with_values(-scipy.linalg.cho_solve(factor, resid))
