"""Reverse sampler: incremental reconstruction, denoising, guidance, early stop.

One reverse step takes the iterate at severity t to severity max(t - dt, 0):

    y <- y + y_r + y_d + eta_t * y_g + sqrt(sigma_t^2 - sigma_tau^2) * z

with z standard normal. The loop visits severities t = 1, 1 - dt, ... and
breaks as soon as t <= t_stop, so with t_stop = 1 - dt exactly one step runs
and with t_stop = 0 the iterate lands on severity 0 (the final partial step
clamps tau to 0 when 1/dt is not integral). When sigma_t = 0 the denoising
and noise-injection terms are disabled (noiseless limit).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import GaussianPrior, RandomSource, Signal, mse, prior_nll, psnr, write_csv
from .degrade import DegradationProcess
from .denoise import Denoiser
from .sdp import NoiseSchedule

__all__ = [
    "SamplerConfig",
    "TrajectoryStep",
    "Trajectory",
    "incremental_estimate",
    "denoising_term",
    "guidance_term",
    "dirac_sample",
    "write_trajectory_csv",
]

_VARIANTS = ("LA", "SLA", "LB", "SLB")
_GUIDANCE_MODES = ("none", "std_scaled", "error_scaled")
_OUTPUT_MODES = ("final_iterate", "posterior_mean")
_T_EPS = 1e-12


def _snap(t: float) -> float:
    """Clear the float dust left by repeated delta_t subtraction near t=0."""
    return 0.0 if t < _T_EPS else t


def _check_variant(variant: str, small_dt: float | None, delta_t: float) -> None:
    """A known increment variant; SLA and SLB also need 0 < small_dt < delta_t."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown increment variant {variant!r}")
    if variant in ("SLA", "SLB") and (small_dt is None or not 0.0 < small_dt < delta_t):
        raise ValueError("SLA/SLB require 0 < small_dt < delta_t")


@dataclass(frozen=True)
class SamplerConfig:
    delta_t: float = 0.02
    t_stop: float = 0.0
    eta: float = 0.0
    guidance_mode: str = "none"
    output_mode: str = "posterior_mean"
    increment_variant: str = "LA"
    small_dt: float | None = None  # delta for SLA/SLB
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.delta_t <= 1.0:
            raise ValueError("delta_t must be in (0,1]")
        if not 0.0 <= self.t_stop < 1.0:
            raise ValueError("t_stop must be in [0,1)")
        if not (self.eta >= 0):
            raise ValueError("eta must be non-negative")
        if self.small_dt is not None and not (self.small_dt > 0):
            raise ValueError("small_dt must be positive when set")
        if self.guidance_mode not in _GUIDANCE_MODES:
            raise ValueError(f"unknown guidance mode {self.guidance_mode!r}")
        if self.output_mode not in _OUTPUT_MODES:
            raise ValueError(f"unknown output mode {self.output_mode!r}")
        _check_variant(self.increment_variant, self.small_dt, self.delta_t)


@dataclass(frozen=True)
class TrajectoryStep:
    t: float
    iterate: Signal
    estimate: Signal
    eps_dc: float
    psnr_vs_truth: float
    prior_nll: float


@dataclass
class Trajectory:
    steps: list[TrajectoryStep] = field(default_factory=list)
    output: Signal | None = None
    aborted: bool = False


def incremental_estimate(
    den: Denoiser,
    proc: DegradationProcess,
    t: float,
    delta_t: float,
    y: Signal,
    variant: str = "LA",
    small_dt: float | None = None,
    *,
    x_hat: Signal | None = None,
    a_t: Signal | None = None,
) -> Signal:
    """Estimate of the reconstruction increment A_{t-dt}(x0) - A_t(x0).

    LA applies the degradation at both severities to a single clean-image
    prediction; SLA/SLB replace the far severity with a nearby one and scale
    the finite difference; LB looks backward to t + dt. All severities are
    clamped to [0,1]. x_hat, when given, is taken as den.estimate(y, t)
    instead of asking the denoiser again, and a_t as proc.apply(t, x_hat).
    """
    _check_variant(variant, small_dt, delta_t)
    if delta_t == 0.0:
        return y.with_values(np.zeros(y.n))
    est = den.estimate(y, t) if x_hat is None else x_hat
    at = (proc.apply(t, est) if a_t is None else a_t).values
    if variant == "LA":
        tau = _snap(max(t - delta_t, 0.0))
        out = proc.apply(tau, est).values - at
    elif variant == "SLA":
        near = _snap(max(t - small_dt, 0.0))
        out = (delta_t / small_dt) * (proc.apply(near, est).values - at)
    elif variant == "LB":
        t_plus = min(t + delta_t, 1.0)
        out = at - proc.apply(t_plus, est).values
    else:  # SLB
        near = min(t + small_dt, 1.0)
        out = (delta_t / small_dt) * (at - proc.apply(near, est).values)
    return y.with_values(out)


def denoising_term(
    proc: DegradationProcess,
    noise: NoiseSchedule,
    t: float,
    delta_t: float,
    y: Signal,
    x_hat: Signal,
    *,
    a_t: Signal | None = None,
) -> Signal:
    """-((sigma_tau^2 - sigma_t^2)/sigma_t^2) (A_t(x_hat) - y), tau = max(t-dt, 0).

    a_t, when given, is taken as proc.apply(t, x_hat) instead of applying it again.
    """
    s_t = noise.sigma(t)
    if s_t == 0.0:
        return y.with_values(np.zeros(y.n))
    s_tau = noise.sigma(_snap(max(t - delta_t, 0.0)))
    scale = -(s_tau * s_tau - s_t * s_t) / (s_t * s_t)
    at = proc.apply(t, x_hat) if a_t is None else a_t
    return y.with_values(scale * (at.values - y.values))


def guidance_term(
    den: Denoiser,
    proc: DegradationProcess,
    noise: NoiseSchedule,
    t: float,
    delta_t: float,
    y: Signal,
    y_tilde: Signal,
    mode: str,
    eta: float,
    *,
    x_hat: Signal | None = None,
    a_1: Signal | None = None,
) -> Signal:
    """Measurement-agreement gradient contribution eta_t * y_g.

    y_g = (sigma_tau^2 - sigma_t^2) * grad_y ||y_tilde - A_1(Phi(y,t))||^2,
    computed exactly through the denoiser's vector-Jacobian product; eta_t is
    eta/(2 sigma_1^2) (std_scaled) or eta/||residual|| (error_scaled, floored).
    A denoiser without a vjp raises NotImplementedError here. x_hat, when given,
    is taken as den.estimate(y, t) instead of asking the denoiser again, and a_1
    as proc.apply(1, x_hat).
    """
    if mode not in ("std_scaled", "error_scaled"):
        raise ValueError(f"guidance mode must be scaled, got {mode!r}")
    if a_1 is None:
        a_1 = proc.apply(1.0, den.estimate(y, t) if x_hat is None else x_hat)
    resid = y_tilde.values - a_1.values
    grad = -2.0 * den.vjp(y, t, y.with_values(proc.rmatvec(1.0, resid))).values
    s_t = noise.sigma(t)
    s_tau = noise.sigma(_snap(max(t - delta_t, 0.0)))
    y_g = (s_tau * s_tau - s_t * s_t) * grad
    if mode == "std_scaled":
        s1 = noise.sigma(1.0)
        eta_t = eta / (2.0 * s1 * s1)
    else:
        eta_t = eta / max(float(np.linalg.norm(resid)), 1e-12)
    return y.with_values(eta_t * y_g)


def dirac_sample(
    den: Denoiser,
    proc: DegradationProcess,
    noise: NoiseSchedule,
    y_tilde: Signal,
    config: SamplerConfig,
    truth: Signal | None = None,
    prior: GaussianPrior | None = None,
) -> Trajectory:
    """Run the reverse sampler from the measurement y_tilde.

    Records one step per executed iteration (severity, iterate, clean-image
    estimate, measurement-consistency error, and distortion/perception
    metrics when truth and prior are supplied). Each step asks the denoiser
    for one estimate x_hat, plus one vjp when guided, and forms each operator
    product once: A_1(x_hat) serves eps_dc and the guidance residual, A_t(x_hat)
    the incremental and denoising terms. Fully deterministic given config.seed;
    a non-finite iterate aborts with the diagnostic trajectory.
    """
    rng = RandomSource(config.seed)
    traj = Trajectory()
    y = y_tilde
    for i in itertools.count():
        t = _snap(1.0 - config.delta_t * i)
        if t <= config.t_stop + _T_EPS:
            break
        x_hat = den.estimate(y, t)
        a_1 = proc.apply(1.0, x_hat)
        eps_dc = mse(y_tilde, a_1)
        traj.steps.append(
            TrajectoryStep(
                t=t,
                iterate=y,
                estimate=x_hat,
                eps_dc=eps_dc,
                # Distortion/perception metrics track the iterate (the output
                # an early stop at t would return), not the posterior mean.
                psnr_vs_truth=psnr(y, truth) if truth is not None else math.nan,
                prior_nll=prior_nll(prior, y) if prior is not None else math.nan,
            )
        )
        tau = _snap(max(t - config.delta_t, 0.0))
        a_t = proc.apply(t, x_hat)
        y_r = incremental_estimate(
            den, proc, t, config.delta_t, y, config.increment_variant, config.small_dt,
            x_hat=x_hat, a_t=a_t,
        )
        y_d = denoising_term(proc, noise, t, config.delta_t, y, x_hat, a_t=a_t)
        new = y.values + y_r.values + y_d.values
        if config.guidance_mode != "none" and config.eta > 0.0:
            new = new + guidance_term(
                den, proc, noise, t, config.delta_t, y, y_tilde,
                config.guidance_mode, config.eta, x_hat=x_hat, a_1=a_1,
            ).values
        s_t, s_tau = noise.sigma(t), noise.sigma(tau)
        if s_t > s_tau:
            new = new + math.sqrt(s_t * s_t - s_tau * s_tau) * rng.normal(y.n)
        y = y.with_values(new)
        if not np.all(np.isfinite(y.values)):
            traj.aborted = True
            traj.output = y
            return traj
    if config.output_mode == "posterior_mean" and traj.steps:
        traj.output = traj.steps[-1].estimate
    else:
        traj.output = y
    return traj


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per executed step, in write_csv's row format."""
    write_csv(path, "step,t,eps_dc,psnr,prior_nll",
              ((i, s.t, s.eps_dc, s.psnr_vs_truth, s.prior_nll) for i, s in enumerate(traj.steps)))
