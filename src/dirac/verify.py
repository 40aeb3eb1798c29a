"""Verification harness: consistency checks, error-bound audits, curve sweeps.

Everything here is exact or tolerance-budgeted: feasibility residuals for the
pairwise consistency definition, Monte-Carlo budgets (4 sigma_1 / sqrt(S)) for
seed-averaged trajectories, and shape-level acceptance for the
perception-distortion reproduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import GaussianPrior, RandomSource, Signal, mse, prior_nll, prior_sample, psnr
from .degrade import DegradationProcess, lipschitz_t_estimate
# OracleDenoiser is unused here; perfbench's tracer patches verify.OracleDenoiser (--trace 1)
from .denoise import Denoiser, GroundTruthDenoiser, OracleDenoiser  # noqa: F401
from .sampler import SamplerConfig, dirac_sample
from .sdp import NoiseSchedule, sdp_sample

__all__ = [
    "ConsistencyVerdict",
    "eps_dc",
    "check_pair_consistency",
    "verify_theorem_dc",
    "verify_theorem_bounds",
    "perception_distortion_sweep",
    "robustness_sweep",
    "DcReport",
    "BoundReport",
    "PdReport",
    "RobustnessReport",
]


@dataclass(frozen=True)
class ConsistencyVerdict:
    consistent: bool
    residual: float  # per-entry RMS feasibility residual at the witness
    witness: Signal


def eps_dc(proc: DegradationProcess, y_tilde: Signal, x_hat: Signal) -> float:
    """Per-entry mean squared measurement-consistency error of an estimate."""
    return mse(y_tilde, proc.apply(1.0, x_hat))


def check_pair_consistency(
    proc: DegradationProcess,
    tau: float,
    tau_plus: float,
    y_tau: Signal,
    y_tau_plus: Signal,
    tolerance: float = 1e-6,
) -> ConsistencyVerdict:
    """Least-squares feasibility test: does one clean signal explain both?

    Minimizes ||A_tau(x) - y_tau||^2 + ||A_tau+(x) - y_tau+||^2 in the family's
    eigenbasis, one unknown per mode: with eigenvalues a, b and residuals r1, r2
    the minimum is |b r1 - a r2|^2/(a^2 + b^2) at (a r1 + b r2)/(a^2 + b^2), or
    |r1|^2 + |r2|^2 at 0 where a = b = 0 (the minimum-norm solution). The
    verdict compares the per-entry RMS residual against the tolerance.
    """
    if tau > tau_plus:
        raise ValueError("requires tau <= tau_plus")
    a, b = proc.eigenvalues(tau), proc.eigenvalues(tau_plus)
    r1 = proc.to_modes(y_tau.values - proc.offset(tau))
    r2 = proc.to_modes(y_tau_plus.values - proc.offset(tau_plus))
    norm2 = a * a + b * b
    live = norm2 > 0.0
    safe = np.where(live, norm2, 1.0)
    per_mode = np.where(live, np.abs(b * r1 - a * r2) ** 2 / safe,
                        np.abs(r1) ** 2 + np.abs(r2) ** 2)
    residual = math.sqrt(np.sum(per_mode) / (2 * proc.n))
    witness = Signal(proc.from_modes(np.where(live, (a * r1 + b * r2) / safe, 0.0)), y_tau.shape)
    return ConsistencyVerdict(residual <= tolerance, residual, witness)


@dataclass
class DcReport:
    taus: list[float] = field(default_factory=list)
    deviations: list[float] = field(default_factory=list)  # per-entry RMS of mean iterate
    verdicts: list[ConsistencyVerdict] = field(default_factory=list)
    deviation_budget: float = 0.0
    passed: bool = False


def verify_theorem_dc(
    proc: DegradationProcess,
    noise: NoiseSchedule,
    x0: Signal,
    delta_t: float,
    n_seeds: int,
    base_seed: int = 0,
    denoiser_factory=None,
) -> DcReport:
    """Seed-averaged data-consistency check for the idealized sampler.

    Runs ground-truth-denoiser trajectories (eta = 0, LA variant) from fresh
    noisy measurements, averages the iterate at each step, and checks
    (a) per-entry RMS deviation from A_tau(x0) within 4 sigma_1 / sqrt(S) and
    (b) pairwise consistency of each mean iterate against A_1(x0) at
    tolerance 5 sigma_1 / sqrt(S). A custom denoiser_factory(x0) hook exists
    for negative controls.
    """
    if denoiser_factory is None:
        denoiser_factory = GroundTruthDenoiser
    den = denoiser_factory(x0)
    sigma1 = noise.sigma(1.0)
    clean_deg = proc.apply(1.0, x0)
    rng = RandomSource(base_seed)
    total = 0.0  # (steps + 1, n): every seed visits the same severities
    for s in range(n_seeds):
        seed_rng = rng.split(s)
        y_tilde = clean_deg
        if sigma1 > 0:
            y_tilde = clean_deg.with_values(
                clean_deg.values + sigma1 * seed_rng.split(0).normal(x0.n)
            )
        config = SamplerConfig(delta_t=delta_t, output_mode="final_iterate",
                               seed=base_seed * 1_000_003 + s)
        traj = dirac_sample(den, proc, noise, y_tilde, config)
        total = total + np.array([step.iterate.values for step in traj.steps]
                                 + [traj.output.values])
    taus = [step.t for step in traj.steps] + [max(traj.steps[-1].t - delta_t, 0.0)]

    budget = 4.0 * sigma1 / math.sqrt(n_seeds)
    tol = 5.0 * sigma1 / math.sqrt(n_seeds)
    report = DcReport(deviation_budget=budget)
    for tau, summed in zip(taus, total):
        tau = round(tau, 12)
        mean_iter = Signal(summed / n_seeds, x0.shape)
        target = proc.apply(tau, x0)
        dev = float(np.linalg.norm(mean_iter.values - target.values)) / math.sqrt(x0.n)
        verdict = check_pair_consistency(proc, tau, 1.0, mean_iter, clean_deg, tolerance=tol)
        report.taus.append(tau)
        report.deviations.append(dev)
        report.verdicts.append(verdict)
    report.passed = all(d <= budget for d in report.deviations) and all(
        v.consistent for v in report.verdicts
    )
    return report


@dataclass
class BoundReport:
    max_lhs: float = 0.0
    rhs_values: list[float] = field(default_factory=list)
    lhs_values: list[float] = field(default_factory=list)
    violations: int = 0
    skipped: int = 0  # samples exceeding the prior entry bound
    passed: bool = False


def verify_theorem_bounds(
    proc: DegradationProcess,
    prior: GaussianPrior,
    delta_t: float,
    eps_errs,
    trials: int,
    base_seed: int = 0,
    lt_probes: int = 32,
) -> list[BoundReport]:
    """Audit the incremental-reconstruction error bound on random instances.

    Returns one report per error level in eps_errs, all over the same trials.
    The audited estimate is Phi* + delta with delta = eps_err u / ||M_t u||
    (u Gaussian, trial stream 3), so the score-error hypothesis holds with
    equality. LHS is ||R_hat - R*||, R = A_tau(Phi) - A_t(Phi); both operators
    are affine, so R_hat - R* = (M_tau - M_t) delta whatever Phi* is, and LHS
    = eps_err ||(M_tau - M_t) u|| / ||M_t u||: no posterior is solved. RHS
    combines the spatial Lipschitz constants, the probe-estimated temporal
    constant (a lower estimate, so violations are flagged rather than
    absorbed), and 2 eps_err. x0 is still drawn (stream 0) because the
    theorem assumes it entrywise bounded: a trial whose x0 exceeds the prior
    entry bound is skipped, and counts in every report.
    """
    rng = RandomSource(base_seed)
    lt = lipschitz_t_estimate(proc, 0.0, 1.0, prior, lt_probes, rng.split(10_001))
    reports = [BoundReport() for _ in eps_errs]
    sqrt_n_b = math.sqrt(prior.n) * prior.entry_bound
    for trial in range(trials):
        sub = rng.split(trial)
        x0 = prior_sample(prior, sub.split(0))
        if np.max(np.abs(x0.values)) > prior.entry_bound:
            for report in reports:
                report.skipped += 1
            continue
        t = float(sub.split(1).uniform())
        tau = max(t - delta_t, 0.0)
        u_rng = sub.split(3)
        u = u_rng.normal(prior.n)
        m_t_u = proc.matvec(t, u)
        while np.linalg.norm(m_t_u) < 1e-12:
            u = u_rng.normal(prior.n)
            m_t_u = proc.matvec(t, u)
        unit = float(np.linalg.norm(proc.matvec(tau, u) - m_t_u) / np.linalg.norm(m_t_u))
        rhs_base = (proc.lipschitz_x(t) + proc.lipschitz_x(tau)) * sqrt_n_b + 2.0 * lt * delta_t
        for eps_err, report in zip(eps_errs, reports):
            lhs = eps_err * unit
            rhs = rhs_base + 2.0 * eps_err
            report.lhs_values.append(lhs)
            report.rhs_values.append(rhs)
            report.max_lhs = max(report.max_lhs, lhs)
            if lhs > rhs:
                report.violations += 1
    for report in reports:
        report.passed = report.violations == 0
    return reports


@dataclass
class PdReport:
    ts: list[float] = field(default_factory=list)
    psnr_mean: list[float] = field(default_factory=list)
    psnr_std: list[float] = field(default_factory=list)
    nll_mean: list[float] = field(default_factory=list)
    nll_std: list[float] = field(default_factory=list)
    peak_t: float = math.nan  # severity of the distortion peak
    peak_psnr: float = math.nan
    peak_nll: float = math.nan
    final_nll: float = math.nan
    interior_peak: bool = False
    nll_improves_past_peak: bool = False


def perception_distortion_sweep(
    den: Denoiser,
    proc: DegradationProcess,
    noise: NoiseSchedule,
    prior: GaussianPrior,
    config: SamplerConfig,
    runs: int = 30,
    base_seed: int = 0,
) -> PdReport:
    """Mean distortion/perception curves over repeated trajectories.

    All runs start from the same measurement with different sampler seeds;
    reports where the distortion curve peaks and whether the perception proxy
    keeps improving past that peak.
    """
    rng = RandomSource(base_seed)
    truth = prior_sample(prior, rng.split(0))
    y_tilde = sdp_sample(proc, noise, truth, 1.0, rng.split(1))
    psnr_runs, nll_runs, ts = [], [], None
    for r in range(runs):
        cfg = replace(config, seed=config.seed + r)
        traj = dirac_sample(den, proc, noise, y_tilde, cfg, truth=truth, prior=prior)
        ts = [s.t for s in traj.steps]
        psnr_runs.append([s.psnr_vs_truth for s in traj.steps])
        nll_runs.append([s.prior_nll for s in traj.steps])
    psnr_arr = np.array(psnr_runs)
    nll_arr = np.array(nll_runs)
    report = PdReport(
        ts=ts,
        psnr_mean=list(psnr_arr.mean(axis=0)),
        psnr_std=list(psnr_arr.std(axis=0)),
        nll_mean=list(nll_arr.mean(axis=0)),
        nll_std=list(nll_arr.std(axis=0)),
    )
    peak = int(np.argmax(report.psnr_mean))
    report.peak_t = ts[peak]
    report.peak_psnr = report.psnr_mean[peak]
    report.peak_nll = report.nll_mean[peak]
    report.final_nll = report.nll_mean[-1]
    report.interior_peak = 0 < peak < len(ts) - 1
    report.nll_improves_past_peak = report.final_nll < report.peak_nll
    return report


@dataclass
class RobustnessReport:
    grid: list[float] = field(default_factory=list)
    psnr: list[float] = field(default_factory=list)
    nll: list[float] = field(default_factory=list)


def robustness_sweep(
    den: Denoiser,
    proc_train: DegradationProcess,
    noise_train: NoiseSchedule,
    prior: GaussianPrior,
    config: SamplerConfig,
    kind: str = "operator",
    grid=(0.6, 0.8, 1.0, 1.2, 1.4),
    base_seed: int = 0,
    perturbed_process_factory=None,
) -> RobustnessReport:
    """Train/test mismatch sweep: degrade measurements with a perturbed
    operator (multiplicative parameter factor) or noise level, reconstruct
    with the unperturbed assumptions, and record final PSNR and prior NLL.
    """
    if kind not in ("operator", "noise"):
        raise ValueError("kind must be 'operator' or 'noise'")
    rng = RandomSource(base_seed)
    truth = prior_sample(prior, rng.split(0))
    meas_noise = rng.split(1).normal(truth.n)
    report = RobustnessReport(grid=list(grid))
    for value in grid:
        if kind == "operator":
            if perturbed_process_factory is None:
                raise ValueError("operator sweep needs a perturbed_process_factory(multiplier)")
            meas_proc = perturbed_process_factory(value)
            s1 = noise_train.sigma(1.0)
        else:
            meas_proc = proc_train
            s1 = float(value)
        degraded = meas_proc.apply(1.0, truth)
        y_tilde = degraded.with_values(degraded.values + s1 * meas_noise)
        traj = dirac_sample(den, proc_train, noise_train, y_tilde, config,
                            truth=truth, prior=prior)
        report.psnr.append(psnr(traj.output, truth))
        report.nll.append(prior_nll(prior, traj.output))
    return report
