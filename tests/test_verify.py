import math

import numpy as np
import pytest

from dirac.core import RandomSource, Signal, mse, prior_sample, squared_exponential_prior
from dirac.degrade import BlendingProcess, GaussianBlurProcess, GaussianMaskInpaintProcess
from dirac.denoise import GroundTruthDenoiser, OracleDenoiser
from dirac.sampler import SamplerConfig, dirac_sample
from dirac.sdp import NoiseSchedule, sdp_sample
from dirac.verify import (
    check_pair_consistency,
    eps_dc,
    perception_distortion_sweep,
    robustness_sweep,
    verify_theorem_bounds,
    verify_theorem_dc,
)

SHAPE = (8, 8)


@pytest.fixture
def setup():
    prior = squared_exponential_prior(SHAPE)
    proc = GaussianMaskInpaintProcess(SHAPE)
    noise = NoiseSchedule()
    x0 = prior_sample(prior, RandomSource(0))
    return prior, proc, noise, x0


def test_eps_dc_matches_definition(setup):
    _, proc, noise, x0 = setup
    y_tilde = sdp_sample(proc, noise, x0, 1.0, RandomSource(1))
    assert eps_dc(proc, y_tilde, x0) == mse(y_tilde, proc.apply(1.0, x0))
    assert eps_dc(proc, proc.apply(1.0, x0), x0) == 0.0


def test_pair_consistency_accepts_true_pair(setup):
    _, proc, _, x0 = setup
    v = check_pair_consistency(proc, 0.3, 0.8, proc.apply(0.3, x0), proc.apply(0.8, x0))
    assert v.consistent
    assert v.residual <= 1e-6
    # the recovered witness explains the less-degraded side almost exactly
    np.testing.assert_allclose(proc.apply(0.3, v.witness).values,
                               proc.apply(0.3, x0).values, atol=1e-4)


def test_pair_consistency_rejects_perturbed_pair(setup):
    # perturbing the visible pixels with per-entry RMS 0.1 must be detected
    prior, proc, _, x0 = setup
    y_lo = proc.apply(0.3, x0)
    y_hi = proc.apply(0.8, x0)
    bump = RandomSource(5).normal(x0.n)
    bump *= 0.1 * np.sqrt(x0.n) / np.linalg.norm(bump)
    v = check_pair_consistency(proc, 0.3, 0.8, y_lo, y_hi.with_values(y_hi.values + bump),
                               tolerance=1e-3)
    assert not v.consistent
    assert v.residual > 1e-3


def test_pair_consistency_order_check(setup):
    _, proc, _, x0 = setup
    y = proc.apply(0.5, x0)
    with pytest.raises(ValueError):
        check_pair_consistency(proc, 0.8, 0.3, y, y)


def test_pair_consistency_blur(setup):
    prior, _, _, x0 = setup
    proc = GaussianBlurProcess(SHAPE)
    v = check_pair_consistency(proc, 0.2, 0.9, proc.apply(0.2, x0), proc.apply(0.9, x0))
    assert v.consistent


def _stacked_lstsq(proc, tau, tau_plus, y_lo, y_hi):
    """Reference: one lstsq on the stacked dense operators, and its per-entry RMS residual."""
    m_lo, m_hi = proc.as_matrix(tau), proc.as_matrix(tau_plus)
    stacked = np.vstack([m_lo, m_hi])
    r = np.concatenate([y_lo.values - proc.offset(tau), y_hi.values - proc.offset(tau_plus)])
    x = np.linalg.lstsq(stacked, r, rcond=None)[0]
    res = stacked @ x - r
    return m_lo, m_hi, x, math.sqrt(res @ res / (2 * proc.n))


# (tau, tau_plus, RMS of the bump added to y_tau_plus)
_PAIRS = {
    "consistent": (0.3, 0.8, 0.0),
    "ill-conditioned": (0.86, 0.89, 0.0),  # blur's smallest mode is ~1e-12 here
    "perturbed": (0.3, 1.0, 0.1),
    "saturated": (1.0, 1.0, 0.1),  # blending: a = b = 0 in every mode
}
# At tau = tau_plus = 1 blur's smallest modes (~1e-16) are below lstsq's own rounding.
_CASES = [(f, p) for f in ("blur", "inpaint", "blending") for p in _PAIRS
          if p != "saturated" or f == "blending"]


@pytest.mark.parametrize("family,pair", _CASES)
@pytest.mark.parametrize("shape", [(6, 6), (5, 9), (12,)], ids=str)
def test_pair_consistency_matches_stacked_lstsq(shape, family, pair):
    tau, tau_plus, bump = _PAIRS[pair]
    prior = squared_exponential_prior(shape)
    x0 = prior_sample(prior, RandomSource(21))
    proc = {"blur": GaussianBlurProcess(shape), "inpaint": GaussianMaskInpaintProcess(shape),
            "blending": BlendingProcess(prior_sample(prior, RandomSource(22)))}[family]
    y_lo = proc.apply(tau, x0)
    y_hi = proc.apply(tau_plus, x0)
    y_hi = y_hi.with_values(y_hi.values + bump * RandomSource(23).normal(proc.n))
    v = check_pair_consistency(proc, tau, tau_plus, y_lo, y_hi)
    m_lo, m_hi, x, residual = _stacked_lstsq(proc, tau, tau_plus, y_lo, y_hi)
    assert abs(v.residual - residual) <= 1e-12
    assert v.consistent == (bump == 0.0)
    # The fitted measurements agree at any conditioning. The raw witness is compared
    # only where the smallest nonzero per-mode singular value sqrt(a^2 + b^2) exceeds
    # 1e-6: either solution's rounding there is about eps times the condition number.
    np.testing.assert_allclose(m_lo @ v.witness.values, m_lo @ x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(m_hi @ v.witness.values, m_hi @ x, rtol=0, atol=1e-12)
    s = np.hypot(proc.eigenvalues(tau), proc.eigenvalues(tau_plus))
    s_min = s[s > 0].min(initial=1.0)
    if s_min > 1e-6:
        np.testing.assert_allclose(v.witness.values, x, rtol=0, atol=1e-13 / s_min)


def test_theorem_dc_ground_truth_passes(setup):
    _, proc, noise, x0 = setup
    report = verify_theorem_dc(proc, noise, x0, delta_t=0.25, n_seeds=64)
    assert report.passed
    assert report.taus[0] == 1.0 and report.taus[-1] == 0.0
    assert all(d <= report.deviation_budget for d in report.deviations)


def test_theorem_dc_negative_control(setup):
    # a denoiser biased away from the truth must blow the deviation budget
    _, proc, noise, x0 = setup

    def biased(truth):
        return GroundTruthDenoiser(truth.with_values(truth.values + 0.5))

    report = verify_theorem_dc(proc, noise, x0, delta_t=0.25, n_seeds=64,
                               denoiser_factory=biased)
    assert not report.passed


def test_theorem_dc_deterministic(setup):
    _, proc, noise, x0 = setup
    a = verify_theorem_dc(proc, noise, x0, delta_t=0.5, n_seeds=16, base_seed=3)
    b = verify_theorem_dc(proc, noise, x0, delta_t=0.5, n_seeds=16, base_seed=3)
    assert a.deviations == b.deviations


@pytest.mark.parametrize("kind", ["inpaint", "blur"])
@pytest.mark.parametrize("delta_t", [0.05, 0.25, 0.3])
def test_theorem_dc_matches_severity_keyed_average(setup, kind, delta_t):
    # the iterates summed by step index equal a sum keyed on each rounded severity
    _, _, noise, x0 = setup
    proc = GaussianBlurProcess(SHAPE) if kind == "blur" else GaussianMaskInpaintProcess(SHAPE)
    n_seeds, base_seed = 6, 2
    report = verify_theorem_dc(proc, noise, x0, delta_t, n_seeds, base_seed=base_seed)
    den = GroundTruthDenoiser(x0)
    clean_deg = proc.apply(1.0, x0)
    rng = RandomSource(base_seed)
    per_tau, counts = {}, {}
    for s in range(n_seeds):
        y_tilde = clean_deg.with_values(
            clean_deg.values + noise.sigma(1.0) * rng.split(s).split(0).normal(x0.n))
        config = SamplerConfig(delta_t=delta_t, output_mode="final_iterate",
                               seed=base_seed * 1_000_003 + s)
        traj = dirac_sample(den, proc, noise, y_tilde, config)
        records = [(step.t, step.iterate.values) for step in traj.steps]
        records.append((max(traj.steps[-1].t - delta_t, 0.0), traj.output.values))
        for t, vals in records:
            key = round(t, 12)
            per_tau[key] = per_tau.get(key, 0.0) + vals
            counts[key] = counts.get(key, 0) + 1
    taus = sorted(per_tau, reverse=True)
    deviations = [float(np.linalg.norm(per_tau[key] / counts[key] - proc.apply(key, x0).values))
                  / np.sqrt(x0.n) for key in taus]
    assert report.taus == taus
    assert report.deviations == deviations


def test_theorem_bound_exact_oracle_gives_zero_lhs(setup):
    prior, proc, _, _ = setup
    report = verify_theorem_bounds(proc, prior, delta_t=0.1, eps_errs=(0.0,), trials=20)[0]
    assert report.passed
    assert report.max_lhs == 0.0


def test_theorem_bound_perturbed_oracle(setup):
    prior, proc, _, _ = setup
    report = verify_theorem_bounds(proc, prior, delta_t=0.1, eps_errs=(0.05,), trials=40)[0]
    assert report.passed
    assert report.violations == 0
    assert report.max_lhs > 0.0
    kept = len(report.lhs_values)
    assert kept + report.skipped == 40
    assert all(l <= r for l, r in zip(report.lhs_values, report.rhs_values))


def _bound_process(kind, prior):
    return {
        "blur": lambda: GaussianBlurProcess(SHAPE),
        "inpaint": lambda: GaussianMaskInpaintProcess(SHAPE),
        "blending": lambda: BlendingProcess(prior_sample(prior, RandomSource(99))),
    }[kind]()


@pytest.mark.parametrize("kind", ["blur", "inpaint", "blending"])
def test_theorem_bounds_equal_separate_audits(setup, kind):
    # one pass over the error levels reports exactly what one call per level does
    prior = setup[0]
    proc = _bound_process(kind, prior)
    levels = (0.0, 0.05, 0.1)
    joint = verify_theorem_bounds(proc, prior, 0.05, levels, trials=12, base_seed=4)
    separate = [verify_theorem_bounds(proc, prior, 0.05, (eps,), trials=12, base_seed=4)[0]
                for eps in levels]
    assert joint == separate
    assert joint[0].lhs_values and joint[0].lhs_values != joint[1].lhs_values


@pytest.mark.parametrize("kind", ["blur", "inpaint", "blending"])
def test_theorem_bounds_solve_no_posterior(setup, kind, monkeypatch):
    def refuse(self, y, t):
        raise AssertionError("the bound audit solved a posterior")

    monkeypatch.setattr(OracleDenoiser, "estimate", refuse)
    prior = setup[0]
    reports = verify_theorem_bounds(_bound_process(kind, prior), prior, 0.1, (0.0, 0.1), trials=8)
    assert reports[1].max_lhs > 0.0


@pytest.mark.parametrize("kind", ["blur", "inpaint", "blending"])
def test_theorem_bounds_lhs_matches_perturbed_oracle(setup, kind):
    # LHS = ||R_hat - R*|| with Phi* the posterior mean and Phi_hat = Phi* + eps u / ||M_t u||,
    # rebuilt from each trial's streams: 0 (x0, entry-bound skip), 1 (t), 2 (y), 3 (u)
    prior, _, noise, _ = setup
    proc = _bound_process(kind, prior)
    delta_t, levels, trials = 0.1, (0.0, 0.05, 0.1), 30
    reports = verify_theorem_bounds(proc, prior, delta_t, levels, trials, base_seed=2)
    oracle = OracleDenoiser(prior, proc, noise)
    rng = RandomSource(2)
    expected = [[] for _ in levels]
    for trial in range(trials):
        sub = rng.split(trial)
        x0 = prior_sample(prior, sub.split(0))
        if np.max(np.abs(x0.values)) > prior.entry_bound:
            continue
        t = float(sub.split(1).uniform())
        tau = max(t - delta_t, 0.0)
        mmse = oracle.estimate(sdp_sample(proc, noise, x0, t, sub.split(2)), t).values
        u_rng = sub.split(3)
        u = u_rng.normal(prior.n)
        while np.linalg.norm(proc.matvec(t, u)) < 1e-12:
            u = u_rng.normal(prior.n)
        delta = u / np.linalg.norm(proc.matvec(t, u))

        def r(phi):
            est = Signal(phi, SHAPE)
            return proc.apply(tau, est).values - proc.apply(t, est).values

        for eps, lhs in zip(levels, expected):
            lhs.append(float(np.linalg.norm(r(mmse + eps * delta) - r(mmse))))
    for report, lhs in zip(reports, expected):
        assert len(lhs) > trials // 2
        np.testing.assert_allclose(report.lhs_values, lhs, rtol=0, atol=1e-14)


def test_pd_sweep_shapes_and_determinism(setup):
    prior, proc, noise, x0 = setup
    den = OracleDenoiser(prior, proc, noise)
    cfg = SamplerConfig(delta_t=0.2, output_mode="final_iterate", seed=11)
    a = perception_distortion_sweep(den, proc, noise, prior, cfg, runs=4, base_seed=7)
    b = perception_distortion_sweep(den, proc, noise, prior, cfg, runs=4, base_seed=7)
    assert len(a.ts) == 5
    assert a.psnr_mean == b.psnr_mean and a.nll_mean == b.nll_mean
    assert all(np.isfinite(a.psnr_mean)) and all(np.isfinite(a.nll_mean))


def test_robustness_sweep_noise(setup):
    prior, proc, noise, _ = setup
    den = OracleDenoiser(prior, proc, noise)
    cfg = SamplerConfig(delta_t=0.25, output_mode="posterior_mean", seed=2)
    report = robustness_sweep(den, proc, noise, prior, cfg, kind="noise",
                              grid=(0.05, 0.2))
    assert report.grid == [0.05, 0.2]
    assert len(report.psnr) == 2
    # reconstruction degrades when the true noise exceeds the assumed level
    assert report.psnr[0] > report.psnr[1]


def test_robustness_sweep_operator(setup):
    prior, proc, noise, _ = setup
    den = OracleDenoiser(prior, proc, noise)
    cfg = SamplerConfig(delta_t=0.25, output_mode="posterior_mean", seed=2)

    def factory(mult):
        return GaussianMaskInpaintProcess(SHAPE, k=4 * mult)

    report = robustness_sweep(den, proc, noise, prior, cfg, kind="operator",
                              grid=(1.0, 1.4), perturbed_process_factory=factory)
    assert len(report.psnr) == 2
    assert report.psnr[0] >= report.psnr[1]


def test_robustness_sweep_validation(setup):
    prior, proc, noise, _ = setup
    den = OracleDenoiser(prior, proc, noise)
    cfg = SamplerConfig(delta_t=0.25, seed=2)
    with pytest.raises(ValueError):
        robustness_sweep(den, proc, noise, prior, cfg, kind="bogus")
    with pytest.raises(ValueError):
        robustness_sweep(den, proc, noise, prior, cfg, kind="operator")
