import numpy as np
import pytest

from dirac.core import RandomSource, Signal, mse, prior_sample, squared_exponential_prior
from dirac.degrade import BlendingProcess, GaussianBlurProcess, GaussianMaskInpaintProcess
from dirac.denoise import GroundTruthDenoiser, OracleDenoiser
from dirac.sampler import SamplerConfig
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
