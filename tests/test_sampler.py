import math

import numpy as np
import pytest

from dirac.core import RandomSource, Signal, prior_sample, squared_exponential_prior
from dirac.degrade import BlendingProcess, GaussianMaskInpaintProcess
from dirac.denoise import Denoiser, GroundTruthDenoiser, OracleDenoiser
from dirac.sampler import (
    SamplerConfig,
    denoising_term,
    dirac_sample,
    guidance_term,
    incremental_estimate,
    write_trajectory_csv,
)
from dirac.sdp import NoiseSchedule, sdp_sample

SHAPE = (6, 6)


@pytest.fixture
def setup():
    prior = squared_exponential_prior(SHAPE)
    proc = GaussianMaskInpaintProcess(SHAPE)
    noise = NoiseSchedule()
    x0 = prior_sample(prior, RandomSource(0))
    y_tilde = sdp_sample(proc, noise, x0, 1.0, RandomSource(1))
    return prior, proc, noise, x0, y_tilde


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(delta_t=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(t_stop=1.5)
    with pytest.raises(ValueError):
        SamplerConfig(guidance_mode="bogus")
    with pytest.raises(ValueError):
        SamplerConfig(increment_variant="XX")
    with pytest.raises(ValueError):
        SamplerConfig(increment_variant="SLA")  # needs small_dt
    with pytest.raises(ValueError):
        SamplerConfig(increment_variant="SLA", small_dt=0.05)  # >= delta_t


def test_severity_grid_and_step_count(setup):
    _, proc, noise, x0, y_tilde = setup
    traj = dirac_sample(GroundTruthDenoiser(x0), proc, noise, y_tilde,
                        SamplerConfig(delta_t=0.25, seed=2))
    assert [s.t for s in traj.steps] == pytest.approx([1.0, 0.75, 0.5, 0.25])


def test_single_step_run(setup):
    _, proc, noise, x0, y_tilde = setup
    traj = dirac_sample(GroundTruthDenoiser(x0), proc, noise, y_tilde,
                        SamplerConfig(delta_t=0.5, t_stop=0.5, seed=3))
    assert len(traj.steps) == 1
    assert traj.steps[0].t == 1.0


def test_telescoping_noiseless_ground_truth(setup):
    _, proc, _, x0, _ = setup
    noiseless = NoiseSchedule(0.0, 0.0)
    y_tilde = proc.apply(1.0, x0)
    for dt in (0.5, 0.1, 0.02):
        traj = dirac_sample(GroundTruthDenoiser(x0), proc, noiseless, y_tilde,
                            SamplerConfig(delta_t=dt, output_mode="final_iterate"))
        err = np.max(np.abs(traj.output.values - proc.apply(0.0, x0).values))
        assert err <= 1e-10


def test_incremental_estimate_la_matches_definition(setup):
    prior, proc, noise, x0, y_tilde = setup
    den = OracleDenoiser(prior, proc, noise)
    t, dt = 0.7, 0.1
    got = incremental_estimate(den, proc, t, dt, y_tilde, "LA").values
    est = den.estimate(y_tilde, t)
    expected = proc.apply(t - dt, est).values - proc.apply(t, est).values
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_incremental_estimate_sla_exact_for_blending(setup):
    # blending is linear in t, so the scaled short-step difference is exact
    prior, _, noise, x0, y_tilde = setup
    proc = BlendingProcess(y_tilde)
    den = OracleDenoiser(prior, proc, noise)
    t, dt = 0.6, 0.2
    la = incremental_estimate(den, proc, t, dt, y_tilde, "LA").values
    sla = incremental_estimate(den, proc, t, dt, y_tilde, "SLA", small_dt=0.05).values
    np.testing.assert_allclose(sla, la, atol=1e-10)
    slb = incremental_estimate(den, proc, t, dt, y_tilde, "SLB", small_dt=0.05).values
    np.testing.assert_allclose(slb, la, atol=1e-10)


def test_incremental_estimate_lb_clamps_at_one(setup):
    prior, proc, noise, _, y_tilde = setup
    den = OracleDenoiser(prior, proc, noise)
    got = incremental_estimate(den, proc, 1.0, 0.1, y_tilde, "LB").values
    # t + dt clamps to 1, so the backward difference collapses to zero
    np.testing.assert_allclose(got, 0.0, atol=1e-14)


def test_denoising_term_formula(setup):
    prior, proc, noise, x0, y_tilde = setup
    t, dt = 0.8, 0.1
    x_hat = OracleDenoiser(prior, proc, noise).estimate(y_tilde, t)
    got = denoising_term(proc, noise, t, dt, y_tilde, x_hat).values
    s_t, s_tau = noise.sigma(t), noise.sigma(t - dt)
    expected = -(s_tau**2 - s_t**2) / s_t**2 * (proc.apply(t, x_hat).values - y_tilde.values)
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_denoising_term_zero_when_noiseless(setup):
    _, proc, _, x0, y_tilde = setup
    got = denoising_term(proc, NoiseSchedule(0, 0), 0.8, 0.1, y_tilde, x0).values
    np.testing.assert_array_equal(got, 0.0)


def test_guidance_zero_eta_contributes_nothing(setup):
    prior, proc, noise, x0, y_tilde = setup
    den = OracleDenoiser(prior, proc, noise)
    for mode in ("std_scaled", "error_scaled"):
        got = guidance_term(den, proc, noise, 0.7, 0.1, y_tilde, y_tilde, mode, 0.0).values
        np.testing.assert_array_equal(got, 0.0)


def test_guidance_matches_finite_difference_gradient(setup):
    prior, proc, noise, x0, y_tilde = setup
    den = OracleDenoiser(prior, proc, noise)
    t, dt, eta = 0.7, 0.1, 0.3
    got = guidance_term(den, proc, noise, t, dt, y_tilde, y_tilde, "std_scaled", eta).values
    # numeric gradient of ||y_tilde - A_1(Phi(y,t))||^2 in y
    def objective(v):
        est = den.estimate(y_tilde.with_values(v), t)
        r = y_tilde.values - proc.apply(1.0, est).values
        return float(r @ r)
    eps = 1e-6
    grad = np.zeros(y_tilde.n)
    for i in range(y_tilde.n):
        vp, vm = y_tilde.values.copy(), y_tilde.values.copy()
        vp[i] += eps
        vm[i] -= eps
        grad[i] = (objective(vp) - objective(vm)) / (2 * eps)
    s_t, s_tau = noise.sigma(t), noise.sigma(t - dt)
    expected = (s_tau**2 - s_t**2) * grad * eta / (2 * noise.sigma(1.0) ** 2)
    np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-12)


def test_guidance_requires_vjp(setup):
    _, proc, noise, x0, y_tilde = setup

    class NoVjp(Denoiser):
        def estimate(self, y, t):
            return y

    with pytest.raises(ValueError):
        guidance_term(NoVjp(), proc, noise, 0.7, 0.1, y_tilde, y_tilde, "std_scaled", 0.5)


def test_one_step_update_decomposition(setup):
    # the first sampler step equals the sum of its published terms
    prior, proc, noise, x0, y_tilde = setup
    den = OracleDenoiser(prior, proc, noise)
    cfg = SamplerConfig(delta_t=0.25, eta=0.2, guidance_mode="std_scaled",
                        output_mode="final_iterate", seed=7)
    traj = dirac_sample(den, proc, noise, y_tilde, cfg)
    t0, t1 = 1.0, 0.75
    x_hat = den.estimate(y_tilde, t0)
    manual = (
        y_tilde.values
        + incremental_estimate(den, proc, t0, 0.25, y_tilde, "LA").values
        + denoising_term(proc, noise, t0, 0.25, y_tilde, x_hat).values
        + guidance_term(den, proc, noise, t0, 0.25, y_tilde, y_tilde,
                        "std_scaled", 0.2).values
        + math.sqrt(noise.sigma(t0) ** 2 - noise.sigma(t1) ** 2)
        * RandomSource(7).normal(y_tilde.n)
    )
    np.testing.assert_allclose(traj.steps[1].iterate.values, manual, atol=1e-12)


@pytest.mark.parametrize("guidance", ["none", "std_scaled"])
def test_one_estimate_per_step(setup, guidance):
    prior, proc, noise, x0, y_tilde = setup

    class Counting(OracleDenoiser):
        calls = 0

        def estimate(self, y, t):
            self.calls += 1
            return super().estimate(y, t)

    den = Counting(prior, proc, noise)
    cfg = SamplerConfig(delta_t=0.25, eta=0.2, guidance_mode=guidance, seed=7)
    traj = dirac_sample(den, proc, noise, y_tilde, cfg)
    assert len(traj.steps) == 4
    assert den.calls == len(traj.steps)


def test_posterior_mean_output_mode(setup):
    prior, proc, noise, x0, y_tilde = setup
    den = OracleDenoiser(prior, proc, noise)
    traj = dirac_sample(den, proc, noise, y_tilde,
                        SamplerConfig(delta_t=0.25, output_mode="posterior_mean", seed=8))
    np.testing.assert_array_equal(traj.output.values, traj.steps[-1].estimate.values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_abort_on_non_finite(setup):
    _, proc, noise, x0, y_tilde = setup

    class Exploding(Denoiser):
        supports_vjp = False

        def estimate(self, y, t):
            return y.with_values(np.full(y.n, np.inf))

    traj = dirac_sample(Exploding(), proc, noise, y_tilde, SamplerConfig(delta_t=0.25))
    assert traj.aborted


def test_metrics_recorded_when_context_given(setup):
    prior, proc, noise, x0, y_tilde = setup
    den = OracleDenoiser(prior, proc, noise)
    traj = dirac_sample(den, proc, noise, y_tilde, SamplerConfig(delta_t=0.5, seed=9),
                        truth=x0, prior=prior)
    for step in traj.steps:
        assert math.isfinite(step.psnr_vs_truth)
        assert math.isfinite(step.prior_nll)
        assert step.eps_dc >= 0.0
    bare = dirac_sample(den, proc, noise, y_tilde, SamplerConfig(delta_t=0.5, seed=9))
    assert math.isnan(bare.steps[0].psnr_vs_truth)


def test_trajectory_csv_deterministic(tmp_path, setup):
    prior, proc, noise, x0, y_tilde = setup
    den = OracleDenoiser(prior, proc, noise)
    paths = []
    for name in ("a.csv", "b.csv"):
        traj = dirac_sample(den, proc, noise, y_tilde,
                            SamplerConfig(delta_t=0.2, seed=10), truth=x0, prior=prior)
        p = tmp_path / name
        write_trajectory_csv(traj, p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]
    assert paths[0].startswith(b"step,t,eps_dc,psnr,prior_nll\n")
