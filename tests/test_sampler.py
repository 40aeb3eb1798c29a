import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirac.core import RandomSource, Signal, mse, prior_sample, squared_exponential_prior
from dirac.degrade import BlendingProcess, GaussianBlurProcess, GaussianMaskInpaintProcess
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
    with pytest.raises(ValueError):
        SamplerConfig(eta=math.nan)
    with pytest.raises(ValueError):
        SamplerConfig(small_dt=math.nan)
    with pytest.raises(ValueError):
        SamplerConfig(small_dt=-1.0)  # set but not positive, for any variant


@pytest.mark.parametrize("variant,small_dt", [("XX", None), ("SLA", None), ("SLB", 0.1),
                                              ("SLA", 0.0)])
def test_config_and_step_refuse_the_same_variants(setup, variant, small_dt):
    _, proc, _, x0, y_tilde = setup
    with pytest.raises(ValueError) as config_error:
        SamplerConfig(delta_t=0.1, increment_variant=variant, small_dt=small_dt or None)
    with pytest.raises(ValueError) as step_error:
        incremental_estimate(GroundTruthDenoiser(x0), proc, 0.5, 0.1, y_tilde, variant, small_dt)
    assert str(step_error.value) == str(config_error.value)


def test_severity_grid_and_step_count(setup):
    _, proc, noise, x0, y_tilde = setup
    traj = dirac_sample(GroundTruthDenoiser(x0), proc, noise, y_tilde,
                        SamplerConfig(delta_t=0.25, seed=2))
    assert [s.t for s in traj.steps] == pytest.approx([1.0, 0.75, 0.5, 0.25])


@given(st.floats(1e-3, 1.0), st.floats(0.0, 1.0, exclude_max=True))
def test_severity_grid_stops_at_t_stop(delta_t, t_stop):
    # Delta t below 1e-3 is left out only because the step count grows as 1/Delta t.
    x0 = Signal.from_array(np.array([0.2, 0.7]))
    proc = BlendingProcess(Signal.from_array(np.array([0.5, 0.1])))
    traj = dirac_sample(GroundTruthDenoiser(x0), proc, NoiseSchedule(), proc.apply(1.0, x0),
                        SamplerConfig(delta_t=delta_t, t_stop=t_stop))
    assert all(step.t > t_stop for step in traj.steps)
    assert max(1.0 - delta_t * len(traj.steps), 0.0) <= t_stop + 1e-12  # the next t stops
    assert len(traj.steps) <= math.floor(1.0 / delta_t) + 1


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


@pytest.mark.parametrize("kind, t", [("blur", 0.3), ("blur", 0.7), ("blur", 1.0),
                                     ("inpaint", 0.3), ("inpaint", 0.7), ("inpaint", 1.0),
                                     ("blending", 0.3), ("blending", 0.7)])
def test_guidance_matches_finite_difference_gradient(setup, kind, t):
    # blending stops at t = 0.7: its A_1 ignores x, so the objective is constant at every t
    prior, _, noise, x0, _ = setup
    if kind == "blending":
        proc = BlendingProcess(prior_sample(prior, RandomSource(2)))
    else:
        proc = GaussianBlurProcess(SHAPE) if kind == "blur" else GaussianMaskInpaintProcess(SHAPE)
    y_tilde = sdp_sample(proc, noise, x0, 1.0, RandomSource(1))
    den = OracleDenoiser(prior, proc, noise)
    dt, eta = 0.1, 0.3
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

    # without a vjp a denoiser samples unguided, and a guided run fails at its first vjp
    unguided = dirac_sample(NoVjp(), proc, noise, y_tilde, SamplerConfig(delta_t=0.25))
    assert len(unguided.steps) == 4 and not unguided.aborted
    with pytest.raises(NotImplementedError, match="^NoVjp does not support vjp$"):
        guidance_term(NoVjp(), proc, noise, 0.7, 0.1, y_tilde, y_tilde, "std_scaled", 0.5)
    with pytest.raises(NotImplementedError, match="^NoVjp does not support vjp$"):
        dirac_sample(NoVjp(), proc, noise, y_tilde,
                     SamplerConfig(delta_t=0.25, eta=0.5, guidance_mode="std_scaled"))


@pytest.mark.parametrize("guidance", ["none", "std_scaled", "error_scaled"])
@pytest.mark.parametrize("variant", ["LA", "SLA", "LB", "SLB"])
@pytest.mark.parametrize("kind", ["blur", "inpaint"])
def test_every_step_equals_its_published_terms(setup, kind, variant, guidance):
    # each step, rebuilt from the public terms (each forming its own operator
    # products) and the same noise stream, is the sampler's next iterate bit for bit
    prior, _, noise, x0, _ = setup
    proc = GaussianBlurProcess(SHAPE) if kind == "blur" else GaussianMaskInpaintProcess(SHAPE)
    y_tilde = sdp_sample(proc, noise, x0, 1.0, RandomSource(1))
    den = OracleDenoiser(prior, proc, noise)
    dt, small_dt, eta = 0.25, (0.1 if variant.startswith("S") else None), 0.2
    cfg = SamplerConfig(delta_t=dt, eta=eta, guidance_mode=guidance, increment_variant=variant,
                        small_dt=small_dt, output_mode="final_iterate", seed=7)
    traj = dirac_sample(den, proc, noise, y_tilde, cfg)
    assert len(traj.steps) == 4
    rng = RandomSource(7)
    nexts = [step.iterate for step in traj.steps[1:]] + [traj.output]
    y = y_tilde
    for step, following in zip(traj.steps, nexts):
        t = step.t
        x_hat = den.estimate(y, t)
        np.testing.assert_array_equal(step.iterate.values, y.values)
        np.testing.assert_array_equal(step.estimate.values, x_hat.values)
        assert step.eps_dc == mse(y_tilde, proc.apply(1.0, x_hat))
        new = (y.values
               + incremental_estimate(den, proc, t, dt, y, variant, small_dt).values
               + denoising_term(proc, noise, t, dt, y, x_hat).values)
        if guidance != "none":
            new = new + guidance_term(den, proc, noise, t, dt, y, y_tilde, guidance, eta).values
        s_t, s_tau = noise.sigma(t), noise.sigma(t - dt)
        new = new + math.sqrt(s_t * s_t - s_tau * s_tau) * rng.normal(y.n)
        np.testing.assert_array_equal(following.values, new)
        y = following


class _CountingProcess:
    """Delegates to a process, counting its operator products."""

    def __init__(self, proc):
        self._proc = proc
        self.calls = 0

    def apply(self, t, x):
        self.calls += 1
        return self._proc.apply(t, x)

    def matvec(self, t, x):
        self.calls += 1
        return self._proc.matvec(t, x)

    def rmatvec(self, t, x):
        self.calls += 1
        return self._proc.rmatvec(t, x)

    def __getattr__(self, name):
        return getattr(self._proc, name)


@pytest.mark.parametrize("guidance,per_step", [("none", 5), ("std_scaled", 7)])
def test_operator_products_per_step(setup, guidance, per_step):
    # the oracle's estimate takes A_t(mu) and A_t^T, its vjp A_t; the sampler adds
    # A_1(x_hat), A_t(x_hat) and A_tau(x_hat), and A_1^T when guided
    prior, _, noise, x0, _ = setup
    proc = _CountingProcess(GaussianBlurProcess(SHAPE))
    y_tilde = sdp_sample(proc, noise, x0, 1.0, RandomSource(1))

    class Counting(OracleDenoiser):
        estimates = vjps = 0

        def estimate(self, y, t):
            self.estimates += 1
            return super().estimate(y, t)

        def vjp(self, y, t, v):
            self.vjps += 1
            return super().vjp(y, t, v)

    den = Counting(prior, proc, noise)
    cfg = SamplerConfig(delta_t=0.25, eta=0.2, guidance_mode=guidance, seed=7)
    # the cold run factors every severity from the process's add_gram, with no operator product
    for _ in ("cold", "warm"):
        proc.calls = den.estimates = den.vjps = 0
        traj = dirac_sample(den, proc, noise, y_tilde, cfg, truth=x0, prior=prior)
        steps = len(traj.steps)
        assert steps == 4
        assert proc.calls == per_step * steps
        assert den.estimates == steps
        assert den.vjps == (steps if guidance != "none" else 0)


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
