import math

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import multivariate_normal

from dirac.core import RandomSource, prior_sample, squared_exponential_prior
from dirac.degrade import BlendingProcess, GaussianBlurProcess, GaussianMaskInpaintProcess
from dirac.denoise import GroundTruthDenoiser, score_from_denoiser
from dirac.sdp import NoiseSchedule, marginal_score, sdp_sample

SHAPE = (6, 6)


@pytest.fixture
def setup():
    prior = squared_exponential_prior(SHAPE)
    proc = GaussianMaskInpaintProcess(SHAPE)
    noise = NoiseSchedule()
    return prior, proc, noise


def test_sigma_geometric_endpoints_and_midpoint():
    noise = NoiseSchedule(sigma_min=0.01, sigma_max=0.05)
    assert noise.sigma(0.0) == pytest.approx(0.01)
    assert noise.sigma(1.0) == pytest.approx(0.05)
    assert noise.sigma(0.5) == pytest.approx(math.sqrt(0.01 * 0.05))


def test_sigma_validation():
    with pytest.raises(ValueError):
        NoiseSchedule(sigma_min=-0.1, sigma_max=0.05)
    with pytest.raises(ValueError):
        NoiseSchedule(sigma_min=0.05, sigma_max=0.01)
    with pytest.raises(ValueError):
        NoiseSchedule(sigma_min=0.0, sigma_max=0.05)
    with pytest.raises(ValueError):
        NoiseSchedule(sigma_min=math.nan, sigma_max=math.nan)
    with pytest.raises(ValueError):
        NoiseSchedule().sigma(1.5)


def test_noiseless_schedule_allowed():
    noise = NoiseSchedule(sigma_min=0.0, sigma_max=0.0)
    assert noise.sigma(0.0) == 0.0
    assert noise.sigma(1.0) == 0.0


def test_sdp_sample_noiseless_is_exact(setup):
    prior, proc, _ = setup
    x0 = prior_sample(prior, RandomSource(0))
    noiseless = NoiseSchedule(0.0, 0.0)
    y = sdp_sample(proc, noiseless, x0, 0.7, RandomSource(1))
    np.testing.assert_array_equal(y.values, proc.apply(0.7, x0).values)


def test_sdp_sample_noise_statistics(setup):
    prior, proc, noise = setup
    x0 = prior_sample(prior, RandomSource(0))
    t = 1.0
    rng = RandomSource(2)
    resid = np.array([
        sdp_sample(proc, noise, x0, t, rng.split(i)).values - proc.apply(t, x0).values
        for i in range(4000)
    ])
    assert resid.mean() == pytest.approx(0.0, abs=3e-3)
    assert resid.std() == pytest.approx(noise.sigma(t), rel=0.05)


def test_sdp_sample_masked_center_pure_noise(setup):
    prior, proc, noise = setup
    x0 = prior_sample(prior, RandomSource(0))
    center = 3 * 6 + 3
    rng = RandomSource(3)
    vals = np.array([
        sdp_sample(proc, noise, x0, 1.0, rng.split(i)).values[center] for i in range(4000)
    ])
    assert vals.mean() == pytest.approx(0.0, abs=3 * 0.05 / math.sqrt(4000) * 2)
    assert vals.std() == pytest.approx(0.05, rel=0.06)


def test_conditional_score_matches_gaussian_gradient(setup):
    prior, proc, noise = setup
    x0 = prior_sample(prior, RandomSource(0))
    t = 0.6
    y = sdp_sample(proc, noise, x0, t, RandomSource(4))
    # the score a denoiser that returns x0 implies is the conditional score of y given x0
    got = score_from_denoiser(GroundTruthDenoiser(x0), proc, noise, y, t).values
    # independent: numerical gradient of log N(y; A_t x0, sigma^2 I)
    s = noise.sigma(t)
    mean = proc.apply(t, x0).values
    eps = 1e-6
    for idx in (0, 17, 35):
        yp, ym = y.values.copy(), y.values.copy()
        yp[idx] += eps
        ym[idx] -= eps
        lp = -np.sum((yp - mean) ** 2) / (2 * s * s)
        lm = -np.sum((ym - mean) ** 2) / (2 * s * s)
        assert got[idx] == pytest.approx((lp - lm) / (2 * eps), rel=1e-6)


def test_marginal_score_matches_numerical_gradient(setup):
    prior, proc, noise = setup
    x0 = prior_sample(prior, RandomSource(5))
    t = 0.8
    y = sdp_sample(proc, noise, x0, t, RandomSource(6))
    got = marginal_score(prior, proc, noise, y, t).values
    m = proc.as_matrix(t)
    cov = m @ prior.covariance @ m.T + noise.sigma(t) ** 2 * np.eye(prior.n)
    mean = proc.apply(t, prior.mean).values
    dist = multivariate_normal(mean=mean, cov=cov)
    eps = 1e-6
    for idx in (0, 10, 21):
        yp, ym = y.values.copy(), y.values.copy()
        yp[idx] += eps
        ym[idx] -= eps
        num = (dist.logpdf(yp) - dist.logpdf(ym)) / (2 * eps)
        assert got[idx] == pytest.approx(num, rel=1e-4)


def test_marginal_score_zero_at_mean(setup):
    prior, proc, noise = setup
    t = 0.4
    y = proc.apply(t, prior.mean)
    got = marginal_score(prior, proc, noise, y, t).values
    np.testing.assert_allclose(got, 0.0, atol=1e-12)


@pytest.mark.parametrize("shape", [(12,), (6, 6), (5, 9)], ids=["12", "6x6", "5x9"])
@pytest.mark.parametrize("family", ["blur", "inpaint", "blending"])
def test_marginal_score_forms_its_covariance_in_two_operator_calls(shape, family, monkeypatch):
    prior = squared_exponential_prior(shape)
    proc = {"blur": lambda: GaussianBlurProcess(shape),
            "inpaint": lambda: GaussianMaskInpaintProcess(shape),
            "blending": lambda: BlendingProcess(prior_sample(prior, RandomSource(4)))}[family]()
    noise = NoiseSchedule()
    t = 0.55
    y = sdp_sample(proc, noise, prior_sample(prior, RandomSource(5)), t, RandomSource(6))
    # M Sigma M^T pushed through one row and one column at a time, with the same
    # Cholesky: the batched calls give the same bits
    sigma_m = np.array([proc.rmatvec(t, row) for row in prior.covariance])
    cov = np.array([proc.matvec(t, col) for col in sigma_m.T]).T
    cov += noise.sigma(t) ** 2 * np.eye(prior.n)
    resid = y.values - proc.apply(t, prior.mean).values
    expected = -scipy.linalg.cho_solve(scipy.linalg.cho_factor(cov), resid)
    calls = []
    real = type(proc).matvec
    monkeypatch.setattr(type(proc), "matvec", lambda self, *a: calls.append(1) or real(self, *a))
    assert np.array_equal(marginal_score(prior, proc, noise, y, t).values, expected)
    assert len(calls) <= 3  # rmatvec on Sigma, matvec on its columns, and A_t(mu)
