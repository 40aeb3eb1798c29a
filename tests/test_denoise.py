import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import blas, lapack

from dirac import cli, denoise
from dirac.core import RandomSource, Signal, mse, prior_sample, squared_exponential_prior
from dirac.degrade import BlendingProcess, GaussianBlurProcess, GaussianMaskInpaintProcess
from dirac.denoise import (
    _INVERSE_CACHE_BYTES,
    AffineDenoiser,
    GroundTruthDenoiser,
    OracleDenoiser,
    affine_loss_gradients,
    load_model,
    loss_denoising,
    loss_incremental,
    save_model,
    score_from_denoiser,
    train_affine,
)
from dirac.sampler import SamplerConfig, dirac_sample
from dirac.sdp import NoiseSchedule, conditional_score, marginal_score, sdp_sample

SHAPE = (6, 6)


@pytest.fixture
def setup():
    prior = squared_exponential_prior(SHAPE)
    proc = GaussianMaskInpaintProcess(SHAPE)
    noise = NoiseSchedule()
    return prior, proc, noise


def _batch(prior, proc, noise, seed, size=6):
    rng = RandomSource(seed)
    batch = []
    for i in range(size):
        sub = rng.split(i)
        x0 = prior_sample(prior, sub.split(0))
        t = 0.05 + 0.9 * float(sub.split(1).uniform())
        y = sdp_sample(proc, noise, x0, t, sub.split(2))
        batch.append((x0, y, t))
    return batch


# --- oracle ---------------------------------------------------------------

def test_oracle_matches_brute_force_conditioning(setup):
    prior, proc, noise = setup
    t = 0.65
    x0 = prior_sample(prior, RandomSource(0))
    y = sdp_sample(proc, noise, x0, t, RandomSource(1))
    got = OracleDenoiser(prior, proc, noise).estimate(y, t).values
    # independent joint-Gaussian conditioning on the stacked vector (x, y)
    m = proc.as_matrix(t)
    cov_xy = prior.covariance @ m.T
    cov_yy = m @ prior.covariance @ m.T + noise.sigma(t) ** 2 * np.eye(prior.n)
    mean_y = m @ prior.mean.values + proc.offset(t)
    expected = prior.mean.values + cov_xy @ np.linalg.solve(cov_yy, y.values - mean_y)
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_oracle_matches_posterior_sampling_monte_carlo(setup):
    # validation against brute-force posterior: importance-free check via the
    # joint simulation identity E[x0 * f(y)] relations is heavy; instead use
    # the conditional-mean property E[x0 - oracle(y)] ~ 0 and orthogonality
    # E[(x0 - oracle(y)) y^T] ~ 0 over forward draws
    prior, proc, noise = setup
    oracle = OracleDenoiser(prior, proc, noise)
    t = 0.8
    rng = RandomSource(2)
    resid, ys = [], []
    for i in range(3000):
        sub = rng.split(i)
        x0 = prior_sample(prior, sub.split(0))
        y = sdp_sample(proc, noise, x0, t, sub.split(1))
        resid.append(x0.values - oracle.estimate(y, t).values)
        ys.append(y.values)
    resid, ys = np.array(resid), np.array(ys)
    assert np.max(np.abs(resid.mean(axis=0))) < 0.05
    cross = resid.T @ ys / len(ys)
    assert np.max(np.abs(cross)) < 0.05


def test_oracle_tweedie_identity_all_processes():
    prior = squared_exponential_prior(SHAPE)
    noise = NoiseSchedule()
    anchor = prior_sample(prior, RandomSource(10))
    procs = [
        GaussianBlurProcess(SHAPE),
        GaussianMaskInpaintProcess(SHAPE),
        BlendingProcess(anchor),
    ]
    rng = RandomSource(3)
    for proc in procs:
        oracle = OracleDenoiser(prior, proc, noise)
        for i in range(4):
            sub = rng.split(i)
            x0 = prior_sample(prior, sub.split(0))
            t = 0.05 + 0.9 * float(sub.split(1).uniform())
            y = sdp_sample(proc, noise, x0, t, sub.split(2))
            lhs = score_from_denoiser(oracle, proc, noise, y, t).values
            rhs = marginal_score(prior, proc, noise, y, t).values
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(np.linalg.norm(rhs), 1e-12)


@pytest.mark.parametrize("shape", [(10,), (6, 6), (16, 16)])
def test_oracle_gain_matches_dense_solve(shape):
    # estimate and vjp apply K = Sigma M^T S^{-1}, S = M Sigma M^T + sigma_t^2 I,
    # with K from a dense solve of the covariance form
    prior = squared_exponential_prior(shape)
    anchor = prior_sample(prior, RandomSource(10))
    y, v = prior_sample(prior, RandomSource(11)), prior_sample(prior, RandomSource(12))
    noisy, noiseless = NoiseSchedule(), NoiseSchedule(0.0, 0.0)
    cases = [(GaussianBlurProcess(shape), noisy, (0.0, 0.37, 1.0)),
             (GaussianMaskInpaintProcess(shape), noisy, (0.0, 0.37, 1.0)),
             (BlendingProcess(anchor), noisy, (0.0, 0.37, 1.0)),
             (BlendingProcess(anchor), noiseless, (0.0, 0.37))]
    for proc, noise, severities in cases:
        oracle = OracleDenoiser(prior, proc, noise)
        for t in severities:
            m = proc.as_matrix(t)
            cov_yy = m @ prior.covariance @ m.T + noise.sigma(t) ** 2 * np.eye(prior.n)
            gain = np.linalg.solve(cov_yy, m @ prior.covariance).T
            expected = gain @ (y.values - proc.apply(t, prior.mean).values)
            got = oracle.estimate(y, t).values - prior.mean.values
            assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)
            expected = gain.T @ v.values
            got = oracle.vjp(y, t, v).values
            assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_noiseless_oracle_refuses_singular_posterior():
    shape = (8, 8)
    prior = squared_exponential_prior(shape)
    oracle = OracleDenoiser(prior, GaussianMaskInpaintProcess(shape), NoiseSchedule(0.0, 0.0))
    y = prior_sample(prior, RandomSource(0))
    # A_0 = I: the noiseless posterior mean is the measurement itself
    np.testing.assert_allclose(oracle.estimate(y, 0.0).values, y.values, atol=1e-10)
    # the mask zeroes the centre pixel, so M^T M is singular
    with pytest.raises(ValueError, match=r"t=0\.5, sigma_t=0$"):
        oracle.estimate(y, 0.5)


@pytest.mark.parametrize("shape", [(6, 6), (16, 16)], ids=["6x6", "16x16"])
def test_noiseless_oracle_refuses_numerically_singular_posterior(shape):
    # noiseless blur at t = 0.7 factors (M^T M is positive definite in floating point) but
    # its reciprocal condition number is ~1e-17, so the estimate would be rounding noise
    prior = squared_exponential_prior(shape)
    y = prior_sample(prior, RandomSource(0))
    noiseless = NoiseSchedule(0.0, 0.0)
    blur = OracleDenoiser(prior, GaussianBlurProcess(shape), noiseless)
    with pytest.raises(ValueError, match=r"t=0\.7, sigma_t=0$"):
        blur.estimate(y, 0.7)
    # reciprocal condition numbers 1.4e-6 (noiseless blur at t = 0.37), 1 (noiseless
    # blending) and >= 1e-6 (every family with the default noise) are accepted
    blur.estimate(y, 0.37)
    blend = BlendingProcess(prior_sample(prior, RandomSource(99)))
    for t in (0.37, 0.7):
        OracleDenoiser(prior, blend, noiseless).estimate(y, t)
    for proc in (GaussianBlurProcess(shape), GaussianMaskInpaintProcess(shape), blend):
        oracle = OracleDenoiser(prior, proc, NoiseSchedule())
        for t in (0.37, 0.7, 1.0):
            assert np.all(np.isfinite(oracle.estimate(y, t).values))


def test_oracle_vjp_is_gain_transpose(setup):
    prior, proc, noise = setup
    oracle = OracleDenoiser(prior, proc, noise)
    y = prior_sample(prior, RandomSource(4))
    v = prior_sample(prior, RandomSource(5))
    t = 0.5
    # adjoint test: <J u, v> == <u, J^T v> with J from finite differences
    u = RandomSource(6).normal(prior.n)
    eps = 1e-6
    jp = (oracle.estimate(y.with_values(y.values + eps * u), t).values
          - oracle.estimate(y.with_values(y.values - eps * u), t).values) / (2 * eps)
    lhs = jp @ v.values
    rhs = u @ oracle.vjp(y, t, v).values
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_vjp_linearity(setup):
    prior, proc, noise = setup
    oracle = OracleDenoiser(prior, proc, noise)
    y = prior_sample(prior, RandomSource(7))
    u = y.with_values(RandomSource(8).normal(prior.n))
    v = y.with_values(RandomSource(9).normal(prior.n))
    combo = y.with_values(2.0 * u.values - 3.0 * v.values)
    lhs = oracle.vjp(y, 0.3, combo).values
    rhs = 2.0 * oracle.vjp(y, 0.3, u).values - 3.0 * oracle.vjp(y, 0.3, v).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def _full_storage_inverse(prior, proc, noise, t):
    """H_t^{-1} by dpotrf and dpotri in full storage, lower triangle valid."""
    s = noise.sigma(t)
    h = s * s * lapack.dpotri(prior.cholesky_factor, lower=1)[0]
    proc.add_gram(t, h)
    return lapack.dpotri(lapack.dpotrf(h, lower=1)[0], lower=1)[0]


def _families(shape):
    prior = squared_exponential_prior(shape)
    anchor = prior_sample(prior, RandomSource(10))
    return prior, (GaussianBlurProcess(shape), GaussianMaskInpaintProcess(shape),
                   BlendingProcess(anchor))


@pytest.mark.parametrize("shape", [(12,), (6, 6), (5, 9)], ids=["12", "6x6", "5x9"])
def test_oracle_caches_the_packed_lower_triangle_of_the_inverse(shape):
    # each entry holds column j's rows j..n-1 of H_t^{-1}, one column after another
    prior, procs = _families(shape)
    noise = NoiseSchedule()
    y = prior_sample(prior, RandomSource(11))
    for proc in procs:
        oracle = OracleDenoiser(prior, proc, noise)
        for t in (0.0, 0.37, 1.0):
            oracle.estimate(y, t)
            inverse = _full_storage_inverse(prior, proc, noise, t)
            packed = np.concatenate([inverse[j:, j] for j in range(prior.n)])
            assert np.array_equal(oracle._inverse_cache[t], packed)


@pytest.mark.parametrize("shape", [(12,), (6, 6), (5, 9)], ids=["12", "6x6", "5x9"])
def test_oracle_apply_matches_full_storage_dsymv(shape):
    prior, procs = _families(shape)
    noise = NoiseSchedule()
    y, v = prior_sample(prior, RandomSource(11)), prior_sample(prior, RandomSource(12))
    for proc in procs:
        oracle = OracleDenoiser(prior, proc, noise)
        for t in (0.0, 0.37, 1.0):
            inverse = _full_storage_inverse(prior, proc, noise, t)
            x = proc.rmatvec(t, y.values - proc.apply(t, prior.mean).values)
            expected = prior.mean.values + blas.dsymv(1.0, inverse, x, lower=1)
            got = oracle.estimate(y, t).values
            assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)
            expected = proc.matvec(t, blas.dsymv(1.0, inverse, v.values, lower=1))
            got = oracle.vjp(y, t, v).values
            assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


def test_oracle_cache_cap_holds_a_32x32_sweep_or_one_64x64_entry():
    # an entry counts as its packed bytes, 4 n (n + 1)
    prior, (proc, _, _) = _families((5, 9))
    oracle = OracleDenoiser(prior, proc, NoiseSchedule())
    oracle.estimate(prior.mean, 0.5)
    assert oracle._inverse_cache[0.5].nbytes == 4 * 45 * 46
    at_32, at_64 = 4 * 1024 * 1025, 4 * 4096 * 4097
    assert 20 * at_32 <= _INVERSE_CACHE_BYTES < 21 * at_32
    assert at_64 <= _INVERSE_CACHE_BYTES < 2 * at_64


@pytest.mark.parametrize("family", [1, 2], ids=["inpaint", "blending"])
def test_cold_severity_allocates_no_dense_array_once_the_prior_holds_its_precision(family):
    # Sigma^{-1} is the prior's and the work buffer the oracle's, and a pixel-diagonal
    # M^T M goes onto that buffer's diagonal: a second cold severity allocates its packed
    # entry (4 MiB at 32x32) and O(n), with no dense n x n Gram (8 MiB)
    prior, procs = _families((32, 32))
    oracle = OracleDenoiser(prior, procs[family], NoiseSchedule())
    oracle.estimate(prior.mean, 0.3)
    n = prior.n
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        oracle.estimate(prior.mean, 0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.6 in oracle._inverse_cache
    assert peak - before <= 4 * n * (n + 1) + 64 * 8 * n


def test_oracle_cache_keeps_its_oldest_severities_within_the_cap():
    # 25 severities of 4 MiB at 32x32 against an 84 MiB cap: the cache holds 20, evicting
    # the newest, so a rerun finds the first 19 warm and factors the last 6 again
    class CountingInpaint(GaussianMaskInpaintProcess):
        grams = 0

        def add_gram(self, t, out):
            CountingInpaint.grams += 1  # one per factorization
            super().add_gram(t, out)

    shape = (32, 32)
    prior = squared_exponential_prior(shape)
    proc = CountingInpaint(shape)
    noise = NoiseSchedule()
    rng = RandomSource(5)
    y_tilde = sdp_sample(proc, noise, prior_sample(prior, rng.split(0)), 1.0, rng.split(1))
    oracle = OracleDenoiser(prior, proc, noise)
    config = SamplerConfig(delta_t=0.04)
    tracemalloc.start()
    try:
        first = dirac_sample(oracle, proc, noise, y_tilde, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(first.steps) == 25 and CountingInpaint.grams == 25
    # 20 packed entries (80 MiB) beside the prior's 8 MiB Sigma^{-1}, formed on the first cold
    # severity; the oracle's work buffer predates the trace, and no dense Gram is formed
    assert peak <= 89 * 2**20  # 88.6 MiB measured; unbounded, 25 entries would need 100 MiB
    CountingInpaint.grams = 0
    second = dirac_sample(oracle, proc, noise, y_tilde, config)
    assert CountingInpaint.grams == 6

    def bits(traj):
        steps = [(s.t, s.iterate.values.tobytes(), s.estimate.values.tobytes())
                 for s in traj.steps]
        return steps, traj.output.values.tobytes()

    assert bits(second) == bits(first)


# --- ground truth / scores --------------------------------------------------

def test_ground_truth_score_is_conditional(setup):
    prior, proc, noise = setup
    x0 = prior_sample(prior, RandomSource(0))
    t = 0.45
    y = sdp_sample(proc, noise, x0, t, RandomSource(1))
    den = GroundTruthDenoiser(x0)
    lhs = score_from_denoiser(den, proc, noise, y, t).values
    rhs = conditional_score(proc, noise, y, x0, t).values
    np.testing.assert_array_equal(lhs, rhs)


def test_score_zero_at_fixed_point(setup):
    prior, proc, noise = setup
    x0 = prior_sample(prior, RandomSource(0))
    den = GroundTruthDenoiser(x0)
    y = proc.apply(0.6, x0)
    got = score_from_denoiser(den, proc, noise, y, 0.6).values
    np.testing.assert_array_equal(got, 0.0)


def test_score_rejects_zero_sigma(setup):
    prior, proc, _ = setup
    x0 = prior_sample(prior, RandomSource(0))
    with pytest.raises(ValueError):
        score_from_denoiser(GroundTruthDenoiser(x0), proc, NoiseSchedule(0, 0), x0, 0.5)


# --- affine model ------------------------------------------------------------

def test_affine_bin_index_edges():
    prior = squared_exponential_prior(SHAPE)
    model = AffineDenoiser.initialized(prior, n_bins=8)
    assert model.bin_index(0.0) == 0
    assert model.bin_index(0.124) == 0
    assert model.bin_index(0.125) == 1
    assert model.bin_index(1.0) == 7  # clamped to the last bin
    with pytest.raises(ValueError):
        model.bin_index(1.2)


def test_affine_initialization_contraction():
    prior = squared_exponential_prior(SHAPE)
    model = AffineDenoiser.initialized(prior, n_bins=4)
    y = prior_sample(prior, RandomSource(0))
    got = model.estimate(y, 0.3).values
    np.testing.assert_allclose(got, 0.5 * y.values + 0.5 * prior.mean.values)


# --- losses -------------------------------------------------------------------

def test_loss_ground_truth_zero(setup):
    prior, proc, noise = setup
    batch = _batch(prior, proc, noise, 11)
    x0 = batch[0][0]
    single = [(x0, batch[0][1], batch[0][2])]
    assert loss_denoising(GroundTruthDenoiser(x0), proc, noise, single) == 0.0


def test_loss_matches_recomputation(setup):
    prior, proc, noise = setup
    batch = _batch(prior, proc, noise, 12)
    oracle = OracleDenoiser(prior, proc, noise)
    got = loss_denoising(oracle, proc, noise, batch)
    manual = np.mean([
        np.sum((proc.apply(t, oracle.estimate(y, t)).values - proc.apply(t, x0).values) ** 2)
        / noise.sigma(t) ** 2
        for x0, y, t in batch
    ])
    assert got == pytest.approx(manual, rel=1e-12)


def test_loss_incremental_delta_zero_equals_denoising(setup):
    prior, proc, noise = setup
    batch = _batch(prior, proc, noise, 13)
    oracle = OracleDenoiser(prior, proc, noise)
    assert loss_incremental(oracle, proc, noise, 0.0, batch) == pytest.approx(
        loss_denoising(oracle, proc, noise, batch), rel=1e-15
    )


def test_loss_incremental_delta_one_clean_domain(setup):
    prior, proc, noise = setup
    batch = _batch(prior, proc, noise, 14)
    oracle = OracleDenoiser(prior, proc, noise)
    got = loss_incremental(oracle, proc, noise, 1.0, batch)
    manual = np.mean([
        np.sum((oracle.estimate(y, t).values - x0.values) ** 2) / noise.sigma(t) ** 2
        for x0, y, t in batch
    ])
    assert got == pytest.approx(manual, rel=1e-12)  # A_0 is the identity for inpainting


def test_loss_upper_bound_property(setup):
    # transitions with spectral norm <= 1 make the tau-domain loss dominate
    prior, proc, noise = setup
    model = AffineDenoiser.initialized(prior)
    for seed in range(10):
        batch = _batch(prior, proc, noise, 100 + seed)
        assert loss_denoising(model, proc, noise, batch) <= loss_incremental(
            model, proc, noise, 0.3, batch
        ) * (1.0 + 1e-12)


def test_loss_empty_batch_rejected(setup):
    prior, proc, noise = setup
    with pytest.raises(ValueError):
        loss_denoising(OracleDenoiser(prior, proc, noise), proc, noise, [])


# --- gradients / training ----------------------------------------------------

def test_affine_gradients_match_finite_differences(setup):
    prior, proc, noise = setup
    model = AffineDenoiser.initialized(prior, n_bins=4)
    batch = _batch(prior, proc, noise, 15)
    delta_t = 0.2
    g_d, g_c = affine_loss_gradients(model, proc, noise, delta_t, batch)
    rng = RandomSource(16)
    eps = 1e-6
    for _ in range(5):
        b = int(rng.integers(0, 4))
        i = int(rng.integers(0, prior.n))
        j = int(rng.integers(0, prior.n))
        for arr, grad, idx in ((model.d, g_d, (b, i, j)), (model.c, g_c, (b, i))):
            orig = arr[idx]
            arr[idx] = orig + eps
            up = loss_incremental(model, proc, noise, delta_t, batch)
            arr[idx] = orig - eps
            dn = loss_incremental(model, proc, noise, delta_t, batch)
            arr[idx] = orig
            fd = (up - dn) / (2 * eps)
            if abs(fd) > 1e-8:
                assert grad[idx] == pytest.approx(fd, rel=1e-4)


def test_train_reduces_loss(setup):
    prior, proc, noise = setup
    model = AffineDenoiser.initialized(prior)
    report = train_affine(model, proc, noise, prior, steps=80, step_size=1e-5,
                          batch_size=16, rng=RandomSource(17))
    assert not report.diverged
    assert report.steps_run == 80
    assert np.mean(report.losses[-10:]) < np.mean(report.losses[:10])


def test_train_divergence_abort(setup):
    prior, proc, noise = setup
    model = AffineDenoiser.initialized(prior)
    report = train_affine(model, proc, noise, prior, steps=200, step_size=10.0,
                          batch_size=4, rng=RandomSource(18))
    assert report.diverged
    assert report.steps_run < 200


def test_train_default_step_size_does_not_diverge(setup):
    prior, proc, noise = setup
    model = AffineDenoiser.initialized(prior)
    report = train_affine(model, proc, noise, prior, steps=20, batch_size=8, rng=RandomSource(21))
    assert not report.diverged and report.steps_run == 20


@pytest.mark.parametrize("loss_kind,delta_t", [("denoising", 0.3), ("bogus", 0.0)])
def test_train_refuses_loss_rule_violations(setup, loss_kind, delta_t):
    # the denoising loss trains at delta_t = 0 only; another delta_t is refused, not overridden
    prior, proc, noise = setup
    model = AffineDenoiser.initialized(prior)
    with pytest.raises(ValueError, match="loss"):
        train_affine(model, proc, noise, prior, loss_kind=loss_kind, delta_t=delta_t, steps=1)


@pytest.mark.parametrize("setting", [
    {"step_size": float("nan")}, {"step_size": 0.0}, {"step_size": float("inf")},
    {"steps": -1}, {"batch_size": 0},
    {"loss_kind": "incremental", "delta_t": 1.5},
    {"loss_kind": "incremental", "delta_t": float("nan")},
], ids=["step_size=nan", "step_size=0", "step_size=inf", "steps=-1", "batch_size=0",
        "delta_t=1.5", "delta_t=nan"])
def test_train_refuses_out_of_range_settings_before_drawing(setup, monkeypatch, setting):
    # step_size = nan or inf once ran a step and reported divergence; delta_t was first
    # checked by the loss, after a batch had been drawn
    def refuse(*args, **kwargs):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(denoise, "sdp_sample", refuse)
    prior, proc, noise = setup
    model = AffineDenoiser.initialized(prior)
    with pytest.raises(ValueError, match=r"^training needs 0 <= delta_t <= 1, steps >= 0, "
                                         r"0 < step_size < inf and batch_size >= 1, not "):
        train_affine(model, proc, noise, prior, **{"steps": 2, **setting})


def test_train_zero_steps_keeps_initialization(setup):
    prior, proc, noise = setup
    model = AffineDenoiser.initialized(prior)
    d0, c0 = model.d.copy(), model.c.copy()
    report = train_affine(model, proc, noise, prior, steps=0, rng=RandomSource(19))
    assert report.steps_run == 0
    np.testing.assert_array_equal(model.d, d0)
    np.testing.assert_array_equal(model.c, c0)


def test_training_determinism(setup):
    prior, proc, noise = setup
    runs = []
    for _ in range(2):
        model = AffineDenoiser.initialized(prior)
        train_affine(model, proc, noise, prior, steps=20, step_size=1e-5,
                     batch_size=8, rng=RandomSource(20))
        runs.append((model.d.copy(), model.c.copy()))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    np.testing.assert_array_equal(runs[0][1], runs[1][1])


# --- persistence --------------------------------------------------------------

def test_model_roundtrip(tmp_path):
    prior = squared_exponential_prior(SHAPE)
    model = AffineDenoiser.initialized(prior, n_bins=3)
    model.d += RandomSource(21).normal(model.d.shape) * 0.01
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.d, model.d)
    np.testing.assert_array_equal(back.c, model.c)


@given(st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
    lambda bn: st.tuples(arrays(np.float64, (bn[0], bn[1], bn[1])),
                         arrays(np.float64, bn))))
def test_model_roundtrip_property(tmp_path_factory, dc):
    d, c = dc
    path = tmp_path_factory.mktemp("model") / "model.bin"
    save_model(AffineDenoiser(d, c), path)
    back = load_model(path)
    np.testing.assert_array_equal(back.d, d)
    np.testing.assert_array_equal(back.c, c)


def test_load_model_refuses_every_cut(tmp_path):
    full = tmp_path / "full.bin"
    save_model(AffineDenoiser.initialized(squared_exponential_prior((2, 2)), n_bins=2), full)
    data = full.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(ValueError, match=rf"cut.bin: expected .*\d+ bytes, got {size}$"):
            load_model(cut)


def test_model_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"WRONGMAG" + b"\0" * 64)
    with pytest.raises(ValueError):
        load_model(path)


def test_hot_paths_never_build_dense_matrix(monkeypatch, tmp_path):
    # a guided blur trajectory, affine training and every verify suite must run on
    # matvec/rmatvec, add_gram and the eigenvalues alone
    def refuse(self, t):
        raise AssertionError("dense as_matrix called in a hot path")

    for cls in (GaussianBlurProcess, GaussianMaskInpaintProcess, BlendingProcess):
        monkeypatch.setattr(cls, "as_matrix", refuse)
    prior = squared_exponential_prior(SHAPE)
    proc = GaussianBlurProcess(SHAPE)
    noise = NoiseSchedule()
    truth = prior_sample(prior, RandomSource(0))
    y_tilde = sdp_sample(proc, noise, truth, 1.0, RandomSource(1))
    config = SamplerConfig(delta_t=0.25, eta=0.5, guidance_mode="std_scaled")
    traj = dirac_sample(OracleDenoiser(prior, proc, noise), proc, noise, y_tilde, config)
    assert not traj.aborted and len(traj.steps) == 4
    model = AffineDenoiser.initialized(prior, n_bins=2)
    report = train_affine(model, proc, noise, prior, loss_kind="incremental", delta_t=0.1,
                          steps=3, step_size=1e-6, batch_size=4)
    assert report.steps_run == 3 and not report.diverged
    cfg = tmp_path / "verify.ini"
    cfg.write_text(f"[prior]\nshape = 6x6\n\n[output]\ndir = {tmp_path / 'out'}\n")
    assert cli.main(["verify", "--config", str(cfg)]) == cli.EXIT_OK
    assert len((tmp_path / "out" / "verify_report.csv").read_text().splitlines()) == 8
