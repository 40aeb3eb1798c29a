import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dirac.core import (
    GaussianPrior,
    RandomSource,
    Signal,
    mse,
    prior_nll,
    prior_sample,
    psnr,
    read_signal,
    squared_exponential_prior,
    write_csv,
    write_pgm,
    write_signal,
)


def test_signal_roundtrip_2d():
    arr = np.arange(12.0).reshape(3, 4)
    s = Signal.from_array(arr)
    assert s.shape == (3, 4)
    assert s.n == 12
    np.testing.assert_array_equal(s.as_array(), arr)


def test_signal_values_read_only():
    s = Signal.from_array(np.zeros(4))
    with pytest.raises(ValueError):
        s.values[0] = 1.0


def test_signal_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        Signal(np.zeros(5), (2, 3))


def test_prior_rejects_asymmetric_covariance():
    cov = np.eye(3)
    cov[0, 1] = 0.5
    with pytest.raises(ValueError):
        GaussianPrior(Signal.from_array(np.zeros(3)), cov)


def test_prior_rejects_indefinite_covariance():
    cov = np.diag([1.0, -0.1, 1.0])
    with pytest.raises(ValueError):
        GaussianPrior(Signal.from_array(np.zeros(3)), cov)


def test_squared_exponential_prior_structure():
    prior = squared_exponential_prior((4, 4), length_scale=2.0)
    assert prior.n == 16
    np.testing.assert_allclose(prior.mean.values, 0.5)
    # diagonal = 1 + jitter; adjacent horizontal pixels at distance 1
    np.testing.assert_allclose(np.diag(prior.covariance), 1.0 + 1e-4)
    expected = math.exp(-1.0 / (2.0 * 4.0))
    np.testing.assert_allclose(prior.covariance[0, 1], expected, rtol=1e-12)


def _pairwise_se_covariance(shape, length_scale, jitter):
    """The definition entry by entry: each pixel pair's squared distance, then exp."""
    coords = np.indices(shape).reshape(len(shape), -1).T.astype(np.float64)
    d2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=-1)
    return np.exp(-d2 / (2.0 * length_scale**2)) + jitter * np.eye(len(coords))


@pytest.mark.parametrize("shape,length_scale,jitter", [
    ((7,), 2.0, 1e-4), ((1, 3), 2.0, 1e-4), ((2, 1), 2.0, 1e-4), ((5, 9), 2.0, 1e-4),
    ((9, 5), 2.0, 1e-4), ((16, 16), 2.0, 1e-4), ((32, 32), 2.0, 1e-4), ((5, 9), 0.7, 1e-3),
], ids=["7", "1x3", "2x1", "5x9", "9x5", "16x16", "32x32", "5x9-l0.7"])
def test_squared_exponential_covariance_equals_pairwise_definition(shape, length_scale, jitter):
    # gathering exp per axis-offset combination gives every pair's bits, and the
    # stored factor stays numpy's Cholesky of them
    prior = squared_exponential_prior(shape, length_scale=length_scale, jitter=jitter)
    expected = _pairwise_se_covariance(shape, length_scale, jitter)
    assert np.array_equal(prior.covariance, expected)
    assert np.array_equal(prior.cholesky_factor, np.linalg.cholesky(expected))


@pytest.mark.parametrize("jitter,loads", [(1e-8, True), (2e-9, True), (1e-9, False),
                                          (5e-10, False)])
def test_eigenvalue_floor_keeps_its_verdicts_at_the_boundary(jitter, loads):
    # at length scale 50 the 8x8 kernel is singular to working precision, so the
    # jitter alone sets the smallest eigenvalues; the inertia test agrees with eigvalsh
    cov = _pairwise_se_covariance((8, 8), 50.0, jitter)
    assert (np.min(scipy.linalg.eigvalsh(cov)) >= 1e-9) == loads
    if loads:
        squared_exponential_prior((8, 8), length_scale=50.0, jitter=jitter)
    else:
        with pytest.raises(ValueError, match="eigenvalues must be >= 1e-9"):
            squared_exponential_prior((8, 8), length_scale=50.0, jitter=jitter)


def test_prior_build_needs_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(scipy.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert squared_exponential_prior((6, 6)).n == 36
    with pytest.raises(ValueError, match="eigenvalues"):
        GaussianPrior(Signal.from_array(np.zeros(3)), np.diag([1.0, -0.1, 1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_prior_rejects_non_finite_covariance(bad):
    cov = np.eye(3)
    cov[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        GaussianPrior(Signal.from_array(np.zeros(3)), cov)


def test_prior_build_holds_at_most_one_scratch_array():
    # numpy's own buffers at 32x32: the covariance, its factor and one n x n scratch
    # array at most (numpy's Cholesky workspace is not traced)
    n_by_n = 8 * 1024 * 1024
    tracemalloc.start()
    try:
        squared_exponential_prior((32, 32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n_by_n + 2**20


def test_precision_is_formed_once_read_only_and_valid_in_its_lower_triangle():
    prior = squared_exponential_prior((5, 7))
    precision = prior.precision
    assert prior.precision is precision and not precision.flags.writeable
    # the bits of LAPACK dpotri on the stored factor
    expected = scipy.linalg.lapack.dpotri(prior.cholesky_factor, lower=1)[0]
    assert np.array_equal(np.tril(precision), np.tril(expected))
    full = np.tril(precision) + np.tril(precision, -1).T
    np.testing.assert_allclose(full @ prior.covariance, np.eye(prior.n), rtol=0, atol=1e-8)


def test_entry_bound_formula():
    prior = squared_exponential_prior((4,), mean_value=0.5)
    expected = 0.5 + 4.0 * math.sqrt(np.max(np.diag(prior.covariance)))
    assert prior.entry_bound == pytest.approx(expected)


def test_random_source_deterministic_and_split_independent():
    a = RandomSource(42).normal(8)
    b = RandomSource(42).normal(8)
    np.testing.assert_array_equal(a, b)
    c = RandomSource(42).split(0).normal(8)
    d = RandomSource(42).split(1).normal(8)
    assert not np.array_equal(c, d)
    # splitting is stable regardless of draw order on the parent
    src = RandomSource(42)
    src.normal(100)
    np.testing.assert_array_equal(src.split(0).normal(8), c)


def test_prior_sample_moments():
    prior = squared_exponential_prior((8, 8))
    rng = RandomSource(0)
    samples = np.array([prior_sample(prior, rng.split(i)).values for i in range(2000)])
    np.testing.assert_allclose(samples.mean(axis=0), prior.mean.values, atol=0.1)
    emp_cov = np.cov(samples.T)
    assert np.max(np.abs(emp_cov - prior.covariance)) < 0.15


def test_prior_nll_matches_direct_formula():
    prior = squared_exponential_prior((3, 3))
    x = prior_sample(prior, RandomSource(1))
    d = x.values - prior.mean.values
    cov = prior.covariance
    sign, logdet = np.linalg.slogdet(cov)
    expected = 0.5 * (d @ np.linalg.solve(cov, d) + logdet + prior.n * math.log(2 * math.pi))
    assert prior_nll(prior, x) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("shape", [(7,), (6, 6), (16, 16)], ids=["7", "6x6", "16x16"])
def test_prior_nll_matches_scipy_logpdf(shape):
    prior = squared_exponential_prior(shape)
    dist = scipy.stats.multivariate_normal(prior.mean.values, prior.covariance)
    for i in range(3):
        x = prior_sample(prior, RandomSource(5).split(i))
        assert prior_nll(prior, x) == pytest.approx(-dist.logpdf(x.values), rel=1e-10)


@pytest.mark.parametrize("shape", [(7,), (6, 6), (16, 16)], ids=["7", "6x6", "16x16"])
def test_prior_nll_equals_validated_solve(shape):
    # the same bits as scipy's validating solve_triangular and a per-call log-determinant
    prior = squared_exponential_prior(shape)
    chol = prior.cholesky_factor
    for i in range(3):
        x = prior_sample(prior, RandomSource(6).split(i))
        r = x.values - prior.mean.values
        white = scipy.linalg.solve_triangular(chol, r, lower=True)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        expected = float(
            0.5 * white @ white + 0.5 * logdet + 0.5 * prior.n * math.log(2.0 * math.pi))
        assert prior_nll(prior, x) == expected


def test_mse_psnr():
    a = Signal.from_array(np.zeros(4))
    b = Signal.from_array(np.full(4, 0.5))
    assert mse(a, b) == pytest.approx(0.25)
    assert psnr(a, b) == pytest.approx(10 * math.log10(1.0 / 0.25))
    assert psnr(a, a) == math.inf


def test_write_pgm(tmp_path):
    s = Signal.from_array(np.array([[0.0, 0.5], [1.0, 2.0]]))
    path = tmp_path / "img.pgm"
    write_pgm(s, path)
    data = path.read_bytes()
    assert data.startswith(b"P5")
    # values clipped to [0,1] then scaled to 255
    assert data[-4:] == bytes([0, 128, 255, 255])


def test_write_csv_row_format(tmp_path):
    # every CSV the commands write: ints and strings as written, floats at 9 significant digits
    path = tmp_path / "rows.csv"
    write_csv(path, "a,b,c,d", [(0, 0.1, 1 / 3, '"x, y"'),
                                (12, 123456789.123, -2.5e-20, "FAIL"),
                                (3, math.nan, math.inf, -math.inf),
                                (4, np.float64(2.0), np.float64(0.05), 7)])
    assert path.read_bytes() == (b"a,b,c,d\n"
                                 b'0,0.1,0.333333333,"x, y"\n'
                                 b"12,123456789,-2.5e-20,FAIL\n"
                                 b"3,nan,inf,-inf\n"
                                 b"4,2,0.05,7\n")


def test_signal_file_roundtrip(tmp_path):
    s = Signal.from_array(RandomSource(3).normal((5, 7)))
    path = tmp_path / "sig.bin"
    write_signal(s, path)
    back = read_signal(path)
    assert back.shape == s.shape
    np.testing.assert_array_equal(back.values, s.values)


@given(st.lists(st.integers(1, 5), min_size=1, max_size=2).flatmap(
    lambda shape: arrays(np.float64, tuple(shape), elements=st.floats(allow_nan=False))))
def test_signal_file_roundtrip_property(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("signal") / "sig.bin"
    write_signal(Signal.from_array(values), path)
    back = read_signal(path)
    assert back.shape == values.shape
    np.testing.assert_array_equal(back.values, values.ravel())


def test_read_signal_refuses_every_cut(tmp_path):
    full = tmp_path / "full.bin"
    write_signal(Signal.from_array(RandomSource(4).normal((2, 3))), full)
    data = full.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(ValueError, match=rf"cut.bin: expected .*\d+ bytes, got {size}$"):
            read_signal(cut)
    cut.write_bytes(data + b"\0")
    with pytest.raises(ValueError, match=rf"expected {len(data)} bytes, got {len(data) + 1}"):
        read_signal(cut)


def test_read_signal_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 32)
    with pytest.raises(ValueError):
        read_signal(path)
