import math
import tracemalloc

import numpy as np
import pytest

from dirac.core import RandomSource, Signal, prior_sample, squared_exponential_prior
from dirac.degrade import (
    BlendingProcess,
    GaussianBlurProcess,
    GaussianMaskInpaintProcess,
    _IMPULSE_WIDTH,
    _blur_variance,
    blur_kernel,
    inpaint_mask,
    lipschitz_t_estimate,
)
from dirac.schedule import linear_schedule

SHAPE = (12, 12)


def _rand_signal(seed, shape=SHAPE):
    return Signal.from_array(RandomSource(seed).normal(shape))


def _gram(proc, t):
    """A(t)^T A(t) as add_gram adds it into a zero array."""
    out = np.zeros((proc.n, proc.n))
    proc.add_gram(t, out)
    return out


# --- blur kernel ---------------------------------------------------------

def test_blur_kernel_normalized_symmetric():
    k = blur_kernel(1.5, 13)
    assert k.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(k, k[::-1])
    assert np.argmax(k) == 6


def test_blur_kernel_impulse_below_threshold():
    k = blur_kernel(1e-4, 7)
    expected = np.zeros(7)
    expected[3] = 1.0
    np.testing.assert_array_equal(k, expected)


def test_blur_kernel_validation():
    with pytest.raises(ValueError):
        blur_kernel(1.0, 4)
    with pytest.raises(ValueError):
        blur_kernel(0.0, 5)


def test_blur_kernel_matches_direct_gaussian():
    w, size = 2.0, 9
    i = np.arange(size) - size // 2
    direct = np.exp(-(i**2) / (2 * w * w))
    direct /= direct.sum()
    np.testing.assert_allclose(blur_kernel(w, size), direct, rtol=1e-12)


# --- blur process --------------------------------------------------------

def test_blur_variance_matches_sampled_kernel():
    # the fast v(w) is the variance of blur_kernel(w, 2*ceil(4w) + 1),
    # including a width below _IMPULSE_WIDTH whose kernel is an impulse
    for w in (5e-4, _IMPULSE_WIDTH, 0.3, 0.77, 1.0, 1.6, 3.0, 7.3):
        half = math.ceil(4 * w)
        i2 = np.arange(-half, half + 1.0) ** 2
        expected = blur_kernel(w, 2 * half + 1) @ i2
        assert _blur_variance(w) == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert _blur_variance(5e-4) == 0.0


def test_blur_composition_in_quadrature():
    # discrete-Gaussian variances add under convolution, so transitions
    # compose exactly at every width (widths add in quadrature only as v ~ w^2)
    proc = GaussianBlurProcess(SHAPE)
    prior = squared_exponential_prior(SHAPE)
    x = prior_sample(prior, RandomSource(0))
    for t_lo, t_hi in [(0.5, 0.7), (0.5, 1.0), (0.8, 0.9)]:
        direct = proc.apply(t_hi, x)
        chained = proc.transition(t_lo, t_hi, proc.apply(t_lo, x))
        assert np.max(np.abs(direct.values - chained.values)) <= proc.composition_tol


def test_blur_composition_exact_from_zero():
    # near-impulse widths compose as exactly as wide ones: from t = 0
    # (w_min = 0.3) and through an intermediate severity
    proc = GaussianBlurProcess(SHAPE)
    prior = squared_exponential_prior(SHAPE)
    x = prior_sample(prior, RandomSource(0))
    y0 = proc.apply(0.0, x)
    for t in (0.01, 0.1, 0.5, 1.0):
        chained = proc.transition(0.0, t, y0)
        assert np.max(np.abs(proc.apply(t, x).values - chained.values)) <= proc.composition_tol
    two_hop = proc.transition(0.05, 1.0, proc.transition(0.0, 0.05, y0))
    one_hop = proc.transition(0.0, 1.0, y0)
    assert np.max(np.abs(two_hop.values - one_hop.values)) <= proc.composition_tol
    assert proc.composition_tol == 1e-12


def test_blur_near_identity_at_zero():
    proc = GaussianBlurProcess(SHAPE)
    prior = squared_exponential_prior(SHAPE)
    x = prior_sample(prior, RandomSource(2))
    rel = np.linalg.norm(proc.apply(0.0, x).values - x.values) / np.linalg.norm(x.values)
    assert rel <= proc.identity_tol


def test_blur_matrix_matches_apply():
    proc = GaussianBlurProcess((6, 5))
    x = _rand_signal(1, (6, 5))
    for t in (0.0, 0.4, 1.0):
        via_matrix = proc.as_matrix(t) @ x.values
        assert np.max(np.abs(via_matrix - proc.apply(t, x).values)) <= 1e-10


def test_blur_linearity():
    proc = GaussianBlurProcess(SHAPE)
    a, b = _rand_signal(3), _rand_signal(4)
    lhs = proc.apply(0.6, a.with_values(2.0 * a.values + 3.0 * b.values)).values
    rhs = 2.0 * proc.apply(0.6, a).values + 3.0 * proc.apply(0.6, b).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_blur_kernel_longer_than_axis_wraps():
    # at w = 3 the variance (~9) spreads the kernel past the 8-pixel side; on
    # the periodic grid the DFT multiplier is 1 at k = 0, so mass is conserved
    proc = GaussianBlurProcess((8, 8))
    ones = Signal.from_array(np.ones((8, 8)))
    out = proc.apply(1.0, ones)
    np.testing.assert_allclose(out.values, 1.0, atol=1e-12)  # mass conserved


def test_blur_is_symmetric():
    proc = GaussianBlurProcess((6, 5))
    rng = RandomSource(13)
    for t in (0.0, 0.37, 1.0):
        for i in range(4):
            x = rng.split(i).normal(30)
            np.testing.assert_array_equal(proc.matvec(t, x), proc.rmatvec(t, x))
        m = proc.as_matrix(t)
        np.testing.assert_allclose(m, m.T, rtol=0, atol=1e-15)
        g = _gram(proc, t)
        np.testing.assert_array_equal(g, g.T)


@pytest.mark.parametrize("t", [0.05, 0.1, 0.2, 0.3])
def test_blur_lipschitz_is_one_at_32x32(t):
    # the top eigenvalues of M^T M nearly coincide at 32x32, which stalls a
    # power iteration; the closed form needs none
    assert GaussianBlurProcess((32, 32)).lipschitz_x(t) == 1.0


def test_blur_severity_range_checked():
    proc = GaussianBlurProcess(SHAPE)
    with pytest.raises(ValueError):
        proc.apply(1.5, _rand_signal(0))
    with pytest.raises(ValueError):
        proc.lipschitz_x(1.5)


# --- inpainting ----------------------------------------------------------

def test_inpaint_mask_identity_at_zero_width():
    m = inpaint_mask(0.0, 4, SHAPE)
    np.testing.assert_array_equal(m.values, 1.0)


def test_inpaint_mask_range_and_center_zero():
    m = inpaint_mask(2.0, 4, SHAPE).as_array()
    assert np.all(m >= 0.0) and np.all(m <= 1.0)
    assert m[6, 6] == 0.0  # bump peak is fully masked


def test_inpaint_mask_matches_direct_formula():
    w, k = 1.7, 4
    m = inpaint_mask(w, k, (7, 7)).as_array()
    ii, jj = np.meshgrid(np.arange(7), np.arange(7), indexing="ij")
    f = np.exp(-(((ii - 3) ** 2 + (jj - 3) ** 2)) / (2 * w * w))
    direct = (1.0 - f / f.max()) ** k
    np.testing.assert_allclose(m, direct, rtol=1e-12)


def test_inpaint_mask_finite_for_off_grid_centre():
    # the bump underflows at every pixel at small widths; no 0/0
    m = GaussianMaskInpaintProcess((6, 6), center=(2.5, 3.2)).eigenvalues(1 / 256)
    assert np.all(np.isfinite(m))
    assert np.all((m >= 0.0) & (m <= 1.0))
    assert np.all(np.isfinite(inpaint_mask(1e-3, 4, (6, 6), (2.5, 3.2)).values))


def test_inpaint_composition_exact():
    proc = GaussianMaskInpaintProcess(SHAPE)
    x = _rand_signal(5)
    for t_lo, t_hi in [(0.0, 0.3), (0.2, 0.9), (0.5, 1.0)]:
        direct = proc.apply(t_hi, x)
        chained = proc.transition(t_lo, t_hi, proc.apply(t_lo, x))
        assert np.max(np.abs(direct.values - chained.values)) <= 1e-12


def test_inpaint_transitivity_exact():
    proc = GaussianMaskInpaintProcess(SHAPE)
    x = _rand_signal(6)
    y1 = proc.apply(0.1, x)
    direct = proc.transition(0.1, 0.8, y1)
    chained = proc.transition(0.45, 0.8, proc.transition(0.1, 0.45, y1))
    assert np.max(np.abs(direct.values - chained.values)) <= 1e-12


def test_inpaint_matrix_is_diagonal_mask():
    proc = GaussianMaskInpaintProcess(SHAPE)
    m = proc.as_matrix(0.7)
    np.testing.assert_array_equal(np.diag(np.diag(m)), m)
    np.testing.assert_array_equal(np.diag(m), proc.eigenvalues(0.7))


def test_inpaint_requires_identity_start():
    with pytest.raises(ValueError):
        GaussianMaskInpaintProcess(SHAPE, schedule=linear_schedule(0.5, 2.0))


@pytest.mark.parametrize("shape,center", [((8, 8), None), ((16, 16), None), ((7,), None),
                                          ((8, 8), (1, 6))])
def test_inpaint_process_mask_bit_identical_to_inpaint_mask(shape, center):
    proc = GaussianMaskInpaintProcess(shape, center=center)
    for t in np.linspace(0.0, 1.0, 257):
        expected = inpaint_mask(proc.param_of(t), proc.k, shape, center).values
        np.testing.assert_array_equal(proc.eigenvalues(t), expected)
        np.testing.assert_array_equal(np.diag(proc.as_matrix(t)), expected)


def test_inpaint_sharpness_checked_at_construction():
    # a fractional exponent is refused, not truncated to the integer below it
    for k in (0, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="^sharpness exponent must be an integer >= 1$"):
            GaussianMaskInpaintProcess(SHAPE, k=k)
    for k in (0, 2.5):
        with pytest.raises(ValueError, match="^sharpness exponent must be an integer >= 1$"):
            inpaint_mask(1.0, k, SHAPE)
    assert GaussianMaskInpaintProcess(SHAPE, k=3.0).k == 3


def _memory_growth_over_severities(proc):
    x = _rand_signal(3, (8, 8))
    proc.apply(0.5, x)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(5000):
            proc.apply((i + 0.5) / 5000, x)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_inpaint_memory_does_not_grow_with_severities():
    assert _memory_growth_over_severities(GaussianMaskInpaintProcess((8, 8))) < 1_000_000


def test_blur_memory_does_not_grow_with_severities():
    # the blur keeps per-axis tables only, nothing per width
    assert _memory_growth_over_severities(GaussianBlurProcess((8, 8))) < 1_000_000


def test_inpaint_lipschitz_is_max_mask():
    proc = GaussianMaskInpaintProcess(SHAPE)
    for t in (0.0, 0.5, 1.0):
        assert proc.lipschitz_x(t) == pytest.approx(np.max(proc.eigenvalues(t)))
        assert proc.lipschitz_x(t) <= 1.0


def test_inpaint_sharpness_raises_temporal_sensitivity():
    # steeper masks change faster in t near the bump edge
    prior = squared_exponential_prior(SHAPE)
    estimates = []
    for k in (1, 2, 4, 8):
        proc = GaussianMaskInpaintProcess(SHAPE, k=k)
        estimates.append(
            lipschitz_t_estimate(proc, 0.4, 0.6, prior, 8, RandomSource(9))
        )
    assert all(e > 0 for e in estimates)


# --- blending ------------------------------------------------------------

def test_blending_interpolates_anchor():
    anchor = _rand_signal(7)
    proc = BlendingProcess(anchor)
    x = _rand_signal(8)
    np.testing.assert_allclose(proc.apply(0.0, x).values, x.values)
    np.testing.assert_allclose(proc.apply(1.0, x).values, anchor.values)
    mid = proc.apply(0.5, x).values
    np.testing.assert_allclose(mid, 0.5 * anchor.values + 0.5 * x.values)


def test_blending_transition_exact():
    anchor = _rand_signal(7)
    proc = BlendingProcess(anchor)
    x = _rand_signal(8)
    for t_lo, t_hi in [(0.0, 0.4), (0.2, 0.9), (0.3, 1.0)]:
        direct = proc.apply(t_hi, x)
        chained = proc.transition(t_lo, t_hi, proc.apply(t_lo, x))
        assert np.max(np.abs(direct.values - chained.values)) <= 1e-12


def test_blending_affine_decomposition():
    anchor = _rand_signal(7)
    proc = BlendingProcess(anchor)
    x = _rand_signal(8)
    t = 0.35
    via_affine = proc.as_matrix(t) @ x.values + proc.offset(t)
    np.testing.assert_allclose(via_affine, proc.apply(t, x).values, atol=1e-12)


def test_blending_lipschitz_exact():
    proc = BlendingProcess(_rand_signal(7))
    assert proc.lipschitz_x(0.25) == pytest.approx(0.75)
    assert proc.lipschitz_x(1.0) == 0.0


# --- structured operator protocol -----------------------------------------

def _families(shape):
    return [
        GaussianBlurProcess(shape),
        GaussianMaskInpaintProcess(shape),
        BlendingProcess(_rand_signal(7, shape)),
    ]


@pytest.mark.parametrize("shape", [(12,), (5, 7)])
@pytest.mark.parametrize("family", range(3))
@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
def test_matvec_rmatvec_match_dense_matrix(shape, family, t):
    proc = _families(shape)[family]
    m = proc.as_matrix(t)
    x = RandomSource(12).split(0).normal(proc.n)
    np.testing.assert_allclose(proc.matvec(t, x), m @ x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(proc.rmatvec(t, x), m.T @ x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(_gram(proc, t), m.T @ m, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(12,), (6, 6), (5, 9)], ids=["12", "6x6", "5x9"])
@pytest.mark.parametrize("family", range(3))
def test_rowwise_operator_calls_equal_per_row_calls(shape, family):
    # matvec and rmatvec act on the last axis and broadcast the leading ones, each
    # row with the bits of its own call; apply (one flat image) is the same linear
    # part plus the offset
    proc = _families(shape)[family]
    rows = RandomSource(13).normal((2, 3, proc.n))
    square = RandomSource(14).normal((proc.n, proc.n))
    for t in (0.0, 0.37, 1.0):
        for op in (proc.matvec, proc.rmatvec):
            batched = op(t, rows)
            assert batched.shape == rows.shape
            assert np.array_equal(batched, [[op(t, r) for r in block] for block in rows])
            # the columns of a C-ordered matrix, as marginal_score passes them
            assert np.array_equal(op(t, square.T), [op(t, c) for c in square.T])
        for r, m in zip(rows.reshape(-1, proc.n), proc.matvec(t, rows).reshape(-1, proc.n)):
            assert np.array_equal(proc.apply(t, Signal(r, shape)).values, m + proc.offset(t))


@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
def test_diagonal_gram_equals_identity_probe(t):
    # M^T M pushed through an identity column by column, as rmatvec(t, matvec(t, I))
    # once formed it, gives the same bits as the closed form of either diagonal family
    inpaint = GaussianMaskInpaintProcess((5, 7))
    m = inpaint.eigenvalues(t)[:, None]
    assert (_gram(inpaint, t) == m * (m * np.eye(35))).all()
    blend = BlendingProcess(_rand_signal(7, (5, 7)))
    assert (_gram(blend, t) == (1.0 - t) * ((1.0 - t) * np.eye(35))).all()
    # added into a full array, only the diagonal changes: every other entry keeps its bits
    base = RandomSource(15).normal((35, 35))
    off = ~np.eye(35, dtype=bool)
    for proc in (inpaint, blend):
        out = np.array(base, order="F")
        proc.add_gram(t, out)
        assert out[off].tobytes() == base[off].tobytes()
        assert (np.diag(out) == np.diag(base) + np.square(proc.eigenvalues(t))).all()


# --- spectral norm / temporal estimates ----------------------------------

def test_lipschitz_x_matches_svd():
    for proc in (GaussianBlurProcess((6, 6)), GaussianMaskInpaintProcess((6, 6))):
        for t in (0.3, 0.9):
            exact = np.linalg.norm(proc.as_matrix(t), 2)
            assert proc.lipschitz_x(t) == pytest.approx(exact, rel=1e-6)


def test_lipschitz_t_estimate_is_lower_bound():
    prior = squared_exponential_prior((6, 6))
    proc = GaussianMaskInpaintProcess((6, 6))
    rng = RandomSource(11)
    est = lipschitz_t_estimate(proc, 0.2, 0.8, prior, 16, rng)
    # every probe's ratio is a lower bound on the true constant; the estimate
    # must dominate any single probe
    x = prior_sample(prior, rng.split(0))
    single = np.linalg.norm(proc.apply(0.2, x).values - proc.apply(0.8, x).values) / 0.6
    assert est >= single - 1e-12
    with pytest.raises(ValueError):
        lipschitz_t_estimate(proc, 0.8, 0.2, prior, 4, rng)
