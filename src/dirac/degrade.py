"""Time-indexed degradation operator families with forward transition maps.

All processes here are affine in the signal: apply(t, x) = A(t) x + b(t). A family's A(t) are
symmetric with one orthonormal eigenbasis for every t, so each family states eigenvalues(t) in
to_modes order: the mask over pixels (inpainting), 1 - t (blending), or the axes' DFT
multipliers (blur). matvec, add_gram (A^T A added into the caller's n x n array) and the
spectral norm follow, pixel-diagonal by default (blur keeps its circulant forms); the dense
matrix is only the verification reference. Severities compose exactly (up to rounding) through
transition maps G_{t' -> t''}: inpainting divides masks, blur adds discrete-Gaussian variances
and blending re-blends toward its anchor.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod

import numpy as np
from scipy.linalg import expm

from .core import Signal
from .schedule import SeveritySchedule, check_severity, linear_schedule

__all__ = [
    "DegradationProcess",
    "GaussianBlurProcess",
    "GaussianMaskInpaintProcess",
    "BlendingProcess",
    "blur_kernel",
]

# Kernel widths below this are treated as a unit impulse.
_IMPULSE_WIDTH = 1e-3
# Mask denominators at or below this are treated as fully masked.
_MASK_GUARD = 1e-12


class DegradationProcess(ABC):
    """Severity-indexed operator family A_t with forward transitions."""

    #: max-norm tolerance for the composition identity apply(t'') == G(apply(t'))
    composition_tol: float = 1e-12
    #: relative tolerance for apply(0, x) ~ x
    identity_tol: float = 1e-12

    def apply(self, t: float, x: Signal) -> Signal:
        """Degrade x at severity t in [0,1]; a family with an offset adds it."""
        return x.with_values(self.matvec(t, x.values))

    def transition(self, t_lo: float, t_hi: float, y: Signal) -> Signal:
        """Forward transition G_{t_lo -> t_hi} taking A_{t_lo}(x) to A_{t_hi}(x)."""
        if not t_lo <= t_hi:
            raise ValueError("transition requires t_lo <= t_hi")
        return self._transition(t_lo, t_hi, y)

    @abstractmethod
    def _transition(self, t_lo: float, t_hi: float, y: Signal) -> Signal:
        """The family's own transition, for t_lo <= t_hi."""

    @abstractmethod
    def eigenvalues(self, t: float) -> np.ndarray:
        """(n,) eigenvalues of A(t), in the order of to_modes."""

    def to_modes(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of an (n,) vector in the shared orthonormal eigenbasis: the pixels."""
        return x

    def from_modes(self, z: np.ndarray) -> np.ndarray:
        """Inverse of to_modes, back to a real (n,) vector."""
        return z

    def matvec(self, t: float, x: np.ndarray) -> np.ndarray:
        """Linear part A(t) applied along the last axis of an (..., n) array, each row alone.

        Leading axes broadcast, and each row gets the bits of its own (n,) call.
        Pixel-diagonal by default.
        """
        return self.eigenvalues(t) * x

    def rmatvec(self, t: float, x: np.ndarray) -> np.ndarray:
        """Transpose A(t)^T along the last axis: matvec, as every family is symmetric."""
        return self.matvec(t, x)

    def add_gram(self, t: float, out: np.ndarray) -> None:
        """Add A(t)^T A(t) into the n x n array out; pixel-diagonal by default, on the diagonal."""
        out.flat[:: out.shape[0] + 1] += np.square(self.eigenvalues(t))

    def as_matrix(self, t: float) -> np.ndarray:
        """Dense n x n linear part A(t), the verification reference; pixel-diagonal by default."""
        return np.diag(self.eigenvalues(t))

    def offset(self, t: float) -> np.ndarray:
        """Constant part of the operator; zero for linear processes."""
        return np.zeros(self.n)

    @abstractmethod
    def param_of(self, t: float) -> float:
        """Physical operator parameter w_t after scheduling."""

    @property
    @abstractmethod
    def shape(self) -> tuple[int, ...]:
        """Signal shape this process operates on."""

    @property
    def n(self) -> int:
        return math.prod(self.shape)

    def lipschitz_x(self, t: float) -> float:
        """Spectral norm of the linear part A(t): its largest |eigenvalue|."""
        return float(np.max(np.abs(self.eigenvalues(t))))


def blur_kernel(w: float, size: int) -> np.ndarray:
    """Sampled Gaussian kernel exp(-i^2 / 2w^2) on a centered odd grid, sum 1."""
    if size % 2 == 0 or size < 3:
        raise ValueError(f"kernel size must be odd and >= 3, got {size}")
    if w <= 0:
        raise ValueError(f"kernel width must be positive, got {w}")
    kernel = np.zeros(size)
    if w < _IMPULSE_WIDTH:
        kernel[size // 2] = 1.0
        return kernel
    i = np.arange(size) - size // 2
    kernel = np.exp(-(i.astype(np.float64) ** 2) / (2.0 * w * w))
    return kernel / kernel.sum()


def _blur_variance(w: float) -> float:
    """Variance of blur_kernel(w, 2*ceil(4w) + 1): 0 below _IMPULSE_WIDTH."""
    if w < _IMPULSE_WIDTH:
        return 0.0
    # Scalar loop, faster than numpy on <= 12 terms; f = exp(-i^2/2w^2) by ratios.
    f, ratio, step = 1.0, math.exp(-0.5 / (w * w)), math.exp(-1.0 / (w * w))
    mass = moment = 0.0
    for i in range(1, math.ceil(4.0 * w) + 1):
        f *= ratio
        ratio *= step
        mass += f
        moment += f * i * i
    return 2.0 * moment / (1.0 + 2.0 * mass)


def _axis_tables(length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos(2 pi k/N) - 1 and the inverse DFT for k, lags <= N/2; each (i, j)'s cyclic lag."""
    k = np.arange(length // 2 + 1)
    lag = np.abs(np.arange(length)[:, None] - np.arange(length))
    lag = np.minimum(lag, length - lag)  # cyclic |i - j|: the circulant is exactly symmetric
    # The multiplier is even in k, so each 0 < k < N/2 stands for k and N - k.
    weight = np.where((k == 0) | (2 * k == length), 1.0, 2.0) / length
    inverse = weight * np.cos(2.0 * np.pi * (np.outer(k, k) % length) / length)
    return np.cos(2.0 * np.pi * k / length) - 1.0, inverse, lag


class GaussianBlurProcess(DegradationProcess):
    """Separable circular discrete-Gaussian blur with severity-scheduled width.

    The width w_t sets a variance v(w_t), that of the sampled kernel
    blur_kernel(w_t, 2*ceil(4 w_t) + 1), and each axis is blurred by Lindeberg's discrete
    Gaussian of that variance, whose DFT multiplier on the periodic grid is
    exp(v (cos 2 pi k/N - 1)) (IEEE TPAMI 12(3), 1990). Variances add under convolution, so
    transitions blur by v'' - v' and compose exactly up to rounding. A_t is symmetric with
    spectral norm 1. Following the reference setup, a residual width w_min is kept at t=0, so
    A_0 is only approximately the identity; identity_tol reflects the measured relative
    deviation on prior samples.
    """

    identity_tol = 0.05

    def __init__(
        self,
        shape: tuple[int, ...],
        schedule: SeveritySchedule | None = None,
        w_min: float = 0.3,
        w_max: float = 3.0,
    ):
        self._shape = tuple(int(s) for s in shape)
        if schedule is None:
            schedule = linear_schedule(w_min, w_max)
        self.schedule = schedule
        self._tables = {n: _axis_tables(n) for n in set(self._shape)}

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    def param_of(self, t: float) -> float:
        return self.schedule.interpolate(t)

    def _axis_blur(self, v: float, length: int) -> np.ndarray:
        generator, inverse, lag = self._tables[length]
        return (inverse @ np.exp(v * generator))[lag]

    def _blur(self, v: float, x: np.ndarray) -> np.ndarray:
        """C_h X C_w at variance v on each flat image along x's last axis.

        A stacked matmul makes one BLAS call per image, the call a single image makes.
        """
        c_h = self._axis_blur(v, self._shape[0])
        if len(self._shape) == 1:
            return (c_h @ x[..., None])[..., 0]
        h, wd = self._shape
        c_w = c_h if wd == h else self._axis_blur(v, wd)
        return (c_h @ x.reshape(-1, h, wd) @ c_w).reshape(x.shape)

    def eigenvalues(self, t: float) -> np.ndarray:
        """Outer product of each axis's exp(v (cos 2 pi k/N - 1)), k = 0..N-1 (fftn order)."""
        v = _blur_variance(self.param_of(t))
        # lag[0] = min(k, N - k) reads each k's multiplier from the k <= N/2 table
        axes = [np.exp(v * gen)[lag[0]] for gen, _, lag in map(self._tables.get, self._shape)]
        return functools.reduce(np.multiply.outer, axes).ravel()

    def to_modes(self, x: np.ndarray) -> np.ndarray:
        return np.fft.fftn(x.reshape(self._shape), norm="ortho").ravel()

    def from_modes(self, z: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(z.reshape(self._shape), norm="ortho").real.ravel()

    def matvec(self, t: float, x: np.ndarray) -> np.ndarray:
        return self._blur(_blur_variance(self.param_of(t)), x)

    def add_gram(self, t: float, out: np.ndarray) -> None:
        """Add C_h(2v) kron C_w(2v): variances add, so C(v)^2 = C(2v).

        Block row r of the product is C_h[r, c] C_w over the columns c, a w x n slab, so no
        n x n temporary is formed. The Gram is exactly symmetric, so each slab goes into out's
        transpose, which reads a Fortran-order out in order. A 1-D signal has C_w = [[1]].
        """
        v = 2.0 * _blur_variance(self.param_of(t))
        c_h = self._axis_blur(v, self._shape[0])
        c_w = self._axis_blur(v, self._shape[1]) if len(self._shape) == 2 else np.ones((1, 1))
        wd, rows = len(c_w), out.T
        for r, c_hr in enumerate(c_h):
            rows[r * wd:(r + 1) * wd] += (c_w[:, None, :] * c_hr[:, None]).reshape(wd, -1)

    def _transition(self, t_lo: float, t_hi: float, y: Signal) -> Signal:
        dv = _blur_variance(self.param_of(t_hi)) - _blur_variance(self.param_of(t_lo))
        if dv <= 0.0:
            return y
        return y.with_values(self._blur(dv, y.values))

    def as_matrix(self, t: float) -> np.ndarray:
        """Kronecker product of expm(v ((S + S^T)/2 - I)) per axis, S the cyclic shift."""
        v = _blur_variance(self.param_of(t))
        eyes = [np.eye(n) for n in self._shape]
        generators = [(np.roll(i, 1, axis=0) + np.roll(i, -1, axis=0)) / 2.0 - i for i in eyes]
        return functools.reduce(np.kron, [expm(v * g) for g in generators])


def _mask_values(w: float, k: int, d2: np.ndarray) -> np.ndarray:
    """Flat mask (1 - f)^k for f = exp(-d2 / 2w^2); all ones at w = 0.

    d2 is each pixel's squared distance to the middle pixel, where d2 = 0 and f = 1: the mask
    is 0 there for any w > 0.
    """
    if w == 0.0:
        return np.ones(d2.size)
    return (1.0 - np.exp(-d2 / (2.0 * w * w))) ** k


class GaussianMaskInpaintProcess(DegradationProcess):
    """Diagonal masking with a smooth Gaussian-bump mask growing with severity.

    The bump sits on the middle pixel (index s // 2 on each axis of size s); the mask at width
    w is (1 - f)^k for the bump f = exp(-d^2 / 2w^2), 0 at the middle for any w > 0 and
    entrywise non-increasing in w. M_0 is the identity (w(0)=0) and transitions divide masks
    entrywise, so composition is exact up to rounding; this is the designated process for
    exactness-sensitive checks. Each mask is recomputed when needed from the pixels' squared
    distances to the middle, computed once, so the process keeps no per-severity state. The
    sharpness exponent k is an integer >= 1.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        schedule: SeveritySchedule | None = None,
        k: int = 4,
        w_final: float | None = None,
    ):
        self._shape = tuple(int(s) for s in shape)
        if w_final is None:
            w_final = 0.2 * max(self._shape)
        if schedule is None:
            schedule = linear_schedule(0.0, w_final)
        if schedule.knots[0][1] != 0.0:
            raise ValueError("inpainting schedule must start at w=0 (identity mask)")
        if not (k >= 1 and float(k).is_integer()):
            raise ValueError("sharpness exponent must be an integer >= 1")
        self.schedule = schedule
        self.k = int(k)
        squares = np.ix_(*((np.arange(s) - s // 2) ** 2 for s in self._shape))
        self._d2 = sum(squares).astype(np.float64).ravel()

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    def param_of(self, t: float) -> float:
        return self.schedule.interpolate(t)

    def eigenvalues(self, t: float) -> np.ndarray:
        return _mask_values(self.param_of(t), self.k, self._d2)

    def _transition(self, t_lo: float, t_hi: float, y: Signal) -> Signal:
        m_lo, m_hi = self.eigenvalues(t_lo), self.eigenvalues(t_hi)
        out = np.zeros_like(y.values)
        live = m_lo > _MASK_GUARD
        out[live] = y.values[live] * m_hi[live] / m_lo[live]
        return y.with_values(out)


class BlendingProcess(DegradationProcess):
    """Severity as convex blending toward a fixed anchor measurement.

    A_t(x) = t * anchor + (1-t) * x: affine with linear part (1-t) I. The
    degradation operator's analytic form is never used, which is the point
    of this parametrization.
    """

    def __init__(self, anchor: Signal):
        self.anchor = anchor

    @property
    def shape(self) -> tuple[int, ...]:
        return self.anchor.shape

    def param_of(self, t: float) -> float:
        check_severity(t)
        return float(t)

    def apply(self, t: float, x: Signal) -> Signal:
        check_severity(t)
        return x.with_values(t * self.anchor.values + (1.0 - t) * x.values)

    def _transition(self, t_lo: float, t_hi: float, y: Signal) -> Signal:
        if t_lo == t_hi or t_lo == 1.0:
            return y
        # Recover x from y = t'*anchor + (1-t')*x, then re-blend at t''.
        scale = (1.0 - t_hi) / (1.0 - t_lo)
        return y.with_values(
            t_hi * self.anchor.values + scale * (y.values - t_lo * self.anchor.values)
        )

    def eigenvalues(self, t: float) -> np.ndarray:
        return np.full(self.n, 1.0 - self.param_of(t))

    def offset(self, t: float) -> np.ndarray:
        return t * self.anchor.values
