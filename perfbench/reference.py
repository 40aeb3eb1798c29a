"""Reference computations made apart from the program, and the checks on them.

Everything here uses numpy alone. The program is touched only through
``apply`` (to read an operator's matrix column by column) and through the
outputs under test; no reference value comes from ``as_matrix``, from an
oracle, or from a stored copy of an earlier run.

Each check is registered with ``Checks.add`` together with a negative control:
the same predicate applied to the answer perturbed by a small known amount,
which it must reject.
"""

from __future__ import annotations

import math

import numpy as np


class Checks:
    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.items.append((name, bool(passed), detail))

    def control(self, name: str, accepted: bool) -> None:
        """Record a negative control: the check must not accept the perturbed answer."""
        self.items.append((f"{name} rejects perturbed", not accepted, ""))

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.items)


def relative_error(value: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(value - reference) / np.linalg.norm(reference))


def nudge(values: np.ndarray, relative: float, rng: np.random.Generator) -> np.ndarray:
    """``values`` plus a random perturbation of norm ``relative * ||values||``."""
    u = rng.standard_normal(values.shape)
    return values + relative * np.linalg.norm(values) * u / np.linalg.norm(u)


# --- the Gaussian model ----------------------------------------------------

def se_covariance(shape, length_scale: float, jitter: float) -> np.ndarray:
    """Squared-exponential pixel covariance exp(-d^2 / 2l^2) + jitter I."""
    grids = np.meshgrid(*[np.arange(s, dtype=np.float64) for s in shape], indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1)
    return np.exp(-d2 / (2.0 * length_scale**2)) + jitter * np.eye(coords.shape[0])


def sigma(t: float, sigma_min: float, sigma_max: float) -> float:
    """Geometric noise level sigma_min (sigma_max / sigma_min)^t."""
    return sigma_min * (sigma_max / sigma_min) ** t


def probe_operator(proc, t: float, signal_type, shape) -> tuple[np.ndarray, np.ndarray]:
    """Linear part and offset of ``proc.apply(t, .)``, read column by column."""
    n = math.prod(shape)
    offset = proc.apply(t, signal_type(np.zeros(n), shape)).values
    basis = np.eye(n)
    m = np.empty((n, n))
    for j in range(n):
        m[:, j] = proc.apply(t, signal_type(basis[j], shape)).values - offset
    return m, offset


def posterior_mean(cov, mean, m, offset, noise_sigma, y) -> np.ndarray:
    """E[x | y] for x ~ N(mean, cov) and y = M x + offset + noise_sigma eps."""
    s = m @ cov @ m.T + noise_sigma**2 * np.eye(m.shape[0])
    return mean + cov @ m.T @ np.linalg.solve(s, y - m @ mean - offset)


# --- distance tables and schedules -----------------------------------------

def rmse_distance(degraded_i: np.ndarray, degraded_j: np.ndarray) -> float:
    """Dataset mean of the per-signal RMS difference; rows are signals."""
    return float(np.mean(np.sqrt(np.mean((degraded_i - degraded_j) ** 2, axis=1))))


def max_edge(d: np.ndarray, indices) -> float:
    idx = sorted(indices)
    return max(d[i, j] for i, j in zip(idx, idx[1:]))


def knot_indices(candidates: np.ndarray, knots) -> list[int]:
    return [int(np.argmin(np.abs(candidates - t))) for t, _ in knots]


def non_increasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def non_decreasing(values) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


# --- training --------------------------------------------------------------

def incremental_loss(d, c, batch, operators, sigmas) -> float:
    """Batch mean of ||M_tau (D_b y + c_b - x0)||^2 / sigma_t^2.

    ``batch`` holds (x0, y, bin) arrays; ``operators`` the probed M_tau and
    ``sigmas`` sigma_t for each sample.
    """
    total = 0.0
    for (x0, y, b), m, s in zip(batch, operators, sigmas):
        r = m @ (d[b] @ y + c[b] - x0)
        total += float(r @ r) / (s * s)
    return total / len(batch)


def loss_falls(losses, window: int) -> bool:
    losses = np.asarray(losses)
    return bool(np.all(np.isfinite(losses))) and losses[-window:].mean() < losses[:window].mean()


# --- consistency -----------------------------------------------------------

def stacked_residual(m_lo, r_lo, m_hi, r_hi) -> float:
    """Per-entry RMS residual of the least-squares solution of [M_lo; M_hi] x = [r_lo; r_hi]."""
    a = np.vstack([m_lo, m_hi])
    b = np.concatenate([r_lo, r_hi])
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    res = a @ x - b
    return math.sqrt(float(res @ res) / b.size)
