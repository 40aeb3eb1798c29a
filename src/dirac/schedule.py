"""Greedy degradation scheduling: min-max splitting of a severity distance table."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np


__all__ = [
    "SeveritySchedule",
    "DistanceTable",
    "rmse_metric",
    "pairwise_distance",
    "build_distance_table",
    "greedy_schedule",
    "uniform_schedule",
    "max_edge_distance",
    "save_schedule",
    "load_schedule",
    "save_distance_table",
    "load_distance_table",
]


@dataclass(frozen=True)
class SeveritySchedule:
    """Piecewise-linear map from severity t in [0,1] to operator parameter w.

    Knots must include both endpoints; t strictly increasing, w non-decreasing
    (monotone severity).
    """

    knots: tuple[tuple[float, float], ...]
    warning: str | None = None
    max_edge_trace: tuple[float, ...] | None = None

    def __post_init__(self):
        knots = tuple((float(t), float(w)) for t, w in self.knots)
        ts = [t for t, _ in knots]
        ws = [w for _, w in knots]
        if len(knots) < 2 or ts[0] != 0.0 or ts[-1] != 1.0:
            raise ValueError("schedule knots must include endpoints t=0 and t=1")
        if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
            raise ValueError("knot severities must be strictly increasing")
        if any(w1 < w0 for w0, w1 in zip(ws, ws[1:])):
            raise ValueError("knot parameters must be non-decreasing")
        object.__setattr__(self, "knots", knots)

    def interpolate(self, t: float) -> float:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"severity {t} outside [0,1]")
        ts = [k[0] for k in self.knots]
        ws = [k[1] for k in self.knots]
        return float(np.interp(t, ts, ws))


def linear_schedule(w_min: float, w_max: float) -> SeveritySchedule:
    return SeveritySchedule(((0.0, w_min), (1.0, w_max)))


@dataclass(frozen=True)
class DistanceTable:
    """Dataset-averaged pairwise degradation distances over candidate severities."""

    candidates: np.ndarray  # N severities, uniform on [0,1]
    d: np.ndarray  # symmetric N x N
    params: np.ndarray  # operator parameter at each candidate
    metric_name: str = "rmse"
    process_name: str = ""

    def __post_init__(self):
        cand = np.asarray(self.candidates, dtype=np.float64)
        d = np.asarray(self.d, dtype=np.float64)
        params = np.asarray(self.params, dtype=np.float64)
        if d.shape != (cand.size, cand.size):
            raise ValueError("distance matrix shape does not match candidates")
        if np.any(np.abs(np.diag(d)) > 0):
            raise ValueError("distance table diagonal must be zero")
        if np.max(np.abs(d - d.T)) > 1e-12:
            raise ValueError("distance table must be symmetric")
        if np.any(d < 0):
            raise ValueError("distances must be non-negative")
        for arr in (cand, d, params):
            arr.setflags(write=False)
        object.__setattr__(self, "candidates", cand)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "params", params)

    @property
    def size(self) -> int:
        return self.candidates.size


def rmse_metric(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)))


def pairwise_distance(proc, t_i: float, t_j: float, dataset, metric=rmse_metric) -> float:
    """Mean of metric over corresponding degraded pairs of the dataset."""
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    total = 0.0
    for x in dataset:
        total += metric(proc.apply(t_i, x).values, proc.apply(t_j, x).values)
    return total / len(dataset)


def build_distance_table(
    proc, dataset, n_candidates: int = 101, metric=rmse_metric, metric_name: str = "rmse"
) -> DistanceTable:
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    ts = np.linspace(0.0, 1.0, n_candidates)
    # Degrade every sample at every candidate once, then compare pairs.
    degraded = np.empty((n_candidates, len(dataset), dataset[0].n))
    for i, t in enumerate(ts):
        for s, x in enumerate(dataset):
            degraded[i, s] = proc.apply(t, x).values
    d = np.zeros((n_candidates, n_candidates))
    for i in range(n_candidates):
        for j in range(i + 1, n_candidates):
            dist = np.mean([metric(degraded[i, s], degraded[j, s]) for s in range(len(dataset))])
            d[i, j] = d[j, i] = dist
    params = np.array([proc.param_of(t) for t in ts])
    return DistanceTable(ts, d, params, metric_name=metric_name, process_name=type(proc).__name__)


def max_edge_distance(table: DistanceTable, indices) -> float:
    idx = sorted(indices)
    return max(table.d[i, j] for i, j in zip(idx, idx[1:]))


def greedy_schedule(table: DistanceTable, m: int) -> SeveritySchedule:
    """Select m interior severities by repeatedly splitting the max-distance edge.

    Each insertion splits the current maximum-distance edge at the interior
    candidate minimizing the larger of the two resulting edge distances; ties
    break toward the smallest candidate index. The max edge distance is
    non-increasing across insertions.
    """
    N = table.size
    if m > N - 2:
        raise ValueError(f"m={m} too large for {N} candidates")
    if np.all(table.d == 0):
        # Degenerate table: no signal to schedule on; fall back to uniform knots.
        return replace(uniform_schedule(table, m),
                       warning="degenerate distance table; uniform knots")

    selected = [0, N - 1]
    trace = [float(table.d[0, N - 1])]
    for _ in range(m):
        # Largest edge that still has an interior candidate to insert; an
        # adjacent-candidate edge cannot be split further.
        edges = [(i, j) for i, j in zip(selected, selected[1:]) if j - i >= 2]
        edges.sort(key=lambda e: (-table.d[e[0], e[1]], e[0]))
        e_start, e_end = edges[0]
        split = _find_best_split(table, e_start, e_end, table.d[e_start, e_end])
        selected.append(split)
        selected.sort()
        trace.append(max_edge_distance(table, selected))
    knots = tuple((float(table.candidates[i]), float(table.params[i])) for i in selected)
    return SeveritySchedule(knots, max_edge_trace=tuple(trace))


def _find_best_split(table: DistanceTable, e_start: int, e_end: int, d_max: float) -> int:
    best = d_max
    split = None
    for j in range(e_start + 1, e_end):
        worse = max(table.d[e_start, j], table.d[j, e_end])
        if worse < best:  # strict: first (smallest-index) candidate wins ties
            best = worse
            split = j
    if split is None:
        # No interior point improves the edge; take the first interior candidate.
        split = e_start + 1
    return split


def uniform_schedule(table: DistanceTable, m: int) -> SeveritySchedule:
    """Uniformly spaced knots on the same candidate grid, for comparison."""
    N = table.size
    idx = np.linspace(0, N - 1, m + 2).round().astype(int)
    knots = tuple((float(table.candidates[i]), float(table.params[i])) for i in idx)
    return SeveritySchedule(knots)


def save_schedule(schedule: SeveritySchedule, path, process_name: str = "",
                  metric_name: str = "rmse", n_candidates: int = 0) -> None:
    """Plain-text table: header, then one `t w` pair per line (9 sig digits)."""
    m = max(len(schedule.knots) - 2, 0)
    with open(path, "w") as f:
        f.write(f"{process_name or 'process'} {metric_name} {n_candidates} {m}\n")
        for t, w in schedule.knots:
            f.write(f"{t:.9g} {w:.9g}\n")


def load_schedule(path) -> SeveritySchedule:
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    knots = tuple(tuple(float(v) for v in ln.split()) for ln in lines[1:])
    return SeveritySchedule(knots)


def save_distance_table(table: DistanceTable, path) -> None:
    with open(path, "w") as f:
        f.write(f"{table.process_name or 'process'} {table.metric_name} {table.size}\n")
        f.write(" ".join(f"{t:.9g}" for t in table.candidates) + "\n")
        f.write(" ".join(f"{w:.9g}" for w in table.params) + "\n")
        for row in table.d:
            f.write(" ".join(f"{v:.9g}" for v in row) + "\n")


def load_distance_table(path) -> DistanceTable:
    with open(path) as f:
        header = f.readline().split()
        process_name, metric_name = header[0], header[1]
        cand = np.array([float(v) for v in f.readline().split()])
        params = np.array([float(v) for v in f.readline().split()])
        d = np.array([[float(v) for v in f.readline().split()] for _ in cand])
    return DistanceTable(cand, d, params, metric_name=metric_name, process_name=process_name)
