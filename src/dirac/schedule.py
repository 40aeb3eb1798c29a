"""Degradation scheduling: exact min-max knot selection on a severity distance table."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace

import numpy as np

from .core import with_path

__all__ = [
    "check_severity",
    "SeveritySchedule",
    "linear_schedule",
    "DistanceTable",
    "rmse_metric",
    "pairwise_distance",
    "build_distance_table",
    "check_knot_count",
    "greedy_schedule",
    "uniform_indices",
    "uniform_schedule",
    "max_edge_distance",
    "save_schedule",
    "load_schedule",
    "save_distance_table",
    "load_distance_table",
]


def check_severity(t: float) -> None:
    """Refuse a severity outside [0,1], NaN included: every severity-indexed call checks here."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"severity {t} outside [0,1]")


@dataclass(frozen=True)
class SeveritySchedule:
    """Piecewise-linear map from severity t in [0,1] to operator parameter w.

    Knots must be finite and include both endpoints; t strictly increasing, w
    non-decreasing (monotone severity).
    """

    knots: tuple[tuple[float, float], ...]
    warning: str | None = None
    max_edge_trace: tuple[float, ...] | None = None

    def __post_init__(self):
        knots = tuple((float(t), float(w)) for t, w in self.knots)
        ts = [t for t, _ in knots]
        ws = [w for _, w in knots]
        if not np.all(np.isfinite(knots)):
            raise ValueError("schedule knots must be finite")
        if len(knots) < 2 or ts[0] != 0.0 or ts[-1] != 1.0:
            raise ValueError("schedule knots must include endpoints t=0 and t=1")
        if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
            raise ValueError("knot severities must be strictly increasing")
        if any(w1 < w0 for w0, w1 in zip(ws, ws[1:])):
            raise ValueError("knot parameters must be non-decreasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_ts", tuple(ts))

    def interpolate(self, t: float) -> float:
        """np.interp over the knots in scalar Python: the same arithmetic, far cheaper."""
        check_severity(t)
        j = bisect.bisect_right(self._ts, t) - 1
        (t0, w0), (t1, w1) = self.knots[j], self.knots[min(j + 1, len(self.knots) - 1)]
        return w0 if t == t0 else (w1 - w0) / (t1 - t0) * (t - t0) + w0


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
        names = ("candidates", "d", "params")
        cand, d, params = (np.asarray(getattr(self, name), dtype=np.float64) for name in names)
        if d.shape != (cand.size, cand.size):
            raise ValueError("distance matrix shape does not match candidates")
        if not all(np.isfinite(arr).all() for arr in (cand, d, params)):
            raise ValueError("distance table candidates, distances and params must be finite")
        if np.any(np.abs(np.diag(d)) > 0):
            raise ValueError("distance table diagonal must be zero")
        if np.max(np.abs(d - d.T)) > 1e-12:
            raise ValueError("distance table must be symmetric")
        if np.any(d < 0):
            raise ValueError("distances must be non-negative")
        for name, arr in zip(names, (cand, d, params)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.candidates.size


def rmse_metric(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """RMS difference over the last axis, leading axes broadcast: the row contract of
    every metric=. Two vectors give a scalar; (S, n) against (k, S, n) gives (k, S)."""
    return np.sqrt(np.mean((a - b) ** 2, axis=-1))


def _degraded(proc, ts, dataset) -> np.ndarray:
    """(len(ts), S, n) block: every sample of the dataset degraded at every severity."""
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    out = np.empty((len(ts), len(dataset), dataset[0].n))
    for i, s in np.ndindex(out.shape[:2]):
        out[i, s] = proc.apply(ts[i], dataset[s]).values
    return out


def pairwise_distance(proc, t_i: float, t_j: float, dataset, metric=rmse_metric) -> float:
    """Mean of metric over the dataset's degraded pairs: one row-contract call on two
    stacked (S, n) blocks, the very expression of a build_distance_table entry."""
    at_i, at_j = _degraded(proc, (t_i, t_j), dataset)
    return float(np.mean(metric(at_i, at_j), axis=-1))


def build_distance_table(
    proc, dataset, n_candidates: int = 101, metric=rmse_metric, metric_name: str = "rmse"
) -> DistanceTable:
    """Dataset-averaged distances between N candidate severities uniform on [0,1]. Row i
    and its mirror are one row-contract metric call, the (S, n) block at candidate i against
    the (N-1-i, S, n) block after it, averaged over the S samples: N - 1 calls in all."""
    ts = np.linspace(0.0, 1.0, n_candidates)
    degraded = _degraded(proc, ts, dataset)
    d = np.zeros((n_candidates, n_candidates))
    for i in range(n_candidates - 1):
        d[i, i + 1:] = d[i + 1:, i] = np.mean(metric(degraded[i], degraded[i + 1:]), axis=-1)
    params = np.array([proc.param_of(t) for t in ts])
    return DistanceTable(ts, d, params, metric_name=metric_name, process_name=type(proc).__name__)


def check_knot_count(m: int, n_candidates: int) -> None:
    """0 <= m <= n_candidates - 2: m interior knots and both endpoints fit among the candidates."""
    if m < 0:
        raise ValueError(f"m={m} must be >= 0")
    if m > n_candidates - 2:
        raise ValueError(f"m={m} too large for {n_candidates} candidates")


def max_edge_distance(table: DistanceTable, indices) -> float:
    idx = sorted(indices)
    return max(table.d[i, j] for i, j in zip(idx, idx[1:]))


def greedy_schedule(table: DistanceTable, m: int) -> SeveritySchedule:
    """Exact min-max schedule: m interior knots minimizing the largest edge distance.

    A dynamic program over (edges used, last knot) solves it in O(m N^2): the
    linear-partition recurrence with max in place of sum (Skiena, The
    Algorithm Design Manual, section 8.5). max_edge_trace[i] is the optimum
    with i interior knots. Ties break toward the smallest candidate index, so
    reruns are byte-identical.
    """
    N = table.size
    check_knot_count(m, N)
    if np.all(table.d == 0):
        # Degenerate table: no signal to schedule on; fall back to uniform knots.
        return replace(uniform_schedule(table, m),
                       warning="degenerate distance table; uniform knots")

    # best[j]: least max edge over paths 0 -> j with the current edge count.
    forward = np.where(np.triu(np.ones((N, N), dtype=bool), 1), table.d, np.inf)
    best, prev = forward[0], []
    trace = [float(best[-1])]
    for _ in range(m):
        reach = np.maximum(best[:, None], forward)
        prev.append(np.argmin(reach, axis=0))  # first minimum: smallest index
        best = reach.min(axis=0)
        trace.append(float(best[-1]))
    selected = [N - 1]
    for back in reversed(prev):
        selected.insert(0, int(back[selected[0]]))
    knots = tuple((float(table.candidates[i]), float(table.params[i])) for i in [0, *selected])
    return SeveritySchedule(knots, max_edge_trace=tuple(trace))


def uniform_indices(size: int, m: int) -> np.ndarray:
    """Indices of m interior knots and both endpoints, uniformly spaced over size candidates."""
    return np.linspace(0, size - 1, m + 2).round().astype(int)


def uniform_schedule(table: DistanceTable, m: int) -> SeveritySchedule:
    """Uniformly spaced knots on the same candidate grid, for comparison."""
    idx = uniform_indices(table.size, m)
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


def _read_text(path, header_fields: int) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header fields, then (line number, fields) of each further non-blank line."""
    with open(path) as f:
        text = f.read()
    rows = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    # Every writer ends the file with a newline: a file without one was cut short.
    if (not text.endswith("\n") or not rows or len(rows[0][1]) != header_fields
            or not rows[0][1][-1].isdigit()):
        raise ValueError(f"{path}: truncated file or malformed header")
    return rows[0][1], rows[1:]


def _numbers(path, rows, count: int, width: int) -> np.ndarray:
    """The rows as a (count, width) array; a short or malformed line names the path."""
    if len(rows) != count:
        raise ValueError(f"{path}: expected {count} lines after the header, got {len(rows)}")
    for no, fields in rows:
        if len(fields) != width:
            raise ValueError(f"{path}: line {no}: expected {width} values, got {len(fields)}")
    return with_path(path, lambda: np.array([[float(v) for v in fields] for _, fields in rows]))


def load_schedule(path, process_name: str = "") -> SeveritySchedule:
    """The schedule in `path`; given `process_name`, refuse a file written for another process.

    A file saved without a process name (header `process`) loads for any process.
    """
    header, rows = _read_text(path, 4)
    if process_name and header[0] not in (process_name, "process"):
        raise ValueError(f"{path}: schedule written for {header[0]}, not {process_name}")
    knots = tuple(map(tuple, _numbers(path, rows, int(header[3]) + 2, 2)))
    return with_path(path, SeveritySchedule, knots)


def save_distance_table(table: DistanceTable, path) -> None:
    with open(path, "w") as f:
        f.write(f"{table.process_name or 'process'} {table.metric_name} {table.size}\n")
        f.write(" ".join(f"{t:.9g}" for t in table.candidates) + "\n")
        f.write(" ".join(f"{w:.9g}" for w in table.params) + "\n")
        for row in table.d:
            f.write(" ".join(f"{v:.9g}" for v in row) + "\n")


def load_distance_table(path) -> DistanceTable:
    (process_name, metric_name, size), rows = _read_text(path, 3)
    values = _numbers(path, rows, int(size) + 2, int(size))
    return with_path(path, DistanceTable, values[0], values[2:], values[1],
                     metric_name=metric_name, process_name=process_name)
