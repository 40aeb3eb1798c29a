import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dirac.core import RandomSource, Signal, prior_sample, squared_exponential_prior
from dirac.degrade import BlendingProcess, GaussianBlurProcess, GaussianMaskInpaintProcess
from dirac.schedule import (
    DistanceTable,
    SeveritySchedule,
    build_distance_table,
    greedy_schedule,
    linear_schedule,
    load_distance_table,
    load_schedule,
    max_edge_distance,
    pairwise_distance,
    rmse_metric,
    save_distance_table,
    save_schedule,
    uniform_schedule,
)


def _index_table(n):
    """d(i,j) = |i - j|: the metric-linear-in-index reference table."""
    idx = np.arange(n, dtype=float)
    d = np.abs(idx[:, None] - idx[None, :])
    return DistanceTable(np.linspace(0, 1, n), d, np.linspace(0, 1, n))


def _brute_force_minmax(table, m):
    n = table.size
    best = np.inf
    for combo in itertools.combinations(range(1, n - 1), m):
        sel = [0, *combo, n - 1]
        best = min(best, max_edge_distance(table, sel))
    return best


# --- SeveritySchedule ------------------------------------------------------

def test_schedule_requires_endpoints():
    with pytest.raises(ValueError):
        SeveritySchedule(((0.1, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        SeveritySchedule(((0.0, 0.0), (0.9, 1.0)))


def test_schedule_monotonicity_enforced():
    with pytest.raises(ValueError):
        SeveritySchedule(((0.0, 0.0), (0.5, 2.0), (0.5, 3.0), (1.0, 4.0)))
    with pytest.raises(ValueError):
        SeveritySchedule(((0.0, 2.0), (1.0, 1.0)))


@pytest.mark.parametrize("knots", [((0.0, 0.0), (1.0, np.nan)), ((0.0, 0.0), (1.0, np.inf)),
                                   ((0.0, -np.inf), (1.0, 0.0)),
                                   ((0.0, 0.0), (np.nan, 1.0), (1.0, 2.0))],
                         ids=["nan-width", "inf-width", "-inf-width", "nan-severity"])
def test_schedule_refuses_non_finite_knots(knots):
    # NaN fails every comparison, so the ordering checks alone let it through
    with pytest.raises(ValueError, match="^schedule knots must be finite$"):
        SeveritySchedule(knots)


def test_interpolate_exact_at_knots_and_midpoint():
    sched = linear_schedule(0.3, 3.0)
    assert sched.interpolate(0.0) == 0.3
    assert sched.interpolate(1.0) == 3.0
    assert sched.interpolate(0.5) == pytest.approx(1.65)
    with pytest.raises(ValueError):
        sched.interpolate(1.1)


def test_interpolate_monotone_on_grid():
    sched = SeveritySchedule(((0.0, 0.0), (0.2, 0.1), (0.7, 1.4), (1.0, 1.6)))
    vals = [sched.interpolate(t) for t in np.linspace(0, 1, 101)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), unique=True,
                max_size=6),
       st.lists(st.floats(0.0, 1e3), min_size=8, max_size=8),
       st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0]))
def test_interpolate_bit_identical_to_np_interp(inner, steps, t):
    ts = [0.0, *sorted(inner), 1.0]
    ws = list(np.cumsum(steps[: len(ts)]))
    sched = SeveritySchedule(tuple(zip(ts, ws)))
    assert sched.interpolate(t) == float(np.interp(t, ts, ws))
    for knot_t, knot_w in sched.knots:
        assert sched.interpolate(knot_t) == knot_w


# --- distances -------------------------------------------------------------

def test_pairwise_distance_zero_for_equal_severities():
    proc = GaussianMaskInpaintProcess((8, 8))
    prior = squared_exponential_prior((8, 8))
    data = [prior_sample(prior, RandomSource(0).split(i)) for i in range(4)]
    assert pairwise_distance(proc, 0.4, 0.4, data) == 0.0


def test_pairwise_distance_constant_image_blur():
    proc = GaussianBlurProcess((8, 8))
    const = [Signal.from_array(np.full((8, 8), 0.7))]
    assert pairwise_distance(proc, 0.1, 0.9, const) == pytest.approx(0.0, abs=1e-12)


def test_pairwise_distance_matches_brute_force():
    proc = GaussianMaskInpaintProcess((8, 8))
    prior = squared_exponential_prior((8, 8))
    data = [prior_sample(prior, RandomSource(1).split(i)) for i in range(64)]
    got = pairwise_distance(proc, 0.2, 0.8, data)
    brute = np.mean([
        np.sqrt(np.mean((proc.apply(0.2, x).values - proc.apply(0.8, x).values) ** 2))
        for x in data
    ])
    assert got == pytest.approx(brute, abs=1e-12)


def test_build_distance_table_consistency():
    proc = GaussianMaskInpaintProcess((6, 6))
    prior = squared_exponential_prior((6, 6))
    data = [prior_sample(prior, RandomSource(2).split(i)) for i in range(3)]
    table = build_distance_table(proc, data, n_candidates=11)
    assert table.size == 11
    i, j = 2, 7
    expected = pairwise_distance(proc, table.candidates[i], table.candidates[j], data)
    assert table.d[i, j] == expected  # the same expression, so bit-identical
    with pytest.raises(ValueError):
        build_distance_table(proc, [], n_candidates=5)


def _per_pair_table(proc, dataset, n):
    """Reference: one scalar RMSE per candidate pair and sample, averaged per pair."""
    ts = np.linspace(0.0, 1.0, n)
    degraded = [[proc.apply(t, x).values for x in dataset] for t in ts]
    d = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        d[i, j] = d[j, i] = np.mean([float(np.sqrt(np.mean((a - b) ** 2)))
                                     for a, b in zip(degraded[i], degraded[j])])
    return d


@pytest.mark.parametrize("shape", [(7,), (6, 6)], ids=["7", "6x6"])
@pytest.mark.parametrize("family", ["blur", "inpaint", "blending"])
def test_build_distance_table_equals_per_pair_loop(family, shape):
    prior = squared_exponential_prior(shape)
    proc = {"blur": lambda: GaussianBlurProcess(shape),
            "inpaint": lambda: GaussianMaskInpaintProcess(shape),
            "blending": lambda: BlendingProcess(prior_sample(prior, RandomSource(9)))}[family]()
    for s in (1, 3, 8):
        data = [prior_sample(prior, RandomSource(s).split(i)) for i in range(s)]
        for n in (2, 11):
            table = build_distance_table(proc, data, n_candidates=n)
            assert np.array_equal(table.d, _per_pair_table(proc, data, n))


def test_build_distance_table_calls_metric_once_per_row():
    proc = GaussianMaskInpaintProcess((6, 6))
    prior = squared_exponential_prior((6, 6))
    data = [prior_sample(prior, RandomSource(2).split(i)) for i in range(3)]
    shapes = []

    def counted(a, b):
        shapes.append((a.shape, b.shape))
        return rmse_metric(a, b)

    table = build_distance_table(proc, data, n_candidates=11, metric=counted)
    assert shapes == [((3, 36), (10 - i, 3, 36)) for i in range(10)]  # N - 1 calls
    assert np.array_equal(table.d, build_distance_table(proc, data, n_candidates=11).d)


@pytest.mark.parametrize("n", [5, 36, 64])
def test_rmse_metric_rows_equal_per_vector_calls(n):
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=(4, 3, n)), rng.normal(size=(4, 3, n))
    rows, broadcast = rmse_metric(a, b), rmse_metric(a[0], b)
    assert rows.shape == broadcast.shape == (4, 3)
    for k, s in np.ndindex(4, 3):
        assert rows[k, s] == rmse_metric(a[k, s], b[k, s])
        assert broadcast[k, s] == rmse_metric(a[0, s], b[k, s])


def test_distance_table_validation():
    bad = np.ones((3, 3))
    with pytest.raises(ValueError):
        DistanceTable(np.linspace(0, 1, 3), bad, np.zeros(3))  # nonzero diagonal


# --- greedy ----------------------------------------------------------------

def test_greedy_m_zero_endpoints_only():
    sched = greedy_schedule(_index_table(9), 0)
    assert sched.knots == ((0.0, 0.0), (1.0, 1.0))


def test_greedy_linear_table_splits_middle():
    sched = greedy_schedule(_index_table(5), 1)
    assert [t for t, _ in sched.knots] == [0.0, 0.5, 1.0]


def test_min_max_ties_break_toward_smallest_index():
    # on d(i, j) = |i - j| over 5 candidates, knots {1, 2}, {1, 3} and {2, 3}
    # all reach the optimum 2; backtracking takes the smallest index each time
    sched = greedy_schedule(_index_table(5), 2)
    assert [t for t, _ in sched.knots] == [0.0, 0.25, 0.5, 1.0]


def test_greedy_against_brute_force_small():
    # the schedule is the exact min-max optimum (criterion 07 checks equality);
    # these bounds are the weaker ones every schedule must meet
    rng = RandomSource(3)
    prior = squared_exponential_prior((6, 6))
    data = [prior_sample(prior, rng.split(i)) for i in range(4)]
    for proc in (GaussianMaskInpaintProcess((6, 6)), GaussianBlurProcess((6, 6))):
        for n in (8, 12):
            table = build_distance_table(proc, data, n_candidates=n)
            idx_of = {round(float(t), 12): i for i, t in enumerate(table.candidates)}
            for m in (1, 2, 3):
                sched = greedy_schedule(table, m)
                sel = [idx_of[round(t, 12)] for t, _ in sched.knots]
                greedy_max = max_edge_distance(table, sel)
                optimum = _brute_force_minmax(table, m)
                assert greedy_max >= optimum - 1e-15
                assert greedy_max <= 1.5 * optimum
                if m == 1:
                    # a single split is exhaustive by construction
                    assert greedy_max == pytest.approx(optimum, rel=1e-12)


@st.composite
def _tables_and_m(draw):
    """Symmetric tables with zero diagonal on N <= 9 candidates, m <= 4; integer
    entries make ties common."""
    n = draw(st.integers(3, 9))
    entry = st.integers(0, 12).map(float) | st.floats(0.0, 12.0)
    upper = draw(st.lists(entry, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = upper
    table = DistanceTable(np.linspace(0, 1, n), d + d.T, np.linspace(0, 1, n))
    return table, draw(st.integers(0, min(4, n - 2)))


@given(_tables_and_m())
def test_min_max_schedule_is_exact(case):
    table, m = case
    sched = greedy_schedule(table, m)
    idx_of = {round(float(t), 12): i for i, t in enumerate(table.candidates)}
    sel = [idx_of[round(t, 12)] for t, _ in sched.knots]
    assert len(sel) == m + 2 and sel[0] == 0 and sel[-1] == table.size - 1
    optimum = _brute_force_minmax(table, m)
    assert max_edge_distance(table, sel) == optimum
    uniform = uniform_schedule(table, m)
    assert optimum <= max_edge_distance(table, [idx_of[round(t, 12)] for t, _ in uniform.knots])
    if sched.warning is None:
        assert sched.max_edge_trace == tuple(_brute_force_minmax(table, i) for i in range(m + 1))
    assert greedy_schedule(table, m) == sched  # reruns pick the same knots


def test_greedy_trace_non_increasing():
    proc = GaussianMaskInpaintProcess((8, 8))
    prior = squared_exponential_prior((8, 8))
    data = [prior_sample(prior, RandomSource(4).split(i)) for i in range(4)]
    table = build_distance_table(proc, data, n_candidates=31)
    sched = greedy_schedule(table, 8)
    trace = sched.max_edge_trace
    assert len(trace) == 9
    assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))


def test_greedy_beats_uniform():
    proc = GaussianBlurProcess((8, 8))
    prior = squared_exponential_prior((8, 8))
    data = [prior_sample(prior, RandomSource(5).split(i)) for i in range(4)]
    table = build_distance_table(proc, data, n_candidates=21)
    idx_of = {round(float(t), 12): i for i, t in enumerate(table.candidates)}
    for m in (1, 2, 5, 10):
        g = greedy_schedule(table, m)
        u = uniform_schedule(table, m)
        g_max = max_edge_distance(table, [idx_of[round(t, 12)] for t, _ in g.knots])
        u_max = max_edge_distance(table, [idx_of[round(t, 12)] for t, _ in u.knots])
        assert g_max <= u_max + 1e-15


def test_greedy_local_optimality():
    # moving any single interior knot cannot reduce the max edge
    table = _index_table(11)
    sched = greedy_schedule(table, 3)
    idx_of = {round(float(t), 12): i for i, t in enumerate(table.candidates)}
    sel = [idx_of[round(t, 12)] for t, _ in sched.knots]
    base = max_edge_distance(table, sel)
    for pos in range(1, len(sel) - 1):
        for alt in range(1, table.size - 1):
            if alt in sel:
                continue
            moved = sel[:pos] + [alt] + sel[pos + 1:]
            assert max_edge_distance(table, sorted(moved)) >= base - 1e-15


def test_greedy_degenerate_table_warns():
    n = 7
    table = DistanceTable(np.linspace(0, 1, n), np.zeros((n, n)), np.linspace(0, 1, n))
    sched = greedy_schedule(table, 2)
    assert sched.warning is not None
    assert len(sched.knots) == 4


def test_greedy_m_too_large():
    with pytest.raises(ValueError):
        greedy_schedule(_index_table(5), 4)


# --- persistence -------------------------------------------------------------

def test_schedule_file_roundtrip_and_determinism(tmp_path):
    sched = SeveritySchedule(((0.0, 0.0), (0.31, 0.52), (1.0, 1.6)))
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_schedule(sched, p1, process_name="inpaint", n_candidates=11)
    save_schedule(sched, p2, process_name="inpaint", n_candidates=11)
    assert p1.read_bytes() == p2.read_bytes()
    back = load_schedule(p1)
    assert back.knots == sched.knots


@st.composite
def _schedules(draw):
    """Schedules whose values have at most 9 significant digits, so the text
    format carries them exactly."""
    ts = sorted(draw(st.lists(st.integers(1, 999_999), unique=True, max_size=6)))
    steps = draw(st.lists(st.integers(0, 100_000), min_size=len(ts) + 2, max_size=len(ts) + 2))
    ws = np.cumsum(steps) / 1000
    return SeveritySchedule(tuple(zip([0.0, *(t / 1e6 for t in ts), 1.0], ws)))


@given(_schedules())
def test_schedule_file_roundtrip_property(tmp_path_factory, sched):
    path = tmp_path_factory.mktemp("schedule") / "schedule.txt"
    save_schedule(sched, path, process_name="GaussianBlurProcess", n_candidates=101)
    assert load_schedule(path).knots == sched.knots


@st.composite
def _distance_tables(draw):
    n = draw(st.integers(2, 6))
    milli = st.integers(0, 10**6).map(lambda v: v / 1000)
    upper = draw(st.lists(milli, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = upper
    cand = draw(st.lists(milli, min_size=n, max_size=n))
    params = draw(st.lists(milli, min_size=n, max_size=n))
    name = draw(st.sampled_from(["GaussianBlurProcess", "GaussianMaskInpaintProcess"]))
    return DistanceTable(cand, d + d.T, params, metric_name="rmse", process_name=name)


@given(_distance_tables())
def test_distance_table_roundtrip_property(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("table") / "table.txt"
    save_distance_table(table, path)
    back = load_distance_table(path)
    for field in ("candidates", "d", "params"):
        np.testing.assert_array_equal(getattr(back, field), getattr(table, field))
    assert (back.metric_name, back.process_name) == (table.metric_name, table.process_name)


def _every_cut_refused(tmp_path, data, load):
    cut = tmp_path / "cut.txt"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        with pytest.raises(ValueError, match="cut.txt"):
            load(cut)


def test_schedule_file_every_cut_refused(tmp_path):
    full = tmp_path / "full.txt"
    save_schedule(SeveritySchedule(((0.0, 0.0), (0.31, 0.52), (1.0, 1.6))), full,
                  process_name="inpaint", n_candidates=11)
    _every_cut_refused(tmp_path, full.read_bytes(), load_schedule)


def test_distance_table_every_cut_refused(tmp_path):
    full = tmp_path / "full.txt"
    save_distance_table(_index_table(3), full)
    _every_cut_refused(tmp_path, full.read_bytes(), load_distance_table)


def test_text_loaders_name_malformed_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("inpaint rmse 11 1\n0 0\n0.5\n1 1.6\n")
    with pytest.raises(ValueError, match=r"bad.txt: line 3: expected 2 values, got 1"):
        load_schedule(path)
    path.write_text("inpaint rmse 11 0\n0 0\n1 nan\n")
    with pytest.raises(ValueError, match=r"^\S*bad.txt: schedule knots must be finite$"):
        load_schedule(path)
    path.write_text("inpaint rmse 2\n0 1\n0 1\n0 x\n1 0\n")
    with pytest.raises(ValueError, match=r"bad.txt: could not convert string to float: 'x'"):
        load_distance_table(path)
    # NaN passes every comparison, so the symmetry, diagonal and sign tests alone let it in
    for rows in ("0 1\n0 1\n0 nan\nnan 0\n", "0 nan\n0 1\n0 1\n1 0\n",
                 "0 1\n0 inf\n0 1\n1 0\n"):
        path.write_text("inpaint rmse 2\n" + rows)
        with pytest.raises(ValueError, match=r"^\S*bad.txt: distance table candidates, "
                                             r"distances and params must be finite$"):
            load_distance_table(path)


def test_distance_table_roundtrip(tmp_path):
    table = _index_table(6)
    path = tmp_path / "table.txt"
    save_distance_table(table, path)
    back = load_distance_table(path)
    # text format carries 9 significant digits
    np.testing.assert_allclose(back.d, table.d, rtol=1e-8)
    np.testing.assert_allclose(back.candidates, table.candidates, rtol=1e-8)
