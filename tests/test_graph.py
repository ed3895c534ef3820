import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_frame
from drivestyle.centrality import compute_series
from drivestyle.errors import ContractViolationError, ValidationError
from drivestyle import graph
from drivestyle.graph import (
    CumulativeAdjacency,
    build_instant_graph,
    graph_error,
    sweep_edges,
    update_cumulative,
)
from oracles import (
    all_pairs_edges,
    by_agent,
    lexsort_sweep_edges,
    records_table,
    replay_degree,
)


def test_edge_below_threshold():
    g = build_instant_graph([make_frame("a", 0, 0), make_frame("b", 3, 4)], mu=26.0)
    assert g.edges == {("a", "b"): 25.0}


def test_threshold_is_strict():
    g = build_instant_graph([make_frame("a", 0, 0), make_frame("b", 3, 4)], mu=25.0)
    assert g.edges == {}


def test_single_agent_graph():
    g = build_instant_graph([make_frame("a", 1, 1)], mu=10.0)
    assert list(g.positions) == ["a"]
    assert g.edges == {}


def test_duplicate_agent_rejected():
    with pytest.raises(ValidationError):
        build_instant_graph([make_frame("a", 0, 0), make_frame("a", 1, 1)], mu=10.0)


def test_coincident_positions_rejected():
    with pytest.raises(ValidationError):
        build_instant_graph([make_frame("a", 1, 1), make_frame("b", 1, 1)], mu=10.0)


def test_empty_frame_and_bad_mu_rejected():
    with pytest.raises(ValidationError):
        build_instant_graph([], mu=10.0)
    with pytest.raises(ValidationError):
        build_instant_graph([make_frame("a", 0, 0)], mu=0.0)


def test_neighbors_lookup():
    g = build_instant_graph(
        [make_frame("a", 0, 0), make_frame("b", 1, 0), make_frame("c", 9, 9)], mu=4.0
    )
    assert g.edges == {("a", "b"): 1.0}
    assert list(g.positions) == ["a", "b", "c"]


def test_new_neighbor_counts_faster_only():
    state = CumulativeAdjacency(capacity=8)
    g = build_instant_graph([make_frame("a", 0, 0), make_frame("b", 1, 0)], mu=4.0)
    counts = update_cumulative(state, g, {"a": 10.0, "b": 5.0})
    assert counts == {"a": 1, "b": 0}


def test_seen_set_is_idempotent():
    state = CumulativeAdjacency(capacity=8)
    g = build_instant_graph([make_frame("a", 0, 0), make_frame("b", 1, 0)], mu=4.0)
    update_cumulative(state, g, {"a": 10.0, "b": 5.0})
    counts = update_cumulative(state, g, {"a": 10.0, "b": 5.0})
    assert counts == {"a": 0, "b": 0}


def test_capacity_reset_trace():
    # capacity 2: a third distinct agent forces a reset, after which the
    # state is repopulated from the current graph alone.
    state = CumulativeAdjacency(capacity=2)
    g1 = build_instant_graph([make_frame("a", 0, 0), make_frame("b", 1, 0)], mu=9.0)
    counts = update_cumulative(state, g1, {"a": 2.0, "b": 1.0})
    assert counts == {"a": 1, "b": 0}
    assert state.admitted == {"a", "b"}
    assert state.seen == {"a": {"b"}, "b": {"a"}}
    assert state.reset_count == 0

    g2 = build_instant_graph([make_frame("b", 0, 0), make_frame("c", 1, 0)], mu=9.0)
    counts = update_cumulative(state, g2, {"b": 2.0, "c": 1.0})
    assert state.reset_count == 1
    assert counts == {"b": 1, "c": 0}  # c is new to b after the reset
    assert state.admitted == {"b", "c"}  # a forgotten
    assert state.seen == {"b": {"c"}, "c": {"b"}}

    # a known pair, admitted ids within capacity: no reset, nothing new
    counts = update_cumulative(state, g2, {"b": 2.0, "c": 1.0})
    assert (counts, state.reset_count) == ({"b": 0, "c": 0}, 1)


def test_frame_larger_than_capacity_rejected():
    state = CumulativeAdjacency(capacity=2)
    frame = [make_frame("a", 0, 0), make_frame("b", 1, 0), make_frame("c", 2, 0)]
    g = build_instant_graph(frame, mu=9.0)
    with pytest.raises(ValidationError):
        update_cumulative(state, g, {"a": 1.0, "b": 1.0, "c": 1.0})


def test_missing_velocity_is_contract_violation():
    state = CumulativeAdjacency(capacity=8)
    g = build_instant_graph([make_frame("a", 0, 0), make_frame("b", 1, 0)], mu=9.0)
    with pytest.raises(ContractViolationError):
        update_cumulative(state, g, {"a": 1.0})


def _random_frames(rng, n_frames=30, n_agents=6, box=12.0):
    frames = []
    for _ in range(n_frames):
        frame = [
            make_frame(
                f"a{i}",
                rng.uniform(0, box),
                rng.uniform(0, box),
                vx=rng.uniform(0, 10),
            )
            for i in range(n_agents)
        ]
        frames.append(frame)
    return frames


def test_support_monotone_between_resets():
    rng = np.random.default_rng(7)
    state = CumulativeAdjacency(capacity=64)
    support = set()
    for frame in _random_frames(rng):
        g = build_instant_graph(frame, mu=16.0)
        update_cumulative(state, g, {fr.agent_id: fr.speed for fr in frame})
        current = {(a, b) for a, partners in state.seen.items() for b in partners}
        assert support <= current
        assert set(g.edges) <= current
        support = current
    assert state.reset_count == 0


def test_counts_match_seen_sets_on_replay():
    # summed new-neighbor counts equal the slower-at-first-encounter subset
    # of each agent's seen-set, replayed with independent bookkeeping
    rng = np.random.default_rng(21)
    state = CumulativeAdjacency(capacity=64)
    total = {}
    first_encounter_slower = {}
    seen_shadow: dict[str, set[str]] = {}
    for frame in _random_frames(rng, n_frames=40):
        g = build_instant_graph(frame, mu=16.0)
        speeds = {fr.agent_id: fr.speed for fr in frame}
        for (a, b) in g.edges:
            for ego, other in ((a, b), (b, a)):
                shadow = seen_shadow.setdefault(ego, set())
                if other not in shadow and speeds[ego] > speeds[other]:
                    first_encounter_slower[ego] = first_encounter_slower.get(ego, 0) + 1
                shadow.add(other)
        counts = update_cumulative(state, g, speeds)
        for agent, c in counts.items():
            total[agent] = total.get(agent, 0) + c
    for agent, expected in first_encounter_slower.items():
        assert total.get(agent, 0) == expected
    assert state.seen == seen_shadow


def test_edge_costs_within_open_interval():
    rng = np.random.default_rng(3)
    for frame in _random_frames(rng, n_frames=10):
        g = build_instant_graph(frame, mu=16.0)
        for cost in g.edges.values():
            assert 0.0 < cost < 16.0


def test_replay_oracle_agrees_on_degree_totals(tmp_path):
    # cross-check against the raw-frame replay oracle via a table
    from conftest import make_table

    rng = np.random.default_rng(11)
    tracks = {
        f"a{i}": [
            (rng.uniform(0, 12), rng.uniform(0, 12), rng.uniform(0, 10), 0.0)
            for _ in range(25)
        ]
        for i in range(5)
    }
    table = make_table(tracks)
    series = by_agent(compute_series(table, mu=16.0))
    oracle = replay_degree(table, mu=16.0)
    for agent, (f0, _, deg) in series.items():
        assert list(enumerate(deg.tolist(), f0)) == oracle[agent]


@st.composite
def churn_tables(draw):
    """(table, capacity): agents arriving one after another, each still
    present when the next arrives, with more than twice ``capacity`` ids.

    Each reset admits at most ``capacity`` distinct ids, so a table holds
    at least two resets, and the agent present at a reset's arrival frame
    was present before it.
    """
    n = draw(st.integers(13, 20))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    extra = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = np.cumsum([0] + gaps[:-1])
    frames = {}
    for k in range(n):
        length = gaps[k] + 1 + extra[k]  # outlives the next arrival
        for idx in range(starts[k], starts[k] + length):
            frames.setdefault(int(idx), []).append(
                # a y per agent keeps positions distinct; speeds tie at times
                make_frame(f"v{k:02d}", rng.uniform(0.0, 8.0), 0.37 * k,
                           vx=float(rng.integers(0, 4)), t=float(idx))
            )
    concurrent = max(len(frame) for frame in frames.values())
    capacity = max(concurrent, draw(st.integers(2, 6)))
    return records_table(frames), capacity


@settings(max_examples=80, deadline=None)
@given(churn_tables())
def test_degree_series_match_replay_across_capacity_resets(case):
    table, capacity = case
    series = by_agent(compute_series(table, mu=16.0, capacity=capacity))
    oracle = replay_degree(table, mu=16.0, capacity=capacity)
    replayed = {
        a: list(enumerate(s.degree.tolist(), s.first)) for a, s in series.items()
    }
    assert replayed == oracle


def test_build_is_pure():
    frame = [make_frame("a", 0, 0), make_frame("b", 3, 1), make_frame("c", 8, 8)]
    g1 = build_instant_graph(frame, mu=26.0)
    g2 = build_instant_graph(frame, mu=26.0)
    assert g1.positions == g2.positions
    assert g1.edges == g2.edges


def _assert_sweep_matches_oracle(frame, mu):
    expected = all_pairs_edges(frame, mu)
    if 0.0 in expected.values():
        with pytest.raises(ValidationError, match="share a position"):
            build_instant_graph(frame, mu)
        return False
    assert build_instant_graph(frame, mu).edges == expected
    return True


def test_sweep_matches_all_pairs_oracle_on_random_frames():
    # x on a coarse grid: many agents share one x, and with an integer grid
    # and mu = 100 many pairs sit at dx*dx == mu exactly
    rng = np.random.default_rng(5)
    exact_boundary = 0
    for trial in range(60):
        n = int(rng.integers(1, 301))
        if trial % 3 == 0:
            xs = rng.integers(-40, 40, n).astype(float)
            ys = rng.integers(-6, 6, n).astype(float)
            mu = 100.0
        elif trial % 3 == 1:
            xs = rng.integers(-30, 30, n) * 2.5
            ys = rng.uniform(-8.0, 8.0, n)
            mu = float(rng.uniform(1.0, 120.0))
        else:
            xs = rng.uniform(-500.0, 500.0, n)
            ys = rng.uniform(-12.0, 0.0, n)
            mu = 100.0
        # distinct positions: coincident ones are covered below
        seen = set()
        frame = []
        for i in range(n):
            if (xs[i], ys[i]) in seen:
                continue
            seen.add((xs[i], ys[i]))
            frame.append(make_frame(f"v{i}", xs[i], ys[i]))
        exact_boundary += sum(
            1
            for a in frame
            for b in frame
            if (a.position[0] - b.position[0]) ** 2 == mu
        )
        assert _assert_sweep_matches_oracle(frame, mu)
    assert exact_boundary > 0


def test_sweep_dx_squared_equal_to_mu_is_not_an_edge():
    frame = [make_frame("a", -5.0, 0.0), make_frame("b", 5.0, 0.0),
             make_frame("c", 5.0, 0.5), make_frame("d", -5.0, -0.5)]
    g = build_instant_graph(frame, mu=100.0)
    assert g.edges == all_pairs_edges(frame, 100.0) == {("b", "c"): 0.25, ("a", "d"): 0.25}


def test_sweep_rejects_coincident_positions_anywhere_in_a_frame():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 200))
        frame = [
            make_frame(f"v{i}", rng.uniform(-50, 50), rng.uniform(-8, 8))
            for i in range(n)
        ]
        i, j = rng.choice(n, 2, replace=False)
        frame[j] = make_frame(frame[j].agent_id, *frame[i].position)
        assert not _assert_sweep_matches_oracle(frame, 100.0)


@pytest.fixture
def swept(monkeypatch):
    """``sweep_edges`` checked against the lexsort oracle, bit for bit.

    Returns its result and the dtype of the frame key ``np.lexsort`` sorted
    by, or None where the frames were sorted as rows of a grid.
    """
    keys = []

    def lexsort(sort_keys):
        keys.append(sort_keys[-1].dtype)
        return real(sort_keys)

    real = np.lexsort
    monkeypatch.setattr(graph.np, "lexsort", lexsort)

    def sweep(frames, x, y, mu):
        expected = lexsort_sweep_edges(frames, x, y, mu)
        keys.clear()
        got = sweep_edges(frames, x, y, mu)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        assert len(keys) <= 1
        return got, keys[0] if keys else None

    return sweep


def test_sweep_key_changes_no_edge(swept):
    rng = np.random.default_rng(31)
    for trial in range(40):
        # ascending frames with gaps, several vertices each, x on a coarse
        # grid so that vertices of one frame tie on x; a last frame wider
        # than all the others together, x 11 m apart, makes np.lexsort sort
        frame_count = int(rng.integers(2, 200))
        base = int(rng.choice([0, 10**6, 2**53 - 10**4]))
        steps = rng.integers(1, 50, frame_count)
        sizes = rng.integers(1, 12, frame_count)
        sizes[-1] = 2 * sizes[:-1].sum() + 1
        frames = np.repeat(base + np.cumsum(steps) - steps[0], sizes).astype(np.int64)
        x = rng.integers(-20, 20, len(frames)) * 2.5
        x[-sizes[-1]:] = np.arange(sizes[-1]) * 11.0
        y = rng.uniform(-8.0, 8.0, len(frames))
        _, key = swept(frames, x, y, float(rng.uniform(1.0, 120.0)))
        assert key == np.uint16


@pytest.mark.parametrize("runs, dtype", [(2**16, np.uint16), (2**16 + 1, np.int64)])
def test_sweep_key_at_the_uint16_bound(swept, runs, dtype):
    # one or two vertices per frame, eight in the first, so that np.lexsort
    # sorts: the most runs a uint16 key numbers, and one more, where the
    # sort takes the frames themselves
    rng = np.random.default_rng(runs)
    sizes = rng.integers(1, 3, runs)
    sizes[0] = 8
    frames = np.repeat(np.arange(runs, dtype=np.int64) * 3 + 2**52, sizes)
    x = rng.integers(0, 4, len(frames)) * 4.0
    y = rng.uniform(0.0, 1.0, len(frames))
    (_, p, _, _), key = swept(frames, x, y, 100.0)
    assert key == dtype and p.size


def test_sweep_key_names_the_same_shared_position(swept):
    rng = np.random.default_rng(8)
    codes = np.tile(np.arange(6), 10)
    ids = [f"v{k}" for k in range(6)]
    for _ in range(30):
        frames = np.repeat(np.arange(10, dtype=np.int64) + 2**53 - 20, 6)
        x = rng.integers(0, 3, len(frames)) * 5.0  # many x ties per frame
        y = rng.integers(0, 3, len(frames)) * 1.0  # and some shared positions
        got, _ = swept(frames, x, y, 100.0)
        error = graph_error(frames, codes, ids, x, y, *got)
        expected = graph_error(frames, codes, ids, x, y,
                               *lexsort_sweep_edges(frames, x, y, 100.0))
        assert error == expected and "share a position" in error[1]


# x values a grid row sorts as np.lexsort does: NaN last, -0.0 tied with 0.0
SPECIAL_X = [math.nan, math.inf, -math.inf, -0.0, 0.0]


@pytest.mark.parametrize("cells", [1, 16, graph._GRID_CELLS])
@pytest.mark.parametrize("wide", [False, True])
def test_frame_rows_sort_as_lexsort_does(swept, monkeypatch, cells, wide):
    # a grid of frames sorts each frame's row, in groups of at most ``cells``
    # cells (one frame a group at 1); one frame far wider than the rest
    # makes np.lexsort sort instead
    monkeypatch.setattr(graph, "_GRID_CELLS", cells)
    rng = np.random.default_rng(41)
    grids = 0
    for trial in range(30):
        frame_count = int(rng.integers(2, 300))
        sizes = rng.integers(1, 12, frame_count)
        wide_frame = np.zeros(frame_count, bool)
        wide_frame[rng.integers(frame_count)] = wide
        sizes[wide_frame] = 2 * sizes.sum() + 1
        frames = np.repeat(np.cumsum(rng.integers(1, 5, frame_count)), sizes)
        x = rng.integers(-8, 8, len(frames)) * 2.5  # ties within a frame
        special = rng.random(len(frames)) < 0.15
        x[special] = rng.choice(SPECIAL_X, np.count_nonzero(special))
        # the wide frame's x 11 m apart, bar its special values
        spread = np.repeat(wide_frame, sizes) & ~special
        x[spread] = np.arange(np.count_nonzero(spread)) * 11.0
        y = rng.uniform(-8.0, 8.0, len(frames))
        (_, p, _, _), key = swept(frames, x, y, float(rng.uniform(1.0, 120.0)))
        grid = frame_count * sizes.max() <= 2 * sizes.sum()
        assert key == (None if grid else np.uint16) and p.size
        grids += grid
    assert grids == 0 if wide else grids >= 10


@pytest.mark.parametrize("runs", [2**16, 2**16 + 1])
def test_frame_rows_sort_as_lexsort_does_past_the_uint16_bound(swept, runs):
    # one or two vertices per frame: a grid of two columns, compared within
    # a frame by the uint16 run key and, past 2**16 runs, by the frames
    rng = np.random.default_rng(runs)
    frames = np.repeat(np.arange(runs, dtype=np.int64) * 3 + 2**52,
                       rng.integers(1, 3, runs))
    x = rng.integers(0, 4, len(frames)) * 4.0
    x[rng.random(len(frames)) < 0.05] = math.nan
    y = rng.uniform(0.0, 1.0, len(frames))
    (_, p, _, _), key = swept(frames, x, y, 100.0)
    assert key is None and p.size


def test_duplicates_in_and_out_of_frame_order_are_named_by_one_rule():
    # graph_error reads a duplicate off the next row where the rows are in
    # (frame, code) order and sorts them otherwise; either way it names the
    # first row, in row order, that repeats an earlier row's id on its frame
    rng = np.random.default_rng(12)
    ids = [f"v{k}" for k in range(8)]
    orders = set()
    for _ in range(300):
        frames = np.sort(rng.integers(0, 5, int(rng.integers(2, 30))))
        codes = rng.integers(0, 8, len(frames))
        x, y = rng.uniform(0.0, 500.0, (2, len(frames)))
        x[rng.random(len(frames)) < 0.05] = math.nan
        # in (frame, code) order, or shuffled within each frame
        for rows in (np.lexsort((codes, frames)), np.lexsort((rng.random(len(frames)), frames))):
            f, c = frames[rows], codes[rows]
            by_id = np.lexsort((c, f))
            later = [int(r) for r, s in zip(by_id[1:], by_id[:-1])
                     if f[r] == f[s] and c[r] == c[s]]
            bad = np.flatnonzero(np.isnan(x[rows])).tolist()
            first = min(later + bad, default=None)
            expected = first if first is None else (int(f[first]), (
                f"duplicate agent_id {ids[c[first]]!r} in frame" if first in later
                else f"agent {ids[c[first]]!r} has a non-finite position"))
            assert graph_error(f, c, ids, x[rows], y[rows],
                               *sweep_edges(f, x[rows], y[rows], 1e-6)) == expected
            orders.add((graph.in_frame_order(f, c), expected is None))
    assert len(orders) == 4


def test_non_finite_position_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="non-finite"):
            build_instant_graph([make_frame("a", 0, 0), make_frame("b", bad, 0)], mu=9.0)
