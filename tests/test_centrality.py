import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_frame, make_table
from drivestyle import centrality
from drivestyle.centrality import CentralitySeries, closeness, compute_series, series_to_csv
from drivestyle.errors import ContractViolationError, ValidationError
from drivestyle.graph import DEFAULT_CAPACITY, DEFAULT_MU, build_instant_graph
from drivestyle.ingest import parse_trajectories
from drivestyle.scenarios import overspeed_scenario, weaving_scenario
from drivestyle.sim import run_scenario
from oracles import (
    all_pairs_edges,
    by_agent,
    dijkstra_closeness,
    records,
    records_table,
    relaxation_closeness,
    replay_degree,
)


def path_graph():
    # a - b - c with both squared-distance costs 1; a-c (cost 4) over threshold
    return build_instant_graph(
        [make_frame("a", 0, 0), make_frame("b", 1, 0), make_frame("c", 2, 0)], mu=2.0
    )


def test_closeness_path_graph():
    g = path_graph()
    assert closeness(g, "b") == pytest.approx(1.0)  # 2 / (1 + 1)
    assert closeness(g, "a") == pytest.approx(2.0 / 3.0)  # 2 / (1 + 2)


def test_closeness_isolated_vertex():
    g = build_instant_graph([make_frame("a", 0, 0), make_frame("b", 50, 0)], mu=2.0)
    assert closeness(g, "a") == 0.0


def test_closeness_complete_triangle():
    # equilateral with squared side 2: every vertex scores 2/4 = 0.5
    h = math.sqrt(6) / 2.0
    g = build_instant_graph(
        [
            make_frame("a", 0, 0),
            make_frame("b", math.sqrt(2), 0),
            make_frame("c", math.sqrt(2) / 2, h),
        ],
        mu=3.0,
    )
    for v in "abc":
        assert closeness(g, v) == pytest.approx(0.5)


def test_closeness_unknown_agent():
    with pytest.raises(KeyError):
        closeness(path_graph(), "zz")


def test_closeness_component_restriction():
    # two separate pairs: each vertex scores within its own component
    g = build_instant_graph(
        [
            make_frame("a", 0, 0),
            make_frame("b", 1, 0),
            make_frame("c", 100, 0),
            make_frame("d", 101, 0),
        ],
        mu=2.0,
    )
    assert closeness(g, "a") == pytest.approx(1.0)
    assert closeness(g, "c") == pytest.approx(1.0)


def test_closeness_matches_relaxation_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = rng.integers(2, 11)
        frame = [
            make_frame(f"v{i}", rng.uniform(0, 6), rng.uniform(0, 6))
            for i in range(n)
        ]
        g = build_instant_graph(frame, mu=float(rng.uniform(2.0, 20.0)))
        for v in g.positions:
            value = closeness(g, v)
            assert value == dijkstra_closeness(g, v) == relaxation_closeness(g, v)


def test_frame_closeness_closed_forms_match_dijkstra_and_relaxation():
    # clusters 100 m apart on a mu = 4 graph: singletons, pairs, paths,
    # triangles, stars and random blobs, so each vertex's component is
    # its cluster
    rng = np.random.default_rng(11)
    shapes = {
        "singleton": [(0.0, 0.0)],
        "pair": [(0.0, 0.0), (1.5, 0.5)],
        "path": [(0.0, 0.0), (1.5, 0.0), (3.0, 0.2)],
        "triangle": [(0.0, 0.0), (1.0, 0.0), (0.5, 0.8)],
        "star": [(0.0, 0.0), (1.5, 0.0), (-1.5, 0.0), (0.0, 1.5), (0.0, -1.5)],
    }
    sizes = {name: 0 for name in shapes}
    for _ in range(100):
        frame = []
        for c in range(int(rng.integers(1, 9))):
            name = rng.choice([*shapes, "blob"])
            if name == "blob":
                points = rng.uniform(0, 3, size=(int(rng.integers(1, 6)), 2)).tolist()
            else:
                points = shapes[name]
                sizes[name] += 1
            jitter = rng.uniform(-0.1, 0.1, size=2)
            frame += [
                make_frame(f"v{c}_{k}", 100.0 * c + x + jitter[0], y + jitter[1])
                for k, (x, y) in enumerate(points)
            ]
        g = build_instant_graph(frame, mu=4.0)
        series = by_agent(compute_series(records_table({0: frame}), mu=4.0))
        assert list(series) == list(g.positions)
        for v in g.positions:
            value = series[v].closeness[0]
            assert value == dijkstra_closeness(g, v) == relaxation_closeness(g, v)
    assert min(sizes.values()) > 50


def test_series_closeness_matches_relaxation_oracle_frame_by_frame():
    # a multi-frame table on a shared x grid, so frames hold ties, chains
    # and several components; the oracle graph comes from all-pairs edges
    rng = np.random.default_rng(8)
    tracks = {
        f"a{i:02d}": [
            (float(rng.integers(0, 12)) * 2.0, float(rng.uniform(0, 12)),
             float(rng.uniform(0, 8)), 0.0)
            for _ in range(25)
        ]
        for i in range(40)
    }
    table = make_table(tracks)
    mu = 16.0
    series = by_agent(compute_series(table, mu))
    linked = 0
    for idx, frame in records(table).items():
        edges = all_pairs_edges(frame, mu)
        oracle = SimpleNamespace(
            positions={fr.agent_id: fr.position for fr in frame}, edges=edges
        )
        linked += len(edges)
        for fr in frame:
            first, clo, _ = series[fr.agent_id]
            assert clo[idx - first] == relaxation_closeness(oracle, fr.agent_id)
    assert linked > 100


def test_star_center_is_most_central():
    frame = [
        make_frame("center", 0, 0),
        make_frame("n", 0, 2),
        make_frame("s", 0, -2),
        make_frame("e", 2, 0),
        make_frame("w", -2, 0),
    ]
    g = build_instant_graph(frame, mu=5.0)
    center = closeness(g, "center")
    for v in ("n", "s", "e", "w"):
        assert center > closeness(g, v)


def test_two_stationary_agents_constant_series():
    tracks = {
        "a": [(0.0, 0.0, 0.0, 0.0)] * 10,
        "b": [(3.0, 0.0, 0.0, 0.0)] * 10,
    }
    series = by_agent(compute_series(make_table(tracks), mu=16.0))
    _, clo_a, deg_a = series["a"]
    assert all(v == pytest.approx(1.0 / 9.0) for v in clo_a)
    assert all(v == 0.0 for v in deg_a)  # equal speeds: nobody is "new"


def test_lone_agent_series_all_zero():
    series = by_agent(compute_series(make_table({"a": [(0, 0, 5, 0)] * 6}), mu=16.0))
    _, clo, deg = series["a"]
    assert all(v == 0.0 for v in clo)
    assert all(v == 0.0 for v in deg)


def test_sweeping_agent_degree_increments_at_first_encounters():
    # fast agent at +5 m/frame passes five slower agents offset 3 m laterally
    n = 24
    tracks = {"fast": [(5.0 * k, 0.0, 5.0, 0.0) for k in range(n)]}
    for i in range(5):
        x = 16.0 + 20.0 * i
        tracks[f"s{i}"] = [(x, 3.0, 0.0, 0.0) for _ in range(n)]
    series = by_agent(compute_series(make_table(tracks), mu=25.0))
    values = series["fast"].degree.tolist()
    assert values[-1] == 5.0
    diffs = [b - a for a, b in zip(values, values[1:])]
    assert all(d >= 0 for d in diffs)
    assert sum(1 for d in diffs if d > 0) == 5


def test_degree_series_non_decreasing_random():
    rng = np.random.default_rng(5)
    tracks = {
        f"a{i}": [
            (rng.uniform(0, 15), rng.uniform(0, 15), rng.uniform(0, 8), 0.0)
            for _ in range(30)
        ]
        for i in range(6)
    }
    series = by_agent(compute_series(make_table(tracks), mu=20.0))
    for _, _, deg in series.values():
        values = deg.tolist()
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_approach_to_cluster_center_closeness_non_decreasing():
    # scripted straight-line approach toward the centroid of a square
    cluster = {
        "c1": (2.0, 2.0),
        "c2": (2.0, -2.0),
        "c3": (-2.0, 2.0),
        "c4": (-2.0, -2.0),
    }
    xs = [-10.0 + k for k in range(9)]  # stops at the nearest corner line
    tracks = {"probe": [(x, 0.0, 1.0, 0.0) for x in xs]}
    for cid, (cx, cy) in cluster.items():
        tracks[cid] = [(cx, cy, 0.0, 0.0)] * len(xs)
    series = by_agent(compute_series(make_table(tracks), mu=100.0))
    clo = series["probe"].closeness.tolist()
    assert all(b >= a - 1e-12 for a, b in zip(clo, clo[1:]))


def test_window_validation():
    # a series holds one sample per frame of its agent, from its first frame
    table = make_table({"a": [(0, 0, 0, 0)] * 5})
    first, clo, deg = by_agent(compute_series(table, mu=4.0))["a"]
    assert first == 0
    assert len(clo) == len(deg) == 5
    with pytest.raises(ValidationError, match="empty table"):
        compute_series(records_table({}), mu=4.0)
    frames = records(table)
    del frames[2]
    with pytest.raises(ContractViolationError, match="'a' has a gap in its frames"):
        compute_series(records_table(frames), mu=4.0)


def test_series_csv_text_matches_oracles():
    # "a" and "e" span frames 0-9; "b" (0-3) and "c" (6-9) never meet, and
    # c's arrival takes the admitted ids past capacity 3: the state resets
    # and a, faster than e, counts e a second time
    tracks = {
        "a": (0, 9, 0.0, 0.0, 2.0),
        "e": (0, 9, 1.0, 0.0, 1.0),
        "b": (0, 3, 0.0, 1.5, 0.0),
        "c": (6, 9, 4.0, 1.5, 0.0),
    }
    frames = {}
    for agent, (lo, hi, x, y, v) in tracks.items():
        for k in range(lo, hi + 1):
            frames.setdefault(k, []).append(
                make_frame(agent, x + 0.3 * v * k, y, vx=v, t=float(k))
            )
    table = records_table(frames)
    mu, capacity = 4.0, 3
    text = series_to_csv(compute_series(table, mu, capacity=capacity))

    clo = {}
    for idx, frame in records(table).items():
        graph = SimpleNamespace(
            positions={fr.agent_id: fr.position for fr in frame},
            edges=all_pairs_edges(frame, mu),
        )
        for fr in frame:
            clo.setdefault(fr.agent_id, []).append(
                (idx, relaxation_closeness(graph, fr.agent_id))
            )
    deg = replay_degree(table, mu, capacity=capacity)
    assert deg != replay_degree(table, mu)  # the reset changes a degree
    rows = ["frame,agent_id,closeness,degree"]
    for agent in sorted(clo):
        assert [t for t, _ in clo[agent]] == [t for t, _ in deg[agent]]
        rows += [f"{t},{agent},{c!r},{d!r}" for (t, c), (_, d) in zip(clo[agent], deg[agent])]
    assert text.splitlines() == rows


def _read_back_matches(table, mu):
    # every field read with float() is bit-equal to compute_series' arrays,
    # one row per table row, agents in id order and frames ascending; each
    # agent's columns are bit-equal to the per-frame oracles'
    series = compute_series(table, mu)
    assert series.agent_ids == sorted(table.agent_ids)
    header, *lines = series_to_csv(series).splitlines()
    assert header == "frame,agent_id,closeness,degree"
    assert len(lines) == len(table.frame)
    agents = by_agent(series)
    expected = [
        (agent, t, c.hex(), d.hex())
        for agent, (first, clo, deg) in agents.items()
        for t, (c, d) in enumerate(zip(clo.tolist(), deg.tolist()), first)
    ]
    got = [(a, int(t), float(c).hex(), float(d).hex())
           for t, a, c, d in (line.split(",") for line in lines)]
    assert got == expected

    relaxed = {}
    for frame in records(table).values():
        graph = SimpleNamespace(positions={fr.agent_id: fr.position for fr in frame},
                                edges=all_pairs_edges(frame, mu))
        for fr in frame:
            relaxed.setdefault(fr.agent_id, []).append(relaxation_closeness(graph, fr.agent_id))
    degree = replay_degree(table, mu, capacity=DEFAULT_CAPACITY)
    for agent, (first, clo, deg) in agents.items():
        assert first == degree[agent][0][0]
        assert clo.tobytes() == np.array(relaxed[agent]).tobytes()
        assert deg.tobytes() == np.array([v for _, v in degree[agent]]).tobytes()
    return agents


def test_series_csv_reads_back_bit_equal():
    # simulated tables keep spawn order ("subject, qa0, qb0, ..." and
    # "passer, p0, ..."), which is not id order
    for scenario in (weaving_scenario(0), overspeed_scenario(0)):
        table = run_scenario(scenario).table
        assert table.agent_ids != sorted(table.agent_ids)
        simulated = _read_back_matches(table, DEFAULT_MU)
        assert any(s.degree.any() for s in simulated.values())

    # a parsed table whose agents come and go: "a" 0-5, "c" 2-9, "b" 4-7
    # and "d" only at 8-9, at different speeds and a varying y
    spans = {"a": (0, 5), "c": (2, 9), "b": (4, 7), "d": (8, 9)}
    lines = ["timestamp,agent_id,agent_type,x,y"] + [
        f"{k / 10!r},{agent},car,{(1 + 0.2 * n) * k + 0.5 * n!r},{0.1 * ((k * 7 + n) % 5)!r}"
        for k in range(10)
        for n, (agent, (lo, hi)) in enumerate(spans.items()) if lo <= k <= hi
    ]
    table = parse_trajectories(text="\n".join(lines) + "\n", frame_rate_hz=10.0)
    series = _read_back_matches(table, 4.0)
    assert {a: (s.first, len(s.degree)) for a, s in series.items()} == {
        agent: (lo, hi - lo + 1) for agent, (lo, hi) in spans.items()
    }
    assert any(s.closeness.any() for s in series.values())
    assert any(s.degree.any() for s in series.values())

    # one agent, one row
    lone = parse_trajectories(text="timestamp,agent_id,agent_type,x,y\n0.5,z,car,1.0,2.0\n",
                              frame_rate_hz=10.0)
    assert _read_back_matches(lone, 4.0)["z"].first == 5
    # two agents 1,000 frames apart: the frames span more than the rows, and
    # each row's frame number is formatted on its own
    far = parse_trajectories(
        text="timestamp,agent_id,agent_type,x,y\n0.0,a,car,0.0,0.0\n0.1,a,car,1.0,0.0\n"
             "100.0,b,car,0.0,0.0\n100.1,b,car,1.0,0.0\n",
        frame_rate_hz=10.0,
    )
    assert [s.first for s in _read_back_matches(far, 4.0).values()] == [0, 1000]
    empty = CentralitySeries([], np.empty(0, np.int64), np.zeros(1, np.int64),
                             np.empty(0), np.empty(0))
    assert series_to_csv(empty) == "frame,agent_id,closeness,degree\n"


# frame shapes of the whole-run property test, on a unit lattice so that
# costs tie exactly: "spread" frames have no edge, "chain" frames put the
# agents on one line, "corner" frames a right angle whose direct cost
# (2) is the two-hop sum (1 + 1), "blob" frames random lattice points
SHAPES = ("spread", "chain", "corner", "blob")


@st.composite
def churning_runs(draw):
    """(table, mu, capacity): agents arriving and leaving over a few frames.

    A capacity between the largest frame and the id count resets the
    cumulative state several times in most tables.
    """
    n_frames = draw(st.integers(1, 12))
    n_agents = draw(st.integers(1, 10))
    spans = [
        (lo, draw(st.integers(lo, n_frames - 1)))
        for lo in (draw(st.integers(0, n_frames - 1)) for _ in range(n_agents))
    ]
    shapes = draw(st.lists(st.sampled_from(SHAPES), min_size=n_frames,
                           max_size=n_frames))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = {}
    for idx, shape in enumerate(shapes):
        present = [a for a, (lo, hi) in enumerate(spans) if lo <= idx <= hi]
        if not present:
            continue
        rng.shuffle(present)
        if shape == "spread":
            points = [(20.0 * k, 0.0) for k in range(len(present))]
        elif shape == "chain":
            points = [(float(k), 0.0) for k in range(len(present))]
        elif shape == "corner":
            points = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)][: len(present)]
            points += [(20.0 * k, 9.0) for k in range(len(present) - len(points))]
        else:
            cells = rng.choice(12, size=len(present), replace=False)
            points = [(float(c % 4), float(c // 4)) for c in cells]
        frames[idx] = [
            make_frame(f"v{a}", x, y, vx=float(rng.integers(0, 3)), t=float(idx))
            for a, (x, y) in sorted(zip(present, points))
        ]
    if not frames:
        frames[0] = [make_frame("v0", 0.0, 0.0)]
    largest = max(len(frame) for frame in frames.values())
    capacity = max(largest, draw(st.integers(1, 6)))
    mu = draw(st.sampled_from([1.5, 2.5, 4.5]))
    return records_table(frames), mu, capacity


@settings(max_examples=300, deadline=None)
@given(churning_runs())
def test_whole_run_series_equal_frame_by_frame_oracles(case):
    # closeness against the heap Dijkstra oracle on per-frame
    # build_instant_graph and the relaxation oracle on all-pairs edges;
    # degree against the replay oracle; every array byte for byte
    table, mu, capacity = case
    series = by_agent(compute_series(table, mu, capacity=capacity))
    dijkstra, relaxed = {}, {}
    for idx, frame in sorted(records(table).items()):
        graph = build_instant_graph(frame, mu)
        oracle = SimpleNamespace(
            positions={fr.agent_id: fr.position for fr in frame},
            edges=all_pairs_edges(frame, mu),
        )
        for fr in frame:
            dijkstra.setdefault(fr.agent_id, []).append(
                dijkstra_closeness(graph, fr.agent_id)
            )
            relaxed.setdefault(fr.agent_id, []).append(
                relaxation_closeness(oracle, fr.agent_id)
            )
    degree = replay_degree(table, mu, capacity=capacity)
    assert list(series) == sorted(dijkstra)  # agents in id order
    for agent, (first, clo, deg) in series.items():
        assert first == degree[agent][0][0]
        assert clo.tobytes() == np.array(dijkstra[agent]).tobytes()
        assert clo.tobytes() == np.array(relaxed[agent]).tobytes()
        assert deg.tobytes() == np.array([v for _, v in degree[agent]]).tobytes()


# the vertices one batched closeness run may hold in all its frames: the
# relaxation oracle takes about 2 s on a chain of 256
VERTEX_BUDGET = 320


@st.composite
def lattice_components(draw):
    """(table, mu, block): frames of far-apart clusters on a unit lattice.

    A "chain" cluster puts its vertices on one line (hop diameter C - 1);
    a "grid" cluster takes random cells of a square, so that with mu 2.5
    a diagonal (cost 2) ties its two-hop sum (1 + 1). Integer costs add
    exactly in any order, so a cluster may be jittered off the lattice
    (along its line, for a chain), which makes the order of a sum show.
    A cluster size may repeat, so several components of one size share a
    batch. Ids are numbered in random order ("a10" sorts before "a9"),
    and the frame's records are shuffled. ``block`` is the lockstep block
    size to run.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    budget = VERTEX_BUDGET
    clusters = []  # (frame, shape, size, jitter)
    for idx in range(draw(st.integers(1, 2))):
        while budget >= 3 and (not clusters or draw(st.booleans())):
            size = draw(st.one_of(st.integers(3, 12), st.integers(3, 256)))
            size = min(size, budget)
            shape = draw(st.sampled_from(["chain", "grid"]))
            jitter = draw(st.sampled_from([0.0, 0.2]))
            for _ in range(min(draw(st.integers(1, 3)), budget // size)):
                clusters.append((idx, shape, size, jitter))
                budget -= size
    frames = {}
    ids = iter(rng.permutation(VERTEX_BUDGET).tolist())
    for c, (idx, shape, size, jitter) in enumerate(clusters):
        if shape == "chain":
            points = np.c_[np.arange(size), np.zeros(size)]
        else:
            side = math.ceil(math.sqrt(1.25 * size))
            cells = rng.choice(side * side, size=size, replace=False)
            points = np.c_[cells % side, cells // side]
        points = points + rng.uniform(-jitter, jitter, points.shape)
        if shape == "chain":
            points[:, 1] = 0.0
        frames.setdefault(idx, []).extend(
            make_frame(f"a{next(ids)}", 1000.0 * c + x, y, t=float(idx))
            for x, y in points.tolist()
        )
    for frame in frames.values():
        rng.shuffle(frame)
    mu = draw(st.sampled_from([1.5, 2.5]))
    block = draw(st.sampled_from([9, 50, centrality._BLOCK]))
    return records_table(frames), mu, block


@settings(max_examples=40, deadline=None)
@given(lattice_components())
def test_batched_closeness_equals_dijkstra_and_relaxation(case):
    # every vertex, by ==; a small block splits a size's batch over
    # several blocks (9 floats: one component per block)
    table, mu, block = case
    frames = records(table)
    if not frames:
        return
    capacity = max(len(frame) for frame in frames.values())
    with mock.patch.object(centrality, "_BLOCK", block):
        series = by_agent(compute_series(table, mu, capacity=capacity))
    for idx, frame in frames.items():
        graph = SimpleNamespace(
            positions={fr.agent_id: fr.position for fr in frame},
            edges=all_pairs_edges(frame, mu),
        )
        for fr in frame:
            first, clo, _ = series[fr.agent_id]
            assert clo[idx - first] == dijkstra_closeness(graph, fr.agent_id)
            assert clo[idx - first] == relaxation_closeness(graph, fr.agent_id)


def _frames(rows):
    """A table from (frame, agent, x, y) rows, records in the order given."""
    frames = {}
    for idx, agent, x, y in rows:
        frames.setdefault(idx, []).append(make_frame(agent, x, y, t=float(idx)))
    return records_table(frames)


def test_errors_name_the_first_offending_frame_and_agent():
    # each table breaks one rule twice or more; the error names the
    # first break in frame order, and within a frame the first agent
    # (gaps), the first pair in x order (shared positions)
    steady = [(k, "a", 0.0, 9.0) for k in range(6)]
    gaps = steady + [(k, "c", 5.0, 0.0) for k in (0, 1, 2, 4, 5)] + [
        (k, "b", 2.0, 0.0) for k in (0, 2, 3)
    ]
    with pytest.raises(ContractViolationError) as err:
        compute_series(_frames(gaps), mu=4.0)
    assert str(err.value) == "agent 'b' has a gap in its frames before frame 2"

    crowd = steady + [(k, f"x{k}{j}", 20.0 * j, 0.0) for k in (2, 4) for j in range(k)]
    with pytest.raises(ValidationError) as err:
        compute_series(_frames(crowd), mu=4.0, capacity=2)
    assert str(err.value) == "frame holds 3 agents, more than capacity 2"

    first_pair = [(1, "d", 3.0, 0.0), (1, "e", 3.0, 0.0)]
    later_pairs = [(3, "g", 3.0, 0.0), (3, "f", 1.0, 0.0), (3, "h", 1.0, 0.0),
                   (3, "i", 3.0, 0.0)]
    with pytest.raises(ValidationError) as err:
        compute_series(_frames(later_pairs + first_pair + steady), mu=4.0)
    assert str(err.value) == (
        "agents 'd' and 'e' share a position; edge costs must be strictly positive"
    )
    with pytest.raises(ValidationError) as err:
        compute_series(_frames(steady + later_pairs), mu=4.0)
    assert str(err.value) == (
        "agents 'f' and 'h' share a position; edge costs must be strictly positive"
    )

    # different rules: the earliest frame's break wins; within one frame a
    # graph check comes before the capacity check, which comes before gaps
    pair = [(3, "d", 3.0, 0.0), (3, "e", 3.0, 0.0)]
    mixed = steady + pair + [(0, "b", 2.0, 0.0), (2, "b", 2.0, 0.0), (2, "c", 5.0, 0.0)]
    with pytest.raises(ContractViolationError, match="'b' has a gap"):
        compute_series(_frames(mixed), mu=4.0)
    with pytest.raises(ValidationError, match="frame holds 3 agents"):
        compute_series(_frames(mixed), mu=4.0, capacity=2)
    with pytest.raises(ValidationError, match="'d' and 'e' share a position"):
        compute_series(_frames(steady + pair), mu=4.0, capacity=2)
