import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_frame, make_table
from drivestyle.centrality import closeness, compute_series, degree_step, frame_closeness
from drivestyle.errors import ValidationError
from drivestyle.graph import build_instant_graph
from drivestyle.ingest import TrajectoryTable
from oracles import all_pairs_edges, relaxation_closeness


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


def test_degree_step_cases():
    assert degree_step(0.0, 3) == 3.0
    assert degree_step(3.0, 0) == 3.0  # constant for a conservative vehicle
    with pytest.raises(ValidationError):
        degree_step(-1.0, 0)
    with pytest.raises(ValidationError):
        degree_step(0.0, -2)


def test_closeness_matches_relaxation_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = rng.integers(2, 11)
        frame = [
            make_frame(f"v{i}", rng.uniform(0, 6), rng.uniform(0, 6))
            for i in range(n)
        ]
        g = build_instant_graph(frame, mu=float(rng.uniform(2.0, 20.0)))
        for v in g.vertex_ids():
            assert closeness(g, v) == relaxation_closeness(g, v)


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
        values = frame_closeness(g)
        assert list(values) == g.vertex_ids()
        for v in g.vertex_ids():
            assert values[v] == closeness(g, v) == relaxation_closeness(g, v)
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
    series = compute_series(table, mu)
    linked = 0
    for idx, frame in table.frames.items():
        edges = all_pairs_edges(frame, mu)
        oracle = SimpleNamespace(
            positions={fr.agent_id: fr.position for fr in frame}, edges=edges
        )
        linked += len(edges)
        for fr in frame:
            clo = dict(series[fr.agent_id][0].values)[idx]
            assert clo == relaxation_closeness(oracle, fr.agent_id)
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
    series = compute_series(make_table(tracks), mu=16.0)
    clo_a, deg_a = series["a"]
    assert all(v == pytest.approx(1.0 / 9.0) for _, v in clo_a.values)
    assert all(v == 0.0 for _, v in deg_a.values)  # equal speeds: nobody is "new"


def test_lone_agent_series_all_zero():
    series = compute_series(make_table({"a": [(0, 0, 5, 0)] * 6}), mu=16.0)
    clo, deg = series["a"]
    assert all(v == 0.0 for _, v in clo.values)
    assert all(v == 0.0 for _, v in deg.values)


def test_sweeping_agent_degree_increments_at_first_encounters():
    # fast agent at +5 m/frame passes five slower agents offset 3 m laterally
    n = 24
    tracks = {"fast": [(5.0 * k, 0.0, 5.0, 0.0) for k in range(n)]}
    for i in range(5):
        x = 16.0 + 20.0 * i
        tracks[f"s{i}"] = [(x, 3.0, 0.0, 0.0) for _ in range(n)]
    series = compute_series(make_table(tracks), mu=25.0)
    _, deg = series["fast"]
    values = [v for _, v in deg.values]
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
    series = compute_series(make_table(tracks), mu=20.0)
    for _, deg in series.values():
        values = [v for _, v in deg.values]
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
    series = compute_series(make_table(tracks), mu=100.0)
    clo = [v for _, v in series["probe"][0].values]
    assert all(b >= a - 1e-12 for a, b in zip(clo, clo[1:]))


def test_window_validation():
    # the series window is always the table's whole span
    table = make_table({"a": [(0, 0, 0, 0)] * 5})
    clo, deg = compute_series(table, mu=4.0)["a"]
    assert clo.window == deg.window == (0, 4)
    assert clo.frames() == deg.frames() == [0, 1, 2, 3, 4]
    with pytest.raises(ValidationError, match="empty table"):
        compute_series(TrajectoryTable(), mu=4.0)
