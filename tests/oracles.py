"""Independent brute-force oracles the implementation is checked against.

These deliberately avoid the package's algorithmic code paths: shortest
paths one source at a time, by a binary-heap Dijkstra or by relaxation
to a fixpoint, instead of all sources in lockstep, degree counting by
replaying raw frames with plain dict/set bookkeeping, traffic-graph edges
by testing every pair or by sweeping vertices sorted on their int64
frames, lane leaders by scanning every agent, each time grid's design by
two-dimensional numpy calls and its alpha by walking the grid in Python
floats, windowed fits one window at a time by
numpy's public ``np.linalg.lstsq``, SLE/SIE maxima by sampling every frame, weaving points, their merge and the
per-agent aggregates in Python floats, the calibration pools by walking
each window's sharpness one value at a time, the window fits as
``WindowAnalysis`` records written one ``repr`` per value, trajectory
tables by reading a file one row at a time into ``AgentFrame`` records (``records`` gives any
table's rows back as records), and the expected maneuver frame by
counting the annotators of every frame. The simulator is replayed on one mutable object per vehicle
with a sorted (lane, x, position) index, a scalar car-following law in
Python floats and a lane-change rule that evaluates every term before
judging safety (beside it, the rule that judges safety first), and the
CSV writers format one row at a time.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from drivestyle.calibrate import _POSITIVE_FLOOR, PERCENTILE
from drivestyle.centrality import compute_series
from drivestyle.errors import ConditioningError, TrajectoryParseError, ValidationError
from drivestyle.ingest import _FLOOR_GUARD, _GUARD_CAP, AGENT_TYPES, TrajectoryTable
from drivestyle.pipeline import AnalysisParams, RunReport, analyze_table, frame_windows
from drivestyle.regression import (
    _SINGULAR_KAPPA,
    ALPHA_GRID,
    POLY_DEGREE,
    CentralityPolynomial,
    GridSearchAlpha,
    derivative,
    fit_designs,
)
from drivestyle.sim import (
    CLASS_CONSERVATIVE,
    CLASS_PARAMS,
    MODE_CRUISE,
    MODE_IDM,
    VEHICLE_LENGTH_M,
    CollisionEvent,
    DriverParams,
    idm_law,
    run_scenario,
)
from drivestyle.styles import (
    LABEL_AGGRESSIVE,
    LABEL_CONSERVATIVE,
    STYLE_CONSERVATIVE,
    STYLE_OVERSPEEDING,
    STYLE_OVERTAKE_LANE_CHANGE,
    STYLE_WEAVING,
    SleSummary,
    StyleReport,
    StyleSummary,
    Thresholds,
    WeavingSummary,
)


# --- a table's rows as records ----------------------------------------------


def frame_index(timestamp, frame_rate_hz):
    """Discrete frame index of a timestamp: floor(timestamp * rate), guarded.

    A product within 1e-9 or 4 ulps (whichever is larger, at most 1e-3)
    below the next integer is read as that integer.
    """
    product = timestamp * frame_rate_hz
    frame = math.floor(product)
    guard = min(max(_FLOOR_GUARD, 4 * math.ulp(product)), _GUARD_CAP)
    return frame + (frame + 1 - product <= guard)


class AgentFrame(NamedTuple):
    """One agent's state at one sample: a row of a table as a record."""

    timestamp: float
    agent_id: str
    agent_type: str
    position: tuple[float, float]
    velocity: tuple[float, float]

    @property
    def speed(self):
        return math.hypot(self.velocity[0], self.velocity[1])


def records(table):
    """``{frame index: (AgentFrame, ...)}`` of a table's rows, one row at a time."""
    frames = {}
    rows = zip(
        table.frame.tolist(),
        table.timestamp.tolist(),
        [table.agent_ids[code] for code in table.agent.tolist()],
        table.agent_type.tolist(),
        zip(table.x.tolist(), table.y.tolist()),
        zip(table.vx.tolist(), table.vy.tolist()),
    )
    for index, *row in rows:
        frames.setdefault(index, []).append(AgentFrame(*row))
    return {index: tuple(group) for index, group in frames.items()}


def records_table(frames, frame_rate_hz=1.0):
    """The TrajectoryTable of ``{frame index: [AgentFrame, ...]}``.

    Rows go in index order, then in each list's order; agent codes number
    the ids in order of first appearance. The one way tests and oracles
    build a table from records; ``records`` gives them back.
    """
    rows = [(idx, fr) for idx in sorted(frames) for fr in frames[idx]]
    ids = list(dict.fromkeys(fr.agent_id for _, fr in rows))
    code = {agent_id: k for k, agent_id in enumerate(ids)}

    def column(values, dtype=float):
        return np.array(list(values), dtype=dtype)

    return TrajectoryTable(
        frame=column((idx for idx, _ in rows), np.int64),
        timestamp=column(fr.timestamp for _, fr in rows),
        x=column(fr.position[0] for _, fr in rows),
        y=column(fr.position[1] for _, fr in rows),
        vx=column(fr.velocity[0] for _, fr in rows),
        vy=column(fr.velocity[1] for _, fr in rows),
        agent=column((code[fr.agent_id] for _, fr in rows), np.intp),
        agent_ids=ids,
        agent_type=column((fr.agent_type for _, fr in rows), object),
        frame_rate_hz=frame_rate_hz,
    )


def row_loop_parse(text, frame_rate_hz):
    """``parse_trajectories(text=text)`` one row at a time, with its errors.

    Rows are checked in file order and grouped per agent; each agent's
    timestamps and frame run are then checked, its velocities passed
    through or derived by forward differences, and its records placed in
    their frames, which are finally sorted by index and by id.
    """
    header = None
    rows_by_agent = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if header is None:
            header = parts
            for name in ("timestamp", "agent_id", "agent_type", "x", "y"):
                if name not in header:
                    raise TrajectoryParseError(
                        f"missing required column {name!r} in header", line_no
                    )
            columns = {name: header.index(name) for name in header}
            has_velocity = "vx" in columns and "vy" in columns
            if ("vx" in columns) != ("vy" in columns):
                raise TrajectoryParseError(
                    "velocity columns must appear as a vx,vy pair", line_no
                )
            continue
        if len(parts) != len(header):
            raise TrajectoryParseError(
                f"expected {len(header)} fields, got {len(parts)}", line_no
            )
        try:
            ts = float(parts[columns["timestamp"]])
            x = float(parts[columns["x"]])
            y = float(parts[columns["y"]])
            vel = None
            if has_velocity:
                vel = (float(parts[columns["vx"]]), float(parts[columns["vy"]]))
        except ValueError as exc:
            raise TrajectoryParseError(f"non-numeric field: {exc}", line_no) from None
        agent_id = parts[columns["agent_id"]]
        agent_type = parts[columns["agent_type"]]
        if not agent_id:
            raise TrajectoryParseError("empty agent_id", line_no)
        if agent_type not in AGENT_TYPES:
            raise TrajectoryParseError(
                f"unknown agent_type {agent_type!r} (expected one of {sorted(AGENT_TYPES)})",
                line_no,
            )
        if not math.isfinite(ts):
            raise TrajectoryParseError(f"non-finite timestamp {ts}", line_no)
        if ts < 0:
            raise TrajectoryParseError(f"negative timestamp {ts}", line_no)
        # no guard lifts a product below 2**53 to it: floats there are whole
        if ts * frame_rate_hz >= 2.0**53:
            raise TrajectoryParseError(
                f"timestamp {ts} at {frame_rate_hz} Hz is past frame index 2**53",
                line_no,
            )
        if not (math.isfinite(x) and math.isfinite(y)):
            raise TrajectoryParseError("non-finite position", line_no)
        if vel is not None and not (math.isfinite(vel[0]) and math.isfinite(vel[1])):
            raise TrajectoryParseError("non-finite velocity", line_no)
        rows_by_agent.setdefault(agent_id, []).append((line_no, ts, agent_type, x, y, vel))

    if header is None:
        raise ValidationError("empty trajectory stream (no header)")
    if not rows_by_agent:
        raise ValidationError("empty trajectory stream (no data rows)")

    frames = {}
    for agent_id, rows in rows_by_agent.items():
        prev_ts = None
        indices = []
        for line_no, ts, *_ in rows:
            if prev_ts is not None and ts <= prev_ts:
                raise ValidationError(
                    f"agent {agent_id!r}: timestamps must strictly increase "
                    f"({ts} after {prev_ts}, line {line_no})"
                )
            prev_ts = ts
            indices.append(frame_index(ts, frame_rate_hz))
        for a, b, row_a, row_b in zip(indices, indices[1:], rows, rows[1:]):
            if b == a:
                raise ValidationError(
                    f"agent {agent_id!r}: timestamps {row_a[1]} and {row_b[1]} both "
                    f"fall on frame {a} at {frame_rate_hz} Hz (line {row_b[0]}); "
                    "one row per frame"
                )
            if b != a + 1:
                raise ValidationError(
                    f"agent {agent_id!r}: frame indices must form a contiguous run "
                    f"(got {a} then {b}); departed agents may not reappear"
                )
        if has_velocity:
            velocities = [row[5] for row in rows]
        elif len(rows) == 1:
            velocities = [(0.0, 0.0)]
        else:
            velocities = []
            for (_, t0, _, x0, y0, _), (_, t1, _, x1, y1, _) in zip(rows, rows[1:]):
                dt = t1 - t0
                velocities.append(((x1 - x0) / dt, (y1 - y0) / dt))
            velocities.append(velocities[-1])  # backward difference at the end
        for (_, ts, agent_type, x, y, _), idx, vel in zip(rows, indices, velocities):
            frames.setdefault(idx, []).append(
                AgentFrame(ts, agent_id, agent_type, (x, y), vel)
            )
    frames = {idx: sorted(frames[idx], key=lambda fr: fr.agent_id) for idx in frames}
    return records_table(frames, frame_rate_hz)


def count_expected_frame(intervals):
    """Annotator counts c_t of each frame t in [min S, max E], and E[T].

    c_t is the number of intervals [s, e] with s <= t <= e; E[T] is the
    mean of t weighted by c_t, one division of exact integer sums.
    """
    s_star = min(s for s, _ in intervals)
    e_star = max(e for _, e in intervals)
    counts = {
        t: sum(1 for s, e in intervals if s <= t <= e)
        for t in range(s_star, e_star + 1)
    }
    return counts, sum(t * c for t, c in counts.items()) / sum(counts.values())


def all_pairs_edges(frame, mu):
    """Every pair with squared distance < mu, keyed (id, id) in string order.

    Coincident agents come out with a zero cost, which the graph builder
    must reject.
    """
    edges = {}
    for i in range(len(frame)):
        for j in range(i + 1, len(frame)):
            a, b = frame[i], frame[j]
            dx = a.position[0] - b.position[0]
            dy = a.position[1] - b.position[1]
            cost = dx * dx + dy * dy
            if cost < mu:
                key = tuple(sorted((a.agent_id, b.agent_id)))
                edges[key] = cost
    return edges


@np.errstate(over="ignore", invalid="ignore")
def lexsort_sweep_edges(frames, x, y, mu):
    """``graph.sweep_edges`` with the int64 frames as its sort key.

    The vertices are sorted by ``np.lexsort((x, frames))``, then swept as
    ``sweep_edges`` sweeps them; frames need not ascend.
    """
    order = np.lexsort((x, frames))
    fs, xs, ys = frames[order], x[order], y[order]
    ps, qs, costs = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
    for k in range(1, len(order)):
        dx2 = xs[:-k] - xs[k:]
        dx2 *= dx2
        near = np.flatnonzero((fs[:-k] == fs[k:]) & (dx2 < mu))
        if not near.size:
            break
        dy = ys[near] - ys[near + k]
        cost = dx2[near] + dy * dy
        edge = near[cost < mu]
        ps.append(edge)
        qs.append(edge + k)
        costs.append(cost[cost < mu])
    return order, np.concatenate(ps), np.concatenate(qs), np.concatenate(costs)


def scan_neighbors_in_lane(lane, x, at, target, ego=None):
    """(leader, follower) positions around ``at`` in lane ``target``, by a scan.

    ``lane`` and ``x`` are the agents' columns. Leader: nearest agent
    strictly ahead of ``at``. Follower: nearest agent at or behind it,
    ``ego`` excluded. Ties go to the earlier agent in the list.
    """
    leader = follower = None
    for pos, (other_lane, other_x) in enumerate(zip(lane, x)):
        if pos == ego or other_lane != target:
            continue
        if other_x > at and (leader is None or other_x < x[leader]):
            leader = pos
        elif other_x <= at and (follower is None or other_x > x[follower]):
            follower = pos
    return leader, follower


def _closeness_from(dist, agent_id):
    """(|C|-1) / the costs to the rest of the component, added in id order."""
    if len(dist) == 1:
        return 0.0
    total = 0
    for v in sorted(dist):
        if v != agent_id:
            total += dist[v]
    return (len(dist) - 1) / total


def dijkstra_shortest_costs(graph, source):
    """Binary-heap Dijkstra from ``source`` over adjacency lists of the edges."""
    if source not in graph.positions:
        raise KeyError(source)
    adj = {v: [] for v in graph.positions}
    for (a, b), w in graph.edges.items():
        adj[a].append((b, w))
        adj[b].append((a, w))
    dist = {source: 0.0}
    done = set()
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u]:
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def dijkstra_closeness(graph, agent_id):
    return _closeness_from(dijkstra_shortest_costs(graph, agent_id), agent_id)


def relaxation_shortest_costs(graph, source):
    """Bellman-Ford-style sweeps until no edge can be relaxed."""
    dist = {v: math.inf for v in graph.positions}
    dist[source] = 0.0
    changed = True
    while changed:
        changed = False
        for (a, b), w in graph.edges.items():
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
            if dist[b] + w < dist[a]:
                dist[a] = dist[b] + w
                changed = True
    return {v: d for v, d in dist.items() if d < math.inf}


def relaxation_closeness(graph, agent_id):
    return _closeness_from(relaxation_shortest_costs(graph, agent_id), agent_id)


class AgentSlice(NamedTuple):
    """One agent's rows of a ``CentralitySeries``, at frames ``first, first + 1, ...``."""

    first: int
    closeness: np.ndarray
    degree: np.ndarray


def by_agent(series):
    """``series`` indexed by agent id: each agent's ``AgentSlice``, in the series' order."""
    return {
        agent_id: AgentSlice(first, series.closeness[lo:hi], series.degree[lo:hi])
        for agent_id, first, lo, hi in zip(
            series.agent_ids, series.first.tolist(),
            series.bounds[:-1].tolist(), series.bounds[1:].tolist(),
        )
    }


def replay_degree(table, mu, capacity=None):
    """Re-derive per-agent cumulative degree series from raw frames.

    Counts first encounters with strictly slower agents, using nothing
    but pairwise squared distances and per-agent seen-sets. With a
    ``capacity``, the paper's reset rule applies: when the ids seen since
    the last reset together with the frame's ids number more than
    ``capacity``, every seen-set is forgotten before the frame is counted.
    Degree totals carry on across a reset. Without one, nothing resets.
    """
    seen = defaultdict(set)
    remembered = set()
    totals = defaultdict(float)
    series = defaultdict(list)
    frames = records(table)
    for idx in sorted(frames):
        frame = frames[idx]
        ids = {fr.agent_id for fr in frame}
        if capacity is not None and len(remembered | ids) > capacity:
            seen.clear()
            remembered = set()
        remembered |= ids
        counts = {fr.agent_id: 0 for fr in frame}
        for i in range(len(frame)):
            for j in range(i + 1, len(frame)):
                a, b = frame[i], frame[j]
                dx = a.position[0] - b.position[0]
                dy = a.position[1] - b.position[1]
                if dx * dx + dy * dy >= mu:
                    continue
                if b.agent_id not in seen[a.agent_id]:
                    if a.speed > b.speed:
                        counts[a.agent_id] += 1
                    seen[a.agent_id].add(b.agent_id)
                if a.agent_id not in seen[b.agent_id]:
                    if b.speed > a.speed:
                        counts[b.agent_id] += 1
                    seen[b.agent_id].add(a.agent_id)
        for fr in frame:
            totals[fr.agent_id] += counts[fr.agent_id]
            series[fr.agent_id].append((idx, totals[fr.agent_id]))
    return dict(series)


def central_difference(fn, t, h=1e-5):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def sample_sle_sie(poly, frames, frame_rate_hz):
    """(times, SLE, SIE) of one polynomial at every frame of a frame range.

    The samples are t = k / rate for every integer k in the closed range
    ``frames`` = (k0, k1); SLE and SIE are the absolute first and second
    derivatives there.
    """
    k0, k1 = frames
    times = np.arange(k0, k1 + 1) / frame_rate_hz
    sle = np.abs(derivative(poly, 1).evaluate(times))
    sie = np.abs(derivative(poly, 2).evaluate(times))
    return times, sle, sie


def sampled_sle(poly, frames, frame_rate_hz) -> SleSummary:
    """The SLE/SIE maxima over every sample; the earliest SLE tie wins."""
    times, sle, sie = sample_sle_sie(poly, frames, frame_rate_hz)
    k = int(np.argmax(sle))
    return SleSummary(
        sle_max=float(sle[k]), t_sle=float(times[k]), sie_max=float(sie.max())
    )


def scalar_condition(eig, alpha):
    """The condition number of MᵀM + alpha^2 I from its eigenvalues, in Python floats."""
    lo = max(float(eig[0]), 0.0) + alpha * alpha
    hi = float(eig[-1]) + alpha * alpha
    if lo <= 0.0:
        return float("inf")
    return hi / lo


def one_grid_design(tc, alpha_policy):
    """(alpha, kappa, m) of one grid, as ``regression.fit_designs`` gives each.

    A column-stacked Vandermonde matrix, ``eigvalsh(m.T @ m)``, the
    policy's alpha (a grid search walks ``ALPHA_GRID`` one value at a
    time) and the condition number in Python floats.
    """
    m = np.column_stack([np.ones_like(tc), tc, tc * tc])
    eig = np.linalg.eigvalsh(m.T @ m)
    if isinstance(alpha_policy, GridSearchAlpha):
        alpha = next((a for a in ALPHA_GRID if scalar_condition(eig, a) <= alpha_policy.cap),
                     ALPHA_GRID[-1])
    else:
        alpha = float(alpha_policy.alpha)
    kappa = scalar_condition(eig, alpha)
    if alpha == 0.0 and kappa > _SINGULAR_KAPPA:
        raise ConditioningError(
            "design matrix is rank deficient with alpha = 0; "
            "select a regularized alpha policy"
        )
    return alpha, kappa, m


def lstsq_solve(design, t_bar, values):
    """Absolute-time coefficients of one (alpha, kappa, m) design by ``np.linalg.lstsq``.

    ``values`` are sampled at t_bar + tc; where alpha > 0, ``alpha * I``
    is stacked below m and its rows get zero targets.
    """
    alpha, _, m = design
    a, rhs = m, values
    if alpha != 0.0:
        a = np.vstack([m, alpha * np.eye(POLY_DEGREE + 1)])
        rhs = np.concatenate([values, np.zeros(POLY_DEGREE + 1)])
    c0, c1, c2 = np.linalg.lstsq(a, rhs, rcond=None)[0].tolist()
    return (c0 - c1 * t_bar + c2 * t_bar * t_bar, c1 - 2.0 * c2 * t_bar, c2)


def lstsq_fit(first_frame, values, alpha_policy, frame_rate_hz):
    """One window's fit: its grid's columns from ``fit_designs``, then ``lstsq_solve``.

    The samples sit at frames first_frame, first_frame + 1, ...
    """
    t = np.arange(first_frame, first_frame + len(values)) / frame_rate_hz
    t_bar = float(t.mean())
    alpha, kappa, m = fit_designs((t - t_bar)[None], alpha_policy)
    design = (float(alpha[0]), float(kappa[0]), m[0])
    coefficients = lstsq_solve(design, t_bar, values)
    return CentralityPolynomial(coefficients, (float(t[0]), float(t[-1])), *design[:2])


def scalar_detect_weaving(closeness, window, epsilon):
    """The critical point of one closeness quadratic, in Python floats.

    A candidate is a zero of the first derivative strictly inside the
    window. Its sharpness is the largest |dzeta/dt| over the epsilon-ball
    around it; candidates whose ball maximum equals the (zero) derivative
    at the point — constant polynomials — are discarded as flat.
    """
    b0, b1, b2 = closeness
    if b2 == 0.0:
        # derivative is the constant b1: either no zeros, or flat everywhere
        return []
    t_c = -b1 / (2.0 * b2)
    w0, w1 = window
    if not (w0 < t_c < w1):
        return []
    sharpness = 2.0 * abs(b2) * epsilon  # max |b1 + 2 b2 t| over the ball
    if sharpness == abs(b1 + 2.0 * b2 * t_c):
        return []
    return [(t_c, sharpness)]


def scalar_aggregate_sle(summaries):
    """The window attaining the largest SLE maximum, earliest t_sle on ties."""
    if not summaries:
        return StyleSummary(sle_max=0.0, t_sle=None, sie_max=0.0, detected=False)
    best = max(summaries, key=lambda s: (s.sle_max, -s.t_sle))
    return StyleSummary(
        sle_max=best.sle_max,
        t_sle=best.t_sle,
        sie_max=max(s.sie_max for s in summaries),
        detected=False,
    )


def merge_critical_points(points, tolerance):
    """Collapse near-duplicate critical points from overlapping windows.

    Points within ``tolerance`` seconds of the previous point join its
    cluster; each cluster is represented by its sharpest member.
    """
    if not points:
        return []
    ordered = sorted(points)
    clusters = [[ordered[0]]]
    for p in ordered[1:]:
        if p[0] - clusters[-1][-1][0] <= tolerance:
            clusters[-1].append(p)
        else:
            clusters.append([p])
    return [max(c, key=lambda p: (p[1], -p[0])) for c in clusters]


class WindowAnalysis(NamedTuple):
    """One agent's degree and closeness fits over one analysis window.

    Both fits use the same sample times, so they share the span (seconds),
    the alpha and the condition number of one design.
    """

    window: tuple[float, float]
    alpha: float
    condition_number: float
    degree: tuple[float, float, float]
    closeness: tuple[float, float, float]
    weaving_points: list[tuple[float, float]]


def scalar_classify(agent_id, windows, degree_sle, closeness_sle, thresholds, epsilon):
    """The style report of one agent, one Python object at a time.

    ``windows`` are its ``WindowAnalysis`` records, kept as the report's
    ``windows``; ``degree_sle`` and ``closeness_sle`` their SLE summaries.
    """
    overspeed = scalar_aggregate_sle(degree_sle)
    overtake = scalar_aggregate_sle(closeness_sle)
    merged = merge_critical_points(
        [p for w in windows for p in w.weaving_points], tolerance=epsilon
    )
    significant = [p for p in merged if p[1] > thresholds.weaving_min_sharpness]
    times = [p[0] for p in significant]
    weaving = WeavingSummary(
        count=len(significant),
        t_sle=0.5 * (min(times) + max(times)) if times else None,
        sie_max=max((p[1] for p in significant), default=0.0),
        detected=len(significant) >= 1,
        critical_points=significant,
    )
    overspeed.detected = overspeed.sle_max > thresholds.tau_degree
    overtake.detected = overtake.sle_max > thresholds.tau_closeness
    conservative = StyleSummary(
        sle_max=max(overspeed.sle_max, overtake.sle_max),
        t_sle=None,
        sie_max=max(overspeed.sie_max, overtake.sie_max),
        detected=not (overspeed.detected or overtake.detected or weaving.detected),
    )
    aggressive = overspeed.detected or overtake.detected or weaving.detected
    spans = [w.window for w in windows]
    run_window = (
        (min(s[0] for s in spans), max(s[1] for s in spans)) if spans else (0.0, 0.0)
    )
    return StyleReport(
        agent_id=agent_id,
        window=run_window,
        styles={
            STYLE_OVERSPEEDING: overspeed,
            STYLE_OVERTAKE_LANE_CHANGE: overtake,
            STYLE_WEAVING: weaving,
            STYLE_CONSERVATIVE: conservative,
        },
        global_label=LABEL_AGGRESSIVE if aggressive else LABEL_CONSERVATIVE,
        windows=windows,
    )


def per_window_analyze(table, params=None, series=None):
    """``analyze_table`` one window at a time, sharing nothing between fits.

    Each window gets its own slice of the series arrays, its own
    ``lstsq_fit`` per kind (design, alpha selection and solve), its own
    SLE/SIE sampling and weaving test, and each agent its own aggregate.
    Each agent's report holds its ``WindowAnalysis`` records as ``windows``.
    """
    params = params or AnalysisParams()
    f = table.frame_rate_hz
    policy = params.alpha_policy
    if series is None:
        series = compute_series(table, params.mu, capacity=params.capacity)
    lo, hi = table.span()
    window_frames = max(POLY_DEGREE, int(round(params.window_s * f)))
    stride_frames = max(1, int(round(params.effective_stride() * f)))
    windows = frame_windows(lo, hi, window_frames, stride_frames)

    reports = []
    for agent_id, (f0, clo, deg) in sorted(by_agent(series).items()):
        frames = range(f0, f0 + len(deg))
        analyses, degree_sle, closeness_sle = [], [], []
        for w0, w1 in windows:
            if w1 < frames[0] or w0 > frames[-1]:
                continue
            i, j = bisect_left(frames, w0), bisect_right(frames, w1)
            if j - i < POLY_DEGREE + 1:
                continue
            deg_poly = lstsq_fit(frames[i], deg[i:j], policy, f)
            clo_poly = lstsq_fit(frames[i], clo[i:j], policy, f)
            # the one record stores these once: both fits must agree on them
            shared = (deg_poly.domain, deg_poly.alpha, deg_poly.condition_number)
            assert shared == (clo_poly.domain, clo_poly.alpha, clo_poly.condition_number)
            span = (frames[i] / f, frames[j - 1] / f)
            assert deg_poly.domain == span
            analyses.append(
                WindowAnalysis(
                    *shared,
                    degree=deg_poly.coefficients,
                    closeness=clo_poly.coefficients,
                    weaving_points=scalar_detect_weaving(
                        clo_poly.coefficients, span, params.epsilon_s
                    ),
                )
            )
            degree_sle.append(sampled_sle(deg_poly, (frames[i], frames[j - 1]), f))
            closeness_sle.append(sampled_sle(clo_poly, (frames[i], frames[j - 1]), f))
        reports.append(scalar_classify(
            agent_id, analyses, degree_sle, closeness_sle,
            params.thresholds, params.epsilon_s,
        ))
    return RunReport(frame_rate_hz=f, params=params, agents=reports)


def scalar_calibration_pools(scenarios, params):
    """``calibrate_thresholds``' three pools, one report object at a time.

    Per conservative agent: the two SLE maxima of its report and the
    largest sharpness over its windows' raw weaving points (0.0 when
    none), before any merge.
    """
    pools = ([], [], [])
    for config in scenarios:
        result = run_scenario(config)
        run = analyze_table(result.table, params)
        sharpness = run.fits.sharpness.tolist()
        for report in run.agents:
            if result.agent_classes[report.agent_id] != CLASS_CONSERVATIVE:
                continue
            pools[0].append(report.styles[STYLE_OVERSPEEDING].sle_max)
            pools[1].append(report.styles[STYLE_OVERTAKE_LANE_CHANGE].sle_max)
            pools[2].append(max(
                (sharpness[r] for r in report.windows if not math.isnan(sharpness[r])),
                default=0.0,
            ))
    return pools


def scalar_windows_csv(report):
    """``windows_to_csv`` of a ``per_window_analyze`` report, one ``repr`` per value.

    Per agent in report order, one line per ``WindowAnalysis`` record;
    the weaving point's two fields are empty when the window has none.
    """
    lines = ["agent_id,start_s,end_s,alpha,condition_number,degree_b0,degree_b1,"
             "degree_b2,closeness_b0,closeness_b1,closeness_b2,t_c,sharpness"]
    for agent in report.agents:
        for w in agent.windows:
            (point,) = w.weaving_points or [None]
            values = (*w.window, w.alpha, w.condition_number, *w.degree, *w.closeness)
            weaving = ("", "") if point is None else map(repr, map(float, point))
            lines.append(",".join([agent.agent_id, *map(repr, map(float, values)), *weaving]))
    return "\n".join(lines) + "\n"


def scalar_calibrate(scenarios, params):
    """``calibrate_thresholds`` over ``scalar_calibration_pools``."""
    def pct(values):
        return float(np.percentile(values, PERCENTILE, method="higher"))

    degree, closeness, sharpness = scalar_calibration_pools(scenarios, params)
    return Thresholds(
        tau_degree=max(pct(degree), _POSITIVE_FLOOR),
        tau_closeness=max(pct(closeness), _POSITIVE_FLOOR),
        weaving_min_sharpness=pct(sharpness),
    )


# --- the object simulator --------------------------------------------------


@dataclass
class LaneChangeState:
    from_lane: float  # lateral start in lane units
    to_lane: int
    progress: float = 0.0  # fraction of the transition completed


@dataclass
class SimAgent:
    """Mutable state of one simulated vehicle."""

    agent_id: str
    vehicle_class: str
    lane: int
    x: float
    speed: float
    params: DriverParams
    longitudinal: str = MODE_IDM
    mobil_enabled: bool = True
    lane_change: LaneChangeState | None = None

    def car(self):
        """The agent as ``mobil_decision`` takes a car."""
        return (self.x, self.speed, idm_law(self.params))

    def lateral_lane(self) -> float:
        """The lateral position in lane units."""
        if self.lane_change is None:
            return self.lane
        lc = self.lane_change
        blend = 0.5 * (1.0 - math.cos(math.pi * lc.progress))
        return lc.from_lane + (lc.to_lane - lc.from_lane) * blend

    def lateral_y(self, lane_width: float) -> float:
        return self.lateral_lane() * lane_width

    def lateral_rate(self, lane_width: float, duration: float) -> float:
        if self.lane_change is None:
            return 0.0
        lc = self.lane_change
        return (
            (lc.to_lane - lc.from_lane) * lane_width
            * math.pi / (2.0 * duration) * math.sin(math.pi * lc.progress)
        )


class LaneIndex:
    """Every agent as a sorted (lane, x, position in the agent list) key.

    Answers the same leader and follower as a scan of the agent list in
    order: the leader is the nearest agent strictly ahead, the follower
    the nearest at or behind ego, and ties go to the earlier agent.
    """

    def __init__(self, agents):
        self.agents = agents
        self.keys = sorted([(a.lane, a.x, pos) for pos, a in enumerate(agents)])

    def leader(self, pos, lane):
        keys = self.keys
        ahead = bisect_right(keys, (lane, self.agents[pos].x, len(keys)))
        if ahead < len(keys) and keys[ahead][0] == lane:
            return self.agents[keys[ahead][2]]
        return None

    def follower(self, pos, lane):
        keys = self.keys
        end = bisect_right(keys, (lane, self.agents[pos].x, len(keys)))
        while end > 0 and keys[end - 1][0] == lane:
            start = bisect_left(keys, (lane, keys[end - 1][1], -1), 0, end)
            if keys[start][2] != pos:
                return self.agents[keys[start][2]]
            if start + 1 < end:
                return self.agents[keys[start + 1][2]]
            end = start
        return None

    def move(self, pos, from_lane):
        agent = self.agents[pos]
        del self.keys[bisect_left(self.keys, (from_lane, agent.x, pos))]
        insort(self.keys, (agent.lane, agent.x, pos))


def _begin_lane_change(agent, target_lane):
    # from where the agent is: mid-change, the blended position
    agent.lane_change = LaneChangeState(from_lane=float(agent.lateral_lane()),
                                        to_lane=target_lane)
    agent.lane = target_lane


def idm_acceleration(law, speed, gap=None, lead_speed=0.0):
    """Car-following acceleration: free-road term minus interaction term.

    ``law`` is the driver's ``sim.idm_law``, ``gap`` the bumper-to-bumper
    distance to the leader (None on a free road) and ``lead_speed`` the
    leader's speed. A non-positive gap is a collision, answered with the
    emergency deceleration -b_comf. The powers are Python's ``**``.
    """
    v0, a_max, b_comf, s0, t_gap, root = law
    free = 1.0 - (speed / v0) ** 4
    if gap is None:
        return a_max * free
    if gap <= 0.0:
        return -b_comf
    s_star = s0 + speed * t_gap + speed * (speed - lead_speed) / root
    return a_max * (free - (s_star / gap) ** 2)


class MobilDecision(NamedTuple):
    approved: bool
    safety_ok: bool
    incentive: float
    new_follower_acceleration: float  # the deceleration imposed in the target lane


def _follow(back, front):
    """``idm_acceleration`` of car ``back`` behind ``front`` (None: free road)."""
    if front is None:
        return idm_acceleration(back[2], back[1])
    return idm_acceleration(back[2], back[1], front[0] - back[0] - VEHICLE_LENGTH_M, front[1])


def mobil_decision(
    params, ego, current_leader, current_follower, target_leader, target_follower
):
    """Approve a lane change iff it is safe and worth the bother.

    A car is ``(x, speed, idm_law)``, or None where the neighbour is
    absent; ``params`` are the ego's. Safety: the would-be follower in
    the target lane must not be forced below -b_safe. Incentive: the ego
    acceleration gain plus the politeness-weighted gains of both affected
    followers must exceed the ego's threshold. An unsafe change, a
    non-positive insertion gap included, is rejected before its incentive
    terms are evaluated: its incentive is -inf.
    """
    if (target_leader is not None and target_leader[0] - ego[0] - VEHICLE_LENGTH_M <= 0) or (
        target_follower is not None and ego[0] - target_follower[0] - VEHICLE_LENGTH_M <= 0
    ):
        return MobilDecision(False, False, -math.inf, -math.inf)

    a_n = a_n_new = a_o = a_o_new = 0.0
    if target_follower is not None:
        a_n_new = _follow(target_follower, ego)
        if not a_n_new >= -params.b_safe:
            return MobilDecision(False, False, -math.inf, a_n_new)
        a_n = _follow(target_follower, target_leader)
    gain_ego = _follow(ego, target_leader) - _follow(ego, current_leader)
    if current_follower is not None:
        a_o, a_o_new = _follow(current_follower, ego), _follow(current_follower, current_leader)
    incentive = gain_ego + params.politeness * ((a_n_new - a_n) + (a_o_new - a_o))
    new_follower = math.inf if target_follower is None else a_n_new
    return MobilDecision(incentive > params.delta_a_th, True, incentive, new_follower)


def full_mobil_decision(
    params, ego, current_leader, current_follower, target_leader, target_follower
):
    """``mobil_decision`` with every term evaluated, safe or not, as the simulator takes it.

    All six car-following evaluations run before safety and incentive
    are judged together; only a non-positive insertion gap returns early.
    """
    if (target_leader is not None and target_leader[0] - ego[0] - VEHICLE_LENGTH_M <= 0) or (
        target_follower is not None and ego[0] - target_follower[0] - VEHICLE_LENGTH_M <= 0
    ):
        return MobilDecision(False, False, -math.inf, -math.inf)

    gain_ego = _follow(ego, target_leader) - _follow(ego, current_leader)
    a_n = a_n_new = a_o = a_o_new = 0.0
    if target_follower is not None:
        a_n, a_n_new = _follow(target_follower, target_leader), _follow(target_follower, ego)
    if current_follower is not None:
        a_o, a_o_new = _follow(current_follower, ego), _follow(current_follower, current_leader)
    safety_ok = target_follower is None or a_n_new >= -params.b_safe
    incentive = gain_ego + params.politeness * ((a_n_new - a_n) + (a_o_new - a_o))
    new_follower = math.inf if target_follower is None else a_n_new
    return MobilDecision(
        safety_ok and incentive > params.delta_a_th, safety_ok, incentive, new_follower
    )


def object_step(cfg, agents, frame, collisions):
    """One step of the simulator on SimAgent objects, one agent at a time, with a LaneIndex."""
    dt = cfg.timestep_s
    scripts = {(s.agent_id, s.frame): s.target_lane for s in cfg.lane_change_scripts}
    for agent in agents:
        target = scripts.get((agent.agent_id, frame))
        if target is not None and target != agent.lane:
            _begin_lane_change(agent, target)

    lanes = LaneIndex(agents)
    if frame % max(1, int(round(cfg.mobil_period_s / dt))) == 0:
        for pos, agent in enumerate(agents):
            if (
                agent.longitudinal != MODE_IDM
                or not agent.mobil_enabled
                or agent.lane_change is not None
            ):
                continue
            cur_leader = lanes.leader(pos, agent.lane)
            cur_follower = lanes.follower(pos, agent.lane)
            best = None
            for target in (agent.lane - 1, agent.lane + 1):
                if not 0 <= target < cfg.lane_count:
                    continue
                cars = [
                    None if other is None else other.car()
                    for other in (cur_leader, cur_follower,
                                  lanes.leader(pos, target), lanes.follower(pos, target))
                ]
                decision = full_mobil_decision(agent.params, agent.car(), *cars)
                if decision.approved and (best is None or decision.incentive > best[0]):
                    best = (decision.incentive, target, decision)
            if best is not None:
                _, target, decision = best
                assert decision.safety_ok
                assert decision.new_follower_acceleration >= -agent.params.b_safe
                assert decision.incentive > agent.params.delta_a_th
                from_lane = agent.lane
                _begin_lane_change(agent, target)
                lanes.move(pos, from_lane)

    accels = []
    for pos, agent in enumerate(agents):
        if agent.longitudinal == MODE_CRUISE:
            accels.append(0.0)
            continue
        leader = lanes.leader(pos, agent.lane)
        law = idm_law(agent.params)
        if leader is None:
            accels.append(idm_acceleration(law, agent.speed))
            continue
        gap = leader.x - agent.x - VEHICLE_LENGTH_M
        if gap <= 0.0:
            collisions.append(CollisionEvent(frame, agent.agent_id, leader.agent_id))
        accels.append(idm_acceleration(law, agent.speed, gap, leader.speed))

    for agent, acc in zip(agents, accels):
        agent.x += agent.speed * dt
        agent.speed = max(0.0, agent.speed + acc * dt)
        if agent.lane_change is not None:
            agent.lane_change.progress += dt / cfg.lane_change_duration_s
            if agent.lane_change.progress >= 1.0 - 1e-12:
                agent.lane_change = None


def object_run_scenario(cfg):
    """(table, collision log) of ``sim.run_scenario`` from SimAgent objects.

    Desired speeds are drawn in spawn order, each agent's row recorded
    as an ``AgentFrame`` before each ``object_step``.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    agents = []
    for spawn in cfg.spawns:
        params = CLASS_PARAMS[spawn.vehicle_class]
        if spawn.vehicle_class == CLASS_CONSERVATIVE and cfg.randomize_conservative_v0:
            params = replace(params, v0=params.v0 * float(rng.uniform(0.9, 1.1)))
        if spawn.v0 is not None:
            params = replace(params, v0=spawn.v0)
        agents.append(SimAgent(spawn.agent_id, spawn.vehicle_class, spawn.lane,
                               spawn.position, spawn.speed, params,
                               spawn.longitudinal, spawn.mobil_enabled))
    rate = 1.0 / cfg.timestep_s
    frames, collisions = {}, []
    for k in range(cfg.frame_count()):
        ts = k * cfg.timestep_s
        frames[frame_index(ts, rate)] = [
            AgentFrame(
                ts, a.agent_id, "car", (a.x, a.lateral_y(cfg.lane_width_m)),
                (a.speed, a.lateral_rate(cfg.lane_width_m, cfg.lane_change_duration_s)),
            )
            for a in agents
        ]
        object_step(cfg, agents, k, collisions)
    return records_table(frames, rate), collisions


# --- the writers, one row at a time ----------------------------------------


def row_serialize_trajectories(table):
    """``serialize_trajectories``' text, one row at a time from the table's records."""
    lines = ["timestamp,agent_id,agent_type,x,y,vx,vy"]
    frames = records(table)
    for index in sorted(frames):
        for fr in frames[index]:
            lines.append(
                f"{fr.timestamp!r},{fr.agent_id},{fr.agent_type},{fr.position[0]!r},"
                f"{fr.position[1]!r},{fr.velocity[0]!r},{fr.velocity[1]!r}"
            )
    return "\n".join(lines) + "\n"


def row_series_to_csv(series):
    """``series_to_csv``' text, one agent-frame at a time."""
    lines = ["frame,agent_id,closeness,degree"]
    for agent_id, (first, clo, deg) in sorted(by_agent(series).items()):
        for t, (c, d) in enumerate(zip(clo.tolist(), deg.tolist()), first):
            lines.append(f"{t},{agent_id},{c!r},{d!r}")
    return "\n".join(lines) + "\n"
