"""Independent brute-force oracles the implementation is checked against.

These deliberately avoid the package's algorithmic code paths: shortest
paths by relaxation to a fixpoint instead of a heap, degree counting by
replaying raw frames with plain dict/set bookkeeping, traffic-graph edges
by testing every pair, lane leaders by scanning every agent, windowed
fits one window at a time, SLE/SIE maxima by sampling every frame, and
trajectory tables by reading a file one row at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import replace

import numpy as np

from drivestyle.centrality import compute_series
from drivestyle.errors import InsufficientDataError, TrajectoryParseError, ValidationError
from drivestyle.ingest import AGENT_TYPES, AgentFrame, TrajectoryTable, frame_index
from drivestyle.pipeline import AnalysisParams, RunReport, frame_windows
from drivestyle.regression import POLY_DEGREE, derivative, fit
from drivestyle.styles import SleSummary, WindowAnalysis, classify, detect_weaving


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
        if ts * frame_rate_hz + 1e-9 >= 2.0**53:
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
        for a, b in zip(indices, indices[1:]):
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
    frames = {
        idx: sorted(frames[idx], key=lambda fr: fr.agent_id) for idx in sorted(frames)
    }
    return TrajectoryTable(frames=frames, frame_rate_hz=frame_rate_hz)


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


def scan_neighbors_in_lane(agents, ego, lane):
    """(leader, follower) of ego within a lane, by a scan in list order.

    Leader: nearest agent strictly ahead. Follower: nearest agent at or
    behind ego's x, ego excluded. Ties go to the earlier agent in the list.
    """
    leader = follower = None
    for other in agents:
        if other is ego or other.lane != lane:
            continue
        if other.x > ego.x and (leader is None or other.x < leader.x):
            leader = other
        elif other.x <= ego.x and (follower is None or other.x > follower.x):
            follower = other
    return leader, follower


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
    dist = relaxation_shortest_costs(graph, agent_id)
    if len(dist) == 1:
        return 0.0
    total = sum(dist[v] for v in sorted(dist) if v != agent_id)
    return (len(dist) - 1) / total


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
    for idx in sorted(table.frames):
        frame = table.frames[idx]
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


def sample_sle_sie(poly, window, frame_rate_hz):
    """(times, SLE, SIE) of one polynomial at every frame sample of a window.

    The samples are t = k / rate for every integer k in the closed window,
    its ends snapped to the frame grid within 1e-9 of a frame; SLE and SIE
    are the absolute first and second derivatives there.
    """
    k0 = math.ceil(window[0] * frame_rate_hz - 1e-9)
    k1 = math.floor(window[1] * frame_rate_hz + 1e-9)
    times = np.arange(k0, k1 + 1) / frame_rate_hz
    sle = np.abs(derivative(poly, 1).evaluate(times))
    sie = np.abs(derivative(poly, 2).evaluate(times))
    return times, sle, sie


def sampled_sle(poly, window, frame_rate_hz) -> SleSummary:
    """The SLE/SIE maxima over every sample; the earliest SLE tie wins."""
    times, sle, sie = sample_sle_sie(poly, window, frame_rate_hz)
    k = int(np.argmax(sle))
    return SleSummary(
        sle_max=float(sle[k]), t_sle=float(times[k]), sie_max=float(sie.max())
    )


def per_window_analyze(table, params=None, series=None):
    """``analyze_table`` one window at a time, sharing nothing between fits.

    Each window gets its own ``CentralitySeries`` slice, its own ``fit``
    (design, alpha selection and solve) and its own SLE/SIE sampling.
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
    for agent_id in sorted(series):
        clo_series, deg_series = series[agent_id]
        frames = deg_series.frames()
        analyses = []
        for w0, w1 in windows:
            if w1 < frames[0] or w0 > frames[-1]:
                continue
            i, j = bisect_left(frames, w0), bisect_right(frames, w1)
            if j - i < POLY_DEGREE + 1:
                continue
            deg_slice = replace(deg_series, values=deg_series.values[i:j], window=(w0, w1))
            clo_slice = replace(clo_series, values=clo_series.values[i:j], window=(w0, w1))
            span = (frames[i] / f, frames[j - 1] / f)
            try:
                deg_poly = fit(deg_slice, policy, f)
                clo_poly = fit(clo_slice, policy, f)
            except InsufficientDataError:
                continue
            analyses.append(
                WindowAnalysis(
                    window=span,
                    degree_poly=deg_poly,
                    closeness_poly=clo_poly,
                    degree_sle=sampled_sle(deg_poly, span, f),
                    closeness_sle=sampled_sle(clo_poly, span, f),
                    weaving_points=detect_weaving(clo_poly, span, params.epsilon_s),
                )
            )
        reports.append(classify(agent_id, analyses, params.thresholds, params.epsilon_s))
    return RunReport(frame_rate_hz=f, params=params, agents=reports)
