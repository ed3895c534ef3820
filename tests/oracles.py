"""Independent brute-force oracles the implementation is checked against.

These deliberately avoid the package's algorithmic code paths: shortest
paths by relaxation to a fixpoint instead of a heap, degree counting by
replaying raw frames with plain dict/set bookkeeping, traffic-graph edges
by testing every pair, lane leaders by scanning every agent, windowed
fits one window at a time, and SLE/SIE maxima by sampling every frame.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import replace

import numpy as np

from drivestyle.centrality import compute_series
from drivestyle.errors import InsufficientDataError
from drivestyle.pipeline import AnalysisParams, RunReport, frame_windows
from drivestyle.regression import POLY_DEGREE, derivative, fit
from drivestyle.styles import SleSummary, WindowAnalysis, classify, detect_weaving


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
