"""Independent brute-force oracles the implementation is checked against.

These deliberately avoid the package's algorithmic code paths: shortest
paths by relaxation to a fixpoint instead of a heap, degree counting by
replaying raw frames with plain dict/set bookkeeping, traffic-graph edges
by testing every pair, and lane leaders by scanning every agent.
"""

from __future__ import annotations

import math
from collections import defaultdict


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


def replay_degree(table, mu):
    """Re-derive per-agent cumulative degree series from raw frames.

    Counts first encounters with strictly slower agents, using nothing
    but pairwise squared distances and per-agent seen-sets. No capacity
    resets: callers must use a capacity that the replayed table stays
    under.
    """
    seen = defaultdict(set)
    totals = defaultdict(float)
    series = defaultdict(list)
    for idx in sorted(table.frames):
        frame = table.frames[idx]
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
