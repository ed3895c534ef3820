"""Discrete closeness and degree centrality time series.

Closeness is computed on the instantaneous graph (it must fall when an
agent leaves a cluster), degree on the cumulative neighbor-history state
(it counts distinct slower vehicles first encountered). On a graph that
is not connected, closeness is restricted to the agent's connected
component: (|C|-1) / sum of shortest-path costs within C, and 0 for a
singleton component.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import ValidationError
from .graph import (
    DEFAULT_CAPACITY,
    CumulativeAdjacency,
    InstantGraph,
    build_instant_graph,
    update_cumulative,
)
from .ingest import TrajectoryTable, write_text

KIND_CLOSENESS = "closeness"
KIND_DEGREE = "degree"


@dataclass
class CentralitySeries:
    """One agent's sampled centrality: (frame index, value) pairs."""

    agent_id: str
    kind: str
    values: list[tuple[int, float]]
    window: tuple[int, int]

    def frames(self) -> list[int]:
        return [t for t, _ in self.values]


def shortest_path_costs(graph: InstantGraph, source: str) -> dict[str, float]:
    """Minimum total edge cost from ``source`` to every reachable vertex.

    Plain binary-heap Dijkstra over the graph's adjacency lists; costs are
    strictly positive by graph construction, so the distances do not
    depend on the order of those lists.
    """
    if source not in graph.positions:
        raise KeyError(source)
    adj = graph.adjacency
    dist: dict[str, float] = {source: 0.0}
    done: set[str] = set()
    heap: list[tuple[float, str]] = [(0.0, source)]
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


def closeness(graph: InstantGraph, agent_id: str) -> float:
    """(|C|-1) / total shortest-path cost to the rest of the component.

    Returns 0.0 for an isolated vertex. Raises KeyError when the agent is
    not a vertex of the graph.
    """
    dist = shortest_path_costs(graph, agent_id)
    if len(dist) == 1:
        return 0.0
    # sum in sorted vertex order so the value is independent of traversal
    total = sum(dist[v] for v in sorted(dist) if v != agent_id)
    return (len(dist) - 1) / total


def degree_step(prev: float, new_neighbor_count: int) -> float:
    """Cumulative degree update: previous value plus this frame's count."""
    if prev < 0:
        raise ValidationError(f"degree centrality cannot be negative, got {prev}")
    if new_neighbor_count < 0:
        raise ValidationError(f"negative neighbor count {new_neighbor_count}")
    return prev + new_neighbor_count


def compute_series(
    table: TrajectoryTable,
    mu: float,
    capacity: int = DEFAULT_CAPACITY,
) -> dict[str, tuple[CentralitySeries, CentralitySeries]]:
    """Per-agent (closeness, degree) series over the table's whole span.

    Walks the frames present, in order (never the empty indices between
    them): instantaneous closeness per agent present, then one cumulative
    update feeding the degree chain. The degree chain must start at the
    beginning of the run to be meaningful, so callers slice the result
    rather than re-running on sub-windows.
    """
    if not table.frames:
        raise ValidationError("cannot compute centralities on an empty table")
    window = table.span()

    state = CumulativeAdjacency(capacity=capacity)
    clo: dict[str, list[tuple[int, float]]] = {}
    deg: dict[str, list[tuple[int, float]]] = {}
    level: dict[str, float] = {}
    for idx in table.frame_indices():
        frame = table.frames[idx]
        if not frame:
            continue
        graph = build_instant_graph(frame, mu)
        speeds = {fr.agent_id: fr.speed for fr in frame}
        counts = update_cumulative(state, graph, speeds)
        for fr in frame:
            a = fr.agent_id
            clo.setdefault(a, []).append((idx, closeness(graph, a)))
            level[a] = degree_step(level.get(a, 0.0), counts[a])
            deg.setdefault(a, []).append((idx, level[a]))

    return {
        a: (
            CentralitySeries(a, KIND_CLOSENESS, clo[a], window),
            CentralitySeries(a, KIND_DEGREE, deg[a], window),
        )
        for a in clo
    }


def series_to_csv(series_map, dest=None) -> str:
    """Flatten series to ``frame,agent_id,kind,value`` CSV for plotting."""
    lines = ["frame,agent_id,kind,value"]
    for agent_id in sorted(series_map):
        for s in series_map[agent_id]:
            for t, v in s.values:
                lines.append(f"{t},{agent_id},{s.kind},{v!r}")
    return write_text(dest, "\n".join(lines) + "\n", "centrality series")
