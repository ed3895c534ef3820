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
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, ValidationError
from .graph import (
    DEFAULT_CAPACITY,
    CumulativeAdjacency,
    InstantGraph,
    build_instant_graph,
    update_cumulative,
)
from .ingest import TrajectoryTable, write_text


class AgentSeries(NamedTuple):
    """One agent's centralities, sampled at frames ``first, first + 1, ...``."""

    first: int
    closeness: np.ndarray
    degree: np.ndarray


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


def frame_closeness(graph: InstantGraph) -> dict[str, float]:
    """``closeness`` of every vertex, in closed form where it has one.

    An isolated vertex scores 0.0 and each end of an isolated edge
    ``1 / cost``, the float Dijkstra's one-term sum gives; only vertices
    in components of three or more run ``closeness``.
    """
    adj = graph.adjacency
    values = {}
    for v, nbrs in adj.items():
        if not nbrs:
            values[v] = 0.0
        elif len(nbrs) == 1 and len(adj[nbrs[0][0]]) == 1:
            values[v] = 1.0 / nbrs[0][1]
        else:
            values[v] = closeness(graph, v)
    return values


def compute_series(
    table: TrajectoryTable,
    mu: float,
    capacity: int = DEFAULT_CAPACITY,
) -> dict[str, AgentSeries]:
    """Per-agent closeness and degree series over the table's whole span.

    Walks the frames present, in order (never the empty indices between
    them): instantaneous closeness per agent present, then one cumulative
    update whose new-neighbor counts, summed, are the degree series. The
    degree chain must start at the beginning of the run to be meaningful,
    so callers slice the result rather than re-running on sub-windows.
    Raises ContractViolationError when an agent's frames have a gap.
    """
    if not table.frames:
        raise ValidationError("cannot compute centralities on an empty table")

    state = CumulativeAdjacency(capacity=capacity)
    first: dict[str, int] = {}
    clo: dict[str, list[float]] = {}
    new: dict[str, list[int]] = {}
    for idx in table.frame_indices():
        frame = table.frames[idx]
        if not frame:
            continue
        graph = build_instant_graph(frame, mu)
        speeds = {fr.agent_id: fr.speed for fr in frame}
        counts = update_cumulative(state, graph, speeds)
        values = frame_closeness(graph)
        for fr in frame:
            a = fr.agent_id
            if a not in first:
                first[a] = idx
                clo[a], new[a] = [], []
            elif first[a] + len(clo[a]) != idx:
                raise ContractViolationError(
                    f"agent {a!r} has a gap in its frames before frame {idx}"
                )
            clo[a].append(values[a])
            new[a].append(counts[a])

    # a running sum of integer counts is exact in float64
    return {
        a: AgentSeries(
            f0, np.array(clo[a], dtype=float), np.cumsum(new[a], dtype=float)
        )
        for a, f0 in first.items()
    }


def series_to_csv(series_map, dest=None) -> str:
    """Flatten series to ``frame,agent_id,kind,value`` CSV for plotting."""
    lines = ["frame,agent_id,kind,value"]
    for agent_id in sorted(series_map):
        first, clo, deg = series_map[agent_id]
        for kind, values in (("closeness", clo), ("degree", deg)):
            for t, v in enumerate(values.tolist(), first):
                lines.append(f"{t},{agent_id},{kind},{v!r}")
    return write_text(dest, "\n".join(lines) + "\n", "centrality series")
