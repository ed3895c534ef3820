"""Discrete closeness and degree centrality time series.

Closeness is computed on the instantaneous graph (it must fall when an
agent leaves a cluster), degree on the cumulative neighbor-history state
(it counts distinct slower vehicles first encountered). On a graph that
is not connected, closeness is restricted to the agent's connected
component: (|C|-1) / sum of shortest-path costs within C, and 0 for a
singleton component.

``compute_series`` works on the whole run's columns at once: one edge
sweep over every frame, first encounters found by one sort, and
closeness in closed form for components of up to three vertices.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain, starmap
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, ValidationError, require_positive
from .graph import (
    DEFAULT_CAPACITY,
    InstantGraph,
    graph_error,
    instant_graph,
    sweep_edges,
)
from .ingest import TrajectoryTable, write_text

# Not called here: the per-frame forms of ``compute_series``.
# perfbench/tracer.py wraps the layer names this module exposes, these two
# among them.
from .graph import build_instant_graph, update_cumulative  # noqa: F401


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


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Each vertex's component label: the least vertex index in it.

    Min-label propagation over the edges ``(i, j)``, with pointer jumping.
    """
    label = np.arange(n)
    while True:
        low = np.minimum(label[i], label[j])
        new = label.copy()
        np.minimum.at(new, i, low)
        np.minimum.at(new, j, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _closeness(ids, x, y, i, j, cost) -> np.ndarray:
    """``closeness`` of every vertex of the graphs with edges ``(i, j, cost)``.

    The same floats the heap Dijkstra of ``closeness`` gives, in closed
    form up to three vertices: 0.0 for an isolated vertex; ``1.0 / cost``
    for each end of an isolated edge; and for a source s of a path or
    triangle {s, u, v}, ``2 / (d_u + d_v)`` with ``d_u = min(w_su, w_sv +
    w_vu)``, inf standing for an absent edge (a vertex settled first is
    never improved, and a two-term sum does not depend on its order). A
    component of four or more runs ``closeness`` per vertex.
    """
    values = np.zeros(len(ids))
    degree = np.bincount(np.concatenate([i, j]), minlength=len(ids))
    pair = (degree[i] == 1) & (degree[j] == 1)
    values[i[pair]] = 1.0 / cost[pair]
    values[j[pair]] = 1.0 / cost[pair]

    # the rest, renumbered 0 .. m-1 in row order
    i, j, cost = i[~pair], j[~pair], cost[~pair]
    rows, ends = np.unique(np.concatenate([i, j]), return_inverse=True)
    li, lj = ends[: len(i)], ends[len(i) :]
    label = _components(len(rows), li, lj)
    size = np.bincount(label)[label]

    # triples: slots 0-2 of each component, and weights by slot
    triple = np.flatnonzero(size == 3)
    triple = triple[np.argsort(label[triple], kind="stable")].reshape(-1, 3)
    slot, comp = np.empty(len(rows), np.intp), np.empty(len(rows), np.intp)
    slot[triple] = np.arange(3)
    comp[triple] = np.arange(len(triple))[:, None]
    e = size[li] == 3
    w = np.full((len(triple), 3, 3), np.inf)
    w[comp[li[e]], slot[li[e]], slot[lj[e]]] = cost[e]
    w[comp[li[e]], slot[lj[e]], slot[li[e]]] = cost[e]
    for s, u, v in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        d_u = np.minimum(w[:, s, u], w[:, s, v] + w[:, v, u])
        d_v = np.minimum(w[:, s, v], w[:, s, u] + w[:, u, v])
        values[rows[triple[:, s]]] = 2 / (d_u + d_v)

    # four or more: Dijkstra on each component's own graph
    big = np.flatnonzero(size >= 4)
    if big.size:
        big = big[np.argsort(label[big], kind="stable")]
        e = np.flatnonzero(size[li] >= 4)
        e = e[np.argsort(label[li[e]], kind="stable")]
        vertex_groups = np.split(rows[big], np.flatnonzero(np.diff(label[big])) + 1)
        edge_groups = np.split(e, np.flatnonzero(np.diff(label[li[e]])) + 1)
        for vertices, edges in zip(vertex_groups, edge_groups):
            vertices = vertices.tolist()
            graph = instant_graph(ids, x, y, vertices, i[edges], j[edges], cost[edges])
            for v in vertices:
                values[v] = closeness(graph, ids[v])
    return values


def _columns(table: TrajectoryTable):
    """(frame, agent id, x, y, speed) per record, in frame order; None if none.

    The one pass over the table's records.
    """
    indices = sorted(table.frames)
    records = list(chain.from_iterable(map(table.frames.__getitem__, indices)))
    if not records:
        return None
    n = len(records)
    frames = np.repeat(
        np.array(indices, dtype=np.int64), [len(table.frames[k]) for k in indices]
    )
    ids = list(map(itemgetter(1), records))
    x, y = np.fromiter(
        chain.from_iterable(map(itemgetter(3), records)), float, 2 * n
    ).reshape(n, 2).T
    # math.hypot, as AgentFrame.speed: np.hypot may differ in the last bit
    speed = np.fromiter(starmap(math.hypot, map(itemgetter(4), records)), float, n)
    return frames, ids, x, y, speed


def _first_error(graph, frames, ids, runs, by_agent, bounds, capacity):
    """The error a frame-by-frame pass would raise first, or None.

    Frame by frame, that pass raises, within a frame: the failed graph
    check ``graph`` (``graph_error``'s result), then a frame of more than
    ``capacity`` agents, then an agent whose frames have a gap (it
    reappears after a frame without it). ``runs`` are the first rows of
    the frames; ``by_agent`` orders the rows by agent, and ``bounds`` are
    each agent's first position in it, then the row count.
    """
    found = []  # (frame, check order within the frame, error)
    if graph is not None:
        found.append((graph[0], 0, ValidationError(graph[1])))
    sizes = np.diff(runs, append=len(frames))
    over = np.flatnonzero(sizes > capacity)
    if over.size:
        found.append((int(frames[runs[over[0]]]), 1, ValidationError(
            f"frame holds {sizes[over[0]]} agents, more than capacity {capacity}"
        )))
    step = np.diff(frames[by_agent], prepend=0)
    step[bounds[:-1]] = 1  # an agent's first row follows no row of its own
    gap = by_agent[step != 1]
    if gap.size:
        row = gap.min()
        found.append((int(frames[row]), 2, ContractViolationError(
            f"agent {ids[row]!r} has a gap in its frames before frame {frames[row]}"
        )))
    return min(found, key=lambda error: error[:2], default=(None, None, None))[2]


def _new_neighbors(frames, codes, speed, i, j, runs, by_agent, bounds, capacity):
    """Per row, the count of first encounters with a strictly slower agent.

    Ids never return after they leave, so a frame's ids that are not yet
    admitted are exactly its arrivals: a frame resets the state when the
    ids admitted since the last reset plus its arrivals pass
    ``capacity``, and one loop over the frames numbers the reset epochs.
    A pair first meets at its earliest edge ``(i, j)`` within an epoch,
    found by one sort.
    """
    sizes = np.diff(runs, append=len(frames))
    group = np.repeat(np.arange(len(runs)), sizes)
    arrivals = np.bincount(group[by_agent[bounds[:-1]]], minlength=len(runs))
    epoch = np.empty(len(runs), np.intp)
    current = admitted = 0
    for k, (size, new) in enumerate(zip(sizes.tolist(), arrivals.tolist())):
        if admitted + new > capacity:
            current += 1
            admitted = size
        else:
            admitted += new
        epoch[k] = current

    epochs = epoch[group[i]]
    low, high = np.minimum(codes[i], codes[j]), np.maximum(codes[i], codes[j])
    s = np.lexsort((frames[i], high, low, epochs))
    key = np.stack([epochs[s], low[s], high[s]])
    first = s[(np.diff(key, prepend=-1) != 0).any(axis=0)]
    a, b = i[first], j[first]
    faster = np.concatenate([a[speed[a] > speed[b]], b[speed[b] > speed[a]]])
    return np.bincount(faster, minlength=len(frames))


def compute_series(
    table: TrajectoryTable,
    mu: float,
    capacity: int = DEFAULT_CAPACITY,
) -> dict[str, AgentSeries]:
    """Per-agent closeness and degree series over the table's whole span.

    Covers the frames present, in order (never the empty indices between
    them): instantaneous closeness per agent present, and the running sum
    of each agent's new-neighbor counts on the cumulative state, as
    ``update_cumulative`` applied frame by frame would count them. The
    degree chain must start at the beginning of the run to be meaningful,
    so callers slice the result rather than re-running on sub-windows.

    The whole run is handled as columns (frame, agent, x, y, speed): one
    ``sweep_edges`` gives every frame's edges, ``_closeness`` their
    closeness and ``_new_neighbors`` the degree counts. Raises the error
    a frame-by-frame pass would raise first (see ``_first_error``).
    """
    if not table.frames:
        raise ValidationError("cannot compute centralities on an empty table")
    if capacity <= 0:
        raise ValidationError(f"capacity must be positive, got {capacity}")
    columns = _columns(table)
    if columns is None:
        return {}
    require_positive(mu, "mu")
    frames, ids, x, y, speed = columns
    n = len(ids)
    agents = list(dict.fromkeys(ids))
    code = {agent_id: k for k, agent_id in enumerate(agents)}
    codes = np.fromiter(map(code.__getitem__, ids), np.intp, n)
    runs = np.flatnonzero(np.diff(frames, prepend=frames[0] - 1))
    # each agent's rows in frame order, from its first position in by_agent
    by_agent = np.argsort(codes, kind="stable")
    bounds = np.searchsorted(codes[by_agent], np.arange(len(agents) + 1))

    order, p, q, cost = sweep_edges(frames, x, y, mu)
    error = _first_error(
        graph_error(frames, codes, ids, x, y, order, p, q, cost),
        frames, ids, runs, by_agent, bounds, capacity,
    )
    if error is not None:
        raise error
    i, j = order[p], order[q]
    del order, p, q

    clo = _closeness(ids, x, y, i, j, cost)[by_agent]
    new = _new_neighbors(frames, codes, speed, i, j, runs, by_agent, bounds, capacity)
    # a running sum of integer counts is exact in float64
    total = np.cumsum(new[by_agent])
    offset = np.r_[0, total[bounds[1:-1] - 1]]
    deg = (total - np.repeat(offset, np.diff(bounds))).astype(float)
    firsts = frames[by_agent[bounds[:-1]]].tolist()
    return {
        agent_id: AgentSeries(f0, clo[start:end], deg[start:end])
        for agent_id, f0, start, end in zip(
            agents, firsts, bounds[:-1].tolist(), bounds[1:].tolist()
        )
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
