"""Discrete closeness and degree centrality time series.

Closeness is computed on the instantaneous graph (it must fall when an
agent leaves a cluster), degree on the cumulative neighbor-history state
(it counts distinct slower vehicles first encountered). On a graph that
is not connected, closeness is restricted to the agent's connected
component: (|C|-1) / sum of shortest-path costs within C, and 0 for a
singleton component.

``compute_series`` works on the whole run's columns at once: one edge
sweep over every frame, first encounters found by one sort, and the
closeness of every component of three or more vertices by Dijkstra from
all its vertices in lockstep, batched with the components of its size.
It returns one ``CentralitySeries`` of agent-major columns, which
``series_to_csv`` writes as they are: one ``frame,agent_id,closeness,degree``
row per agent-frame.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, ValidationError, require_positive
from .graph import DEFAULT_CAPACITY, InstantGraph, graph_error, sweep_edges
from .ingest import TrajectoryTable, float_texts, stable_order, write_csv

# Not called here: the per-frame forms of ``compute_series``. Their only
# reader is perfbench/tracer.py, which wraps them under these names.
from .graph import build_instant_graph, update_cumulative  # noqa: F401


class CentralitySeries(NamedTuple):
    """Every agent's centralities, agent-major, agents in id order.

    Agent k is ``agent_ids[k]``; its rows ``bounds[k]:bounds[k + 1]`` of
    ``closeness`` and ``degree`` sample frames ``first[k], first[k] + 1, ...``.
    """

    agent_ids: list[str]
    first: np.ndarray  # int64, one per agent
    bounds: np.ndarray  # int64, one per agent and one more
    closeness: np.ndarray
    degree: np.ndarray


def _ranks(ids) -> np.ndarray:
    """Each id's position in string order."""
    return np.argsort(sorted(range(len(ids)), key=ids.__getitem__))


def closeness(graph: InstantGraph, agent_id: str) -> float:
    """(|C|-1) / total shortest-path cost to the rest of the component.

    Returns 0.0 for an isolated vertex. Raises KeyError when the agent is
    not a vertex of the graph. One frame's form of ``compute_series``'s
    closeness, computed by the same ``_closeness``.
    """
    ids = list(graph.positions)
    index = {v: k for k, v in enumerate(ids)}
    k = index[agent_id]
    ends = np.array([(index[a], index[b]) for a, b in graph.edges], np.intp)
    ends = ends.reshape(-1, 2)
    cost = np.fromiter(graph.edges.values(), float, len(graph.edges))
    return float(_closeness(_ranks(ids), ends[:, 0], ends[:, 1], cost)[k])


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


def _lockstep(w: np.ndarray) -> np.ndarray:
    """Closeness of every vertex of m connected graphs, weights (m, C, C).

    Vertices are in id order; inf marks no edge. Dijkstra runs from every
    source at once: each step settles, per source, the unsettled vertex u
    of least distance and relaxes all by ``d_u + w[u]``, a heap Dijkstra's
    float operation. With positive costs no vertex settled on a tie or
    later can strictly improve one settled before, so the distances equal
    the heap's however ties break. They are added in id order.
    """
    m, c, _ = w.shape
    graph, source = np.arange(m)[:, None], np.arange(c)
    # the source itself settled: its distances are its weights (0.0 + w == w)
    d = w.copy()
    d[:, source, source] = 0.0
    settled = np.zeros_like(w)  # inf once settled, which argmin then skips
    settled[:, source, source] = np.inf
    key, relaxed = np.empty_like(w), np.empty_like(w)
    for _ in range(c - 1):
        u = np.add(d, settled, out=key).argmin(axis=2)
        settled[graph, source, u] = np.inf
        du = d[graph, source, u]
        # rows w[k, u] of the (m * C, C) view; "clip" (a no-op on these
        # indices) writes to out directly, where "raise" copies through a buffer
        np.take(w.reshape(m * c, c), (graph * c + u).ravel(), axis=0,
                out=relaxed.reshape(m * c, c), mode="clip")
        relaxed += du[..., None]
        np.minimum(d, relaxed, out=d)
    # a running sum adds in order; a source's own 0.0 changes nothing
    return (c - 1) / d.cumsum(axis=2)[..., -1]


# floats per (m, C, C) array of one _lockstep call; a component of more
# than sqrt(_BLOCK) vertices is a block of its own
_BLOCK = 8192


def _closeness(rank, i, j, cost) -> np.ndarray:
    """``closeness`` of every vertex of the graphs with edges ``(i, j, cost)``.

    ``rank`` orders each component's vertices as their ids sort. An
    isolated vertex scores 0.0, each end of an isolated edge ``1.0 /
    cost``; larger components go to ``_lockstep`` in blocks by size.
    """
    values = np.zeros(len(rank))
    degree = np.bincount(np.concatenate([i, j]), minlength=len(rank))
    pair = (degree[i] == 1) & (degree[j] == 1)
    values[i[pair]] = 1.0 / cost[pair]
    values[j[pair]] = 1.0 / cost[pair]

    # the rest, renumbered from 0, then ordered by component size, by
    # component and by id: each size's components are consecutive
    i, j, cost = i[~pair], j[~pair], cost[~pair]
    rows, ends = np.unique(np.concatenate([i, j]), return_inverse=True)
    li, lj = ends[: len(i)], ends[len(i) :]
    label = _components(len(rows), li, lj)
    order = np.lexsort((rank[rows], label, np.bincount(label)[label]))
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    sizes = np.diff(starts, append=len(order))
    slot, comp = np.empty(len(rows), np.intp), np.empty(len(rows), np.intp)
    slot[order] = np.arange(len(order)) - np.repeat(starts, sizes)
    comp[order] = np.repeat(np.arange(len(starts)), sizes)
    by_comp = np.argsort(comp[li], kind="stable")
    li, lj, cost = li[by_comp], lj[by_comp], cost[by_comp]
    edge_comp = comp[li]

    # np.unique(sizes) imports numpy.ma to look for a mask: 1 MB of peak RSS
    cuts = np.flatnonzero(np.diff(sizes, prepend=0, append=0)).tolist()
    for first, last in zip(cuts, cuts[1:]):
        c = int(sizes[first])
        m = max(1, _BLOCK // (c * c))
        for b0 in range(first, last, m):
            b1 = min(b0 + m, last)
            e = slice(*np.searchsorted(edge_comp, [b0, b1]))
            k, a, b = edge_comp[e] - b0, slot[li[e]], slot[lj[e]]
            w = np.full((b1 - b0, c, c), np.inf)
            w[k, a, b] = w[k, b, a] = cost[e]
            block = order[starts[b0] : starts[b0] + (b1 - b0) * c]
            values[rows[block]] = _lockstep(w).ravel()
    return values


def _first_error(graph, frames, codes, ids, runs, by_agent, bounds, capacity):
    """The error a frame-by-frame pass would raise first, or None.

    Frame by frame, that pass raises, within a frame: the failed graph
    check ``graph`` (``graph_error``'s result), then a frame of more than
    ``capacity`` agents, then an agent whose frames have a gap (it
    reappears after a frame without it). Row r is agent ``ids[codes[r]]``;
    ``runs`` are the first rows of the frames; ``by_agent`` orders the
    rows by agent, and ``bounds`` are each agent's first position in it,
    then the row count.
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
            f"agent {ids[codes[row]]!r} has a gap in its frames "
            f"before frame {frames[row]}"
        )))
    return min(found, key=lambda error: error[:2], default=(None, None, None))[2]


def _degree(frames, codes, vx, vy, i, j, runs, by_agent, bounds, capacity):
    """Per row in ``by_agent`` order, its agent's degree: the running count
    of first encounters with a strictly slower agent (exact in float64),
    speed being ``hypot(vx, vy)``.

    Ids never return after they leave, so a frame's ids that are not yet
    admitted are exactly its arrivals: a frame resets the state when the
    ids admitted since the last reset plus its arrivals pass
    ``capacity``, and one loop over the frames numbers the reset epochs.
    A pair first meets at its earliest edge ``(i, j)`` within an epoch,
    found by one sort.
    """
    sizes = np.diff(runs, append=len(frames))
    first_frames = np.searchsorted(runs, by_agent[bounds[:-1]], side="right") - 1
    arrivals = np.bincount(first_frames, minlength=len(runs))
    epoch = np.empty(len(runs), np.intp)
    current = admitted = 0
    for k, (size, new) in enumerate(zip(sizes.tolist(), arrivals.tolist())):
        if admitted + new > capacity:
            current += 1
            admitted = size
        else:
            admitted += new
        epoch[k] = current

    epochs = epoch[np.searchsorted(runs, i, side="right") - 1]
    low, high = np.minimum(codes[i], codes[j]), np.maximum(codes[i], codes[j])
    s = np.lexsort((frames[i], high, low, epochs))
    key = np.stack([epochs[s], low[s], high[s]])
    first = s[(np.diff(key, prepend=-1) != 0).any(axis=0)]
    a, b = i[first], j[first]
    # the speeds of the pairs' rows only, by math.hypot as the oracles'
    # speeds: np.hypot may differ in the last bit
    sa, sb = (np.fromiter(map(math.hypot, vx[r].tolist(), vy[r].tolist()), float, len(r))
              for r in (a, b))
    faster = np.concatenate([a[sa > sb], b[sb > sa]])
    total = np.bincount(faster, minlength=len(frames))[by_agent]
    np.cumsum(total, out=total)
    total -= np.repeat(np.r_[0, total[bounds[1:-1] - 1]], np.diff(bounds))
    return total.astype(float)


def compute_series(
    table: TrajectoryTable,
    mu: float,
    capacity: int = DEFAULT_CAPACITY,
) -> CentralitySeries:
    """Every agent's closeness and degree series over the table's whole span.

    Covers the frames present, in order (never the empty indices between
    them): instantaneous closeness per agent present, and the running sum
    of each agent's new-neighbor counts on the cumulative state, as
    ``update_cumulative`` applied frame by frame would count them. The
    degree chain must start at the beginning of the run to be meaningful,
    so callers slice the result rather than re-running on sub-windows.
    Agents come in id order, whatever order ``table.agent_ids`` holds.

    The whole run is handled as the table's columns: one ``sweep_edges``
    gives every frame's edges, ``_closeness`` their closeness and
    ``_degree`` the degree series. Raises ValidationError on a table with
    no rows, and otherwise the error a frame-by-frame pass would raise
    first (see ``_first_error``).
    """
    frames = table.frame
    if not len(frames):
        raise ValidationError("cannot compute centralities on an empty table")
    if capacity <= 0:
        raise ValidationError(f"capacity must be positive, got {capacity}")
    require_positive(mu, "mu")
    agents, codes, x, y = table.agent_ids, table.agent, table.x, table.y
    runs = np.flatnonzero(np.diff(frames, prepend=frames[0] - 1))
    # each agent's rows in frame order, agents in id order, from its first
    # position in by_agent
    ranks = _ranks(agents)
    by_agent = stable_order(ranks[codes], len(agents))
    bounds = np.searchsorted(ranks[codes[by_agent]], np.arange(len(agents) + 1))

    order, p, q, cost = sweep_edges(frames, x, y, mu)
    error = _first_error(
        graph_error(frames, codes, agents, x, y, order, p, q, cost),
        frames, codes, agents, runs, by_agent, bounds, capacity,
    )
    if error is not None:
        raise error
    i, j = order[p], order[q]
    # row-length arrays are dropped once they are read for the last time
    del order, p, q
    deg = _degree(frames, codes, table.vx, table.vy, i, j, runs, by_agent, bounds, capacity)
    clo = _closeness(ranks[codes], i, j, cost)[by_agent]
    return CentralitySeries(sorted(agents), frames[by_agent[bounds[:-1]]],
                            bounds.astype(np.int64, copy=False), clo, deg)


def series_to_csv(series: CentralitySeries, dest=None) -> str:
    """Write series as ``frame,agent_id,closeness,degree`` CSV for plotting.

    One row per agent-frame: agents in id order, each agent's frames
    ascending from its first, values by ``float_texts`` (degree, a running
    count, as a float), written by ``ingest.write_csv``. Each frame number
    is formatted once where the run spans no more frames than it has rows.
    Returns the text, or ``""`` once it is written to the path ``dest``.
    """
    agents = series.agent_ids
    code = np.repeat(np.arange(len(agents)), np.diff(series.bounds))
    frame = np.arange(len(code)) + (series.first - series.bounds[:-1])[code]
    lo, hi = (int(frame.min()), int(frame.max())) if len(frame) else (0, -1)
    names = list(map(str, range(lo, hi + 1))) if hi - lo < len(frame) else None

    def texts(rows):
        frames = (map(str, frame[rows].tolist()) if names is None
                  else map(names.__getitem__, (frame[rows] - lo).tolist()))
        return (frames, map(agents.__getitem__, code[rows].tolist()),
                float_texts(series.closeness[rows]), float_texts(series.degree[rows]))

    return write_csv(dest, "frame,agent_id,closeness,degree", len(code), texts,
                     "centrality series")
