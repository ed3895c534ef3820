"""Per-timestep traffic-graphs and the cumulative neighbor-history state.

Two vehicles are connected at an instant iff their squared Euclidean
distance is strictly below the proximity threshold ``mu`` (m^2); the
squared distance is the edge cost. The cumulative state remembers, per
agent, which neighbors it has already seen, so that the degree-centrality
chain can count only first encounters with slower vehicles.

``sweep_edges`` finds the edges of many frames at once, from a table's
frame and position columns: ``centrality.compute_series`` calls it once
for a whole run. ``build_instant_graph`` builds one frame's graph from
records with an ``agent_id`` and a ``position`` through it, and is pure.
``update_cumulative`` mutates shared state and must be applied in strict
frame order by a single writer. ``compute_series`` computes what these
two per-frame functions and ``centrality.closeness`` would, for a whole
run; the benchmark's tracer is their only reader in the package.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, ValidationError, require_positive
from .ingest import in_frame_order

DEFAULT_MU = 100.0  # m^2: a 10 m proximity radius
DEFAULT_CAPACITY = 256
_GRID_CELLS = 1 << 15  # cells of the grid of frames ``sweep_edges`` sorts at a time


@dataclass
class InstantGraph:
    """Undirected weighted proximity graph over one frame's agents.

    ``edges`` maps an (id, id) pair, ordered by string comparison, to the
    squared-distance cost; every cost lies strictly inside (0, mu).
    """

    positions: dict[str, tuple[float, float]]
    edges: dict[tuple[str, str], float]


def _edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


# Python floats overflow to inf and give nan silently; so do these arrays
@np.errstate(over="ignore", invalid="ignore")
def sweep_edges(frames: np.ndarray, x: np.ndarray, y: np.ndarray, mu: float):
    """Every same-frame vertex pair with squared distance < mu, as arrays.

    ``frames``, ``x`` and ``y`` hold one entry per vertex; ``frames``
    ascends, as a table's does. A stable sort by (frame run, x) puts each
    frame's vertices in one run, in x order, and leaves each frame in place:
    a row-wise ``argsort`` of a grid of frames, x padded with NaN (sorted
    last, as by ``np.lexsort``), where it holds at most twice the vertices;
    else ``np.lexsort``, by frame run numbers that, up to 2**16 runs, are a
    uint16 key that numpy sorts by radix. The sweep pairs sorted positions
    ``(p, p + k)`` for k = 1, 2, ...: a pair is an edge iff it is in one
    frame, ``dx*dx < mu`` and its cost ``(x_p - x_q)**2 + (y_p - y_q)**2``
    is below mu. A pair that fails the first two tests fails them at every
    larger offset too (x is sorted within a frame, frames are contiguous,
    and rounding is monotone), so the sweep ends at the first k where no
    pair passes them. Non-finite coordinates never pass ``dx*dx < mu``.

    Returns ``(order, p, q, cost)``: the sort order of the vertices, and
    each edge as sorted positions ``p < q`` with its cost.
    """
    key, step = frames, frames[1:] != frames[:-1]
    if np.count_nonzero(step) < 2**16:  # at most 2**16 runs: a uint16 key
        key = np.zeros(len(frames), np.uint16)
        np.cumsum(step, dtype=np.uint16, out=key[1:])
    starts = np.flatnonzero(np.insert(step, 0, True))[:len(frames)]
    sizes = np.diff(starts, append=len(frames))
    width = int(sizes.max(initial=1))
    if len(starts) * width > 2 * len(frames):
        order = np.lexsort((x, key))
    else:  # each frame a grid row, NaN past its end, at most _GRID_CELLS cells a group
        order, rows = np.empty(len(frames), np.intp), max(1, _GRID_CELLS // width)
        for g in range(0, len(starts), rows):
            first, size = starts[g:g + rows], sizes[g:g + rows]
            real = np.arange(width) < size[:, None]
            lo, hi = first[0], first[0] + size.sum()
            grid = np.full(real.shape, np.nan)
            grid[real] = x[lo:hi]
            order[lo:hi] = (first[:, None] + np.argsort(grid, axis=1, kind="stable"))[real]
    fs, xs, ys = key, x[order], y[order]  # the sort keeps each frame in place
    ps, qs, costs = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
    squares = np.empty(len(order))  # each offset's dx*dx, in one buffer
    for k in range(1, len(order)):
        dx2 = np.subtract(xs[:-k], xs[k:], out=squares[k:])
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


def graph_error(frames, codes, ids, x, y, order, p, q, cost):
    """``(frame, message)`` of the first failed graph check, or None.

    The vertices are given in frame order. Within a frame, as one graph
    is built: each vertex in turn for a duplicate id, then for a
    non-finite position, then each edge in sweep order for a zero cost,
    i.e. a shared position. Vertex r has id ``ids[codes[r]]``, and equal
    ids have equal codes; ``order, p, q, cost`` are ``sweep_edges``'
    result.
    """
    found = []  # (frame, check order within the frame, message)
    ordered = in_frame_order(frames, codes)  # then a duplicate follows its twin
    by_id = np.arange(len(frames)) if ordered else np.lexsort((codes, frames))
    a, b = by_id[:-1], by_id[1:]
    dup = b[(frames[a] == frames[b]) & (codes[a] == codes[b])]
    bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(y)))
    if dup.size or bad.size:
        row = min(np.concatenate([dup, bad]).tolist())
        if row in dup:
            message = f"duplicate agent_id {ids[codes[row]]!r} in frame"
        else:
            message = f"agent {ids[codes[row]]!r} has a non-finite position"
        found.append((int(frames[row]), 0, message))
    zero = np.flatnonzero(cost == 0.0)
    if zero.size:
        z = zero[np.lexsort((q[zero], p[zero]))[0]]
        a, b = order[p[z]], order[q[z]]
        found.append((
            int(frames[a]),
            1,
            f"agents {ids[codes[a]]!r} and {ids[codes[b]]!r} share a position; "
            "edge costs must be strictly positive",
        ))
    if not found:
        return None
    frame, _, message = min(found)
    return frame, message


def build_instant_graph(frame: Sequence, mu: float) -> InstantGraph:
    """Connect exactly the agent pairs with squared distance < mu.

    Pure function of (frame, mu), built by ``sweep_edges`` as one frame;
    ``frame`` holds one record per agent, with ``agent_id`` and
    ``position``.
    Raises ValidationError on an empty frame, a non-positive mu,
    duplicate agent ids, a non-finite position, or coincident agent
    positions (which would produce a zero-cost edge).
    """
    require_positive(mu, "mu")
    if not frame:
        raise ValidationError("cannot build a traffic-graph from an empty frame")
    ids = [fr.agent_id for fr in frame]
    code = {agent_id: k for k, agent_id in enumerate(ids)}
    codes = np.fromiter(map(code.__getitem__, ids), np.intp, len(ids))
    x, y = np.array([fr.position for fr in frame], dtype=float).T
    frames = np.zeros(len(ids), np.int64)
    order, p, q, cost = sweep_edges(frames, x, y, mu)
    error = graph_error(frames, codes, ids, x, y, order, p, q, cost)
    if error is not None:
        raise ValidationError(error[1])
    # edges in sweep order, as a pair-by-pair sweep would find them
    k = np.lexsort((q, p))
    i, j = order[p[k]].tolist(), order[q[k]].tolist()
    return InstantGraph(
        positions=dict(zip(ids, zip(x.tolist(), y.tolist()))),
        edges={
            _edge_key(ids[a], ids[b]): c for a, b, c in zip(i, j, cost[k].tolist())
        },
    )


@dataclass
class CumulativeAdjacency:
    """Per-agent seen-sets over at most ``capacity`` distinct agents.

    ``admitted`` holds every agent id observed since the last reset. The
    whole state resets to empty when admitting the current frame's agents
    would push the number of admitted ids past ``capacity``.
    """

    capacity: int = DEFAULT_CAPACITY
    admitted: set[str] = field(default_factory=set)
    seen: dict[str, set[str]] = field(default_factory=dict)
    reset_count: int = 0

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValidationError(f"capacity must be positive, got {self.capacity}")

    def reset(self) -> None:
        self.admitted.clear()
        self.seen.clear()
        self.reset_count += 1


def update_cumulative(
    state: CumulativeAdjacency,
    graph: InstantGraph,
    velocities: Mapping[str, float],
) -> dict[str, int]:
    """Fold one instant graph into the cumulative state.

    Returns per-agent counts of *new* neighbors: first-ever edge partners
    that were strictly slower than the agent at this instant. Every new
    edge partner becomes "seen" regardless of the speed comparison.

    Must be called in frame order by a single writer; raises
    ContractViolationError when a graph vertex lacks a velocity entry.
    """
    ids = graph.positions
    for agent_id in ids:
        if agent_id not in velocities:
            raise ContractViolationError(
                f"no velocity supplied for graph vertex {agent_id!r}"
            )

    incoming = sum(1 for i in ids if i not in state.admitted)
    if len(state.admitted) + incoming > state.capacity:
        if len(ids) > state.capacity:
            raise ValidationError(
                f"frame holds {len(ids)} agents, more than capacity {state.capacity}"
            )
        state.reset()
    state.admitted.update(ids)

    counts = {agent_id: 0 for agent_id in ids}
    for a, b in graph.edges:
        seen_a = state.seen.setdefault(a, set())
        seen_b = state.seen.setdefault(b, set())
        if b not in seen_a:
            if velocities[a] > velocities[b]:
                counts[a] += 1
            seen_a.add(b)
        if a not in seen_b:
            if velocities[b] > velocities[a]:
                counts[b] += 1
            seen_b.add(a)
    return counts
