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

DEFAULT_MU = 100.0  # m^2: a 10 m proximity radius
DEFAULT_CAPACITY = 256


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

    ``frames``, ``x`` and ``y`` hold one entry per vertex. A stable sort
    by (frame, x) puts each frame's vertices in one run, in x order, and
    the sweep pairs sorted positions ``(p, p + k)`` for k = 1, 2, ...: a
    pair is an edge iff it is in one frame, ``dx*dx < mu`` and its cost
    ``(x_p - x_q)**2 + (y_p - y_q)**2 < mu``. A pair that fails the first
    two tests fails them at every larger offset too (x is sorted within a
    frame, frames are contiguous, and rounding is monotone), so the sweep
    ends at the first k where no pair passes them. Non-finite coordinates
    never pass ``dx*dx < mu``.

    Returns ``(order, p, q, cost)``: the sort order of the vertices, and
    each edge as sorted positions ``p < q`` with its cost.
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
    by_id = np.lexsort((codes, frames))
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
