"""Per-timestep traffic-graphs and the cumulative neighbor-history state.

Two vehicles are connected at an instant iff their squared Euclidean
distance is strictly below the proximity threshold ``mu`` (m^2); the
squared distance is the edge cost. The cumulative state remembers, per
agent, which neighbors it has already seen, so that the degree-centrality
chain can count only first encounters with slower vehicles.

``build_instant_graph`` is pure and may run for many frames in parallel.
``update_cumulative`` mutates shared state and must be applied in strict
frame order by a single writer.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ContractViolationError, ValidationError, require_positive
from .ingest import AgentFrame

DEFAULT_MU = 100.0  # m^2: a 10 m proximity radius
DEFAULT_CAPACITY = 256


def squared_distance(p: tuple[float, float], q: tuple[float, float]) -> float:
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


@dataclass
class InstantGraph:
    """Undirected weighted proximity graph over one frame's agents.

    ``edges`` maps an (id, id) pair, ordered by string comparison, to the
    squared-distance cost; every cost lies strictly inside (0, mu).
    ``adjacency`` holds the same edges as per-vertex lists.
    """

    positions: dict[str, tuple[float, float]]
    edges: dict[tuple[str, str], float]

    @cached_property
    def adjacency(self) -> dict[str, list[tuple[str, float]]]:
        """Each vertex's (neighbor, cost) pairs, built once per graph."""
        adj: dict[str, list[tuple[str, float]]] = {v: [] for v in self.positions}
        for (a, b), cost in self.edges.items():
            adj[a].append((b, cost))
            adj[b].append((a, cost))
        return adj


def _edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def build_instant_graph(frame: Sequence[AgentFrame], mu: float) -> InstantGraph:
    """Connect exactly the agent pairs with squared distance < mu.

    Pure function of (frame, mu). Raises ValidationError on an empty
    frame, a non-positive mu, duplicate agent ids, a non-finite position,
    or coincident agent positions (which would produce a zero-cost edge).
    """
    require_positive(mu, "mu")
    if not frame:
        raise ValidationError("cannot build a traffic-graph from an empty frame")
    positions: dict[str, tuple[float, float]] = {}
    for fr in frame:
        if fr.agent_id in positions:
            raise ValidationError(f"duplicate agent_id {fr.agent_id!r} in frame")
        if not (math.isfinite(fr.position[0]) and math.isfinite(fr.position[1])):
            raise ValidationError(f"agent {fr.agent_id!r} has a non-finite position")
        positions[fr.agent_id] = fr.position

    # sort-and-sweep on x: once dx*dx >= mu, no later partner can connect,
    # since the cost dx*dx + dy*dy never rounds below dx*dx
    order = sorted(positions.items(), key=lambda item: item[1][0])
    edges: dict[tuple[str, str], float] = {}
    for i, (a, p) in enumerate(order):
        px = p[0]
        for j in range(i + 1, len(order)):
            b, q = order[j]
            dx = q[0] - px
            if dx * dx >= mu:
                break
            cost = squared_distance(p, q)
            if cost < mu:
                if cost == 0.0:
                    raise ValidationError(
                        f"agents {a!r} and {b!r} share a position; "
                        "edge costs must be strictly positive"
                    )
                edges[_edge_key(a, b)] = cost
    return InstantGraph(positions=positions, edges=edges)


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
