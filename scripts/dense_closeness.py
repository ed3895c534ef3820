#!/usr/bin/env python3
"""Time compute_series on dense, lane-free traffic, rung by rung.

Each rung places its agents at uniform random positions on a 14 m wide
carriageway of the given length, with no lanes, and moves each agent at
its own constant speed for 20 frames at 10 Hz (seeded). Per rung it
prints the mean edges per frame, the largest connected component, the
best ``compute_series`` time per row over ``--repeat`` runs, and a
sha256 of every agent's series, so two versions of the program can be
compared for speed and for identical output.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from drivestyle.centrality import compute_series
from drivestyle.graph import sweep_edges
from drivestyle.ingest import TrajectoryTable

RUNGS = ((50, 1000.0), (50, 250.0), (100, 250.0), (200, 250.0))  # agents, length m
WIDTH_M = 14.0
FRAMES = 20
RATE_HZ = 10.0
MU = 100.0


def dense_table(agents: int, length_m: float, seed: int) -> TrajectoryTable:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, length_m, agents)
    y = rng.uniform(0.0, WIDTH_M, agents)
    speed = rng.uniform(15.0, 30.0, agents)
    t = np.arange(FRAMES) / RATE_HZ
    rows = agents * FRAMES
    return TrajectoryTable(
        frame=np.repeat(np.arange(FRAMES), agents),
        timestamp=np.repeat(t, agents),
        x=(x + speed * t[:, None]).ravel(),
        y=np.tile(y, FRAMES),
        vx=np.tile(speed, FRAMES),
        vy=np.zeros(rows),
        agent=np.tile(np.arange(agents), FRAMES),
        # "a10" sorts before "a9": id order is not row order
        agent_ids=[f"a{k}" for k in range(agents)],
        agent_type=np.full(rows, "car", dtype=object),
        frame_rate_hz=RATE_HZ,
    )


def edges_and_largest_component(table) -> tuple[int, int]:
    """The number of edges in all frames, and the largest component."""
    order, p, q, _ = sweep_edges(table.frame, table.x, table.y, MU)
    adj = {row: [] for row in range(len(table.frame))}
    for a, b in zip(order[p].tolist(), order[q].tolist()):
        adj[a].append(b)
        adj[b].append(a)
    seen, largest = set(), 0
    for v in adj:
        if v in seen:
            continue
        stack, size = [v], 0
        seen.add(v)
        while stack:
            size += 1
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        largest = max(largest, size)
    return len(p), largest


def digest(series, agent_ids) -> str:
    """sha256 of each agent's first frame and series, agents in ``agent_ids`` order."""
    h, index = hashlib.sha256(), {agent_id: k for k, agent_id in enumerate(series.agent_ids)}
    for agent_id in agent_ids:
        k = index[agent_id]
        rows = slice(series.bounds[k], series.bounds[k + 1])
        h.update(f"{agent_id},{series.first[k]};".encode())
        h.update(series.closeness[rows].tobytes())
        h.update(series.degree[rows].tobytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    print(f"{'agents':>6} {'length_m':>8} {'edges/frame':>11} {'largest':>7} "
          f"{'us/row':>8}  sha256")
    for agents, length_m in RUNGS:
        table = dense_table(agents, length_m, args.seed)
        edges, largest = edges_and_largest_component(table)
        edges /= FRAMES
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            series = compute_series(table, MU)
            best = min(best, time.perf_counter() - start)
        rows = agents * FRAMES
        print(f"{agents:>6} {length_m:>8.0f} {edges:>11.1f} {largest:>7} "
              f"{1e6 * best / rows:>8.1f}  {digest(series, table.agent_ids)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
