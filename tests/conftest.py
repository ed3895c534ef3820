import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from drivestyle.ingest import AgentFrame, TrajectoryTable


def make_frame(agent_id, x, y, vx=0.0, vy=0.0, t=0.0, agent_type="car"):
    return AgentFrame(
        timestamp=t,
        agent_id=agent_id,
        agent_type=agent_type,
        position=(float(x), float(y)),
        velocity=(float(vx), float(vy)),
    )


def records_table(frames, frame_rate_hz=1.0):
    """The TrajectoryTable of ``{frame index: [AgentFrame, ...]}``.

    Rows go in index order, then in each list's order; agent codes number
    the ids in order of first appearance. The one way tests and oracles
    build a table from records; ``table.frames`` gives them back.
    """
    rows = [(idx, fr) for idx in sorted(frames) for fr in frames[idx]]
    ids = list(dict.fromkeys(fr.agent_id for _, fr in rows))
    code = {agent_id: k for k, agent_id in enumerate(ids)}

    def column(values, dtype=float):
        return np.array(list(values), dtype=dtype)

    return TrajectoryTable(
        frame=column((idx for idx, _ in rows), np.int64),
        timestamp=column(fr.timestamp for _, fr in rows),
        x=column(fr.position[0] for _, fr in rows),
        y=column(fr.position[1] for _, fr in rows),
        vx=column(fr.velocity[0] for _, fr in rows),
        vy=column(fr.velocity[1] for _, fr in rows),
        agent=column((code[fr.agent_id] for _, fr in rows), np.intp),
        agent_ids=ids,
        agent_type=column((fr.agent_type for _, fr in rows), object),
        frame_rate_hz=frame_rate_hz,
    )


def make_table(tracks, frame_rate_hz=1.0):
    """Build a table from {agent_id: [(x, y, vx, vy), ...]} starting at frame 0."""
    frames = {}
    for agent_id, samples in tracks.items():
        for k, (x, y, vx, vy) in enumerate(samples):
            ts = k / frame_rate_hz
            frames.setdefault(k, []).append(
                make_frame(agent_id, x, y, vx, vy, t=ts)
            )
    return records_table(frames, frame_rate_hz)


@pytest.fixture
def tmp_out(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    return out
