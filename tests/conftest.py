import sys
from pathlib import Path

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


def make_table(tracks, frame_rate_hz=1.0):
    """Build a table from {agent_id: [(x, y, vx, vy), ...]} starting at frame 0."""
    frames = {}
    for agent_id, samples in tracks.items():
        for k, (x, y, vx, vy) in enumerate(samples):
            ts = k / frame_rate_hz
            frames.setdefault(k, []).append(
                make_frame(agent_id, x, y, vx, vy, t=ts)
            )
    frames = {k: frames[k] for k in sorted(frames)}
    return TrajectoryTable(frames=frames, frame_rate_hz=frame_rate_hz)


@pytest.fixture
def tmp_out(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    return out
