#!/usr/bin/env python3
"""Lane-keeping controls: vehicles that keep their lane at a constant speed.

No vehicle of the benchmark's ``churn_analyze`` recording changes lane or
speed, so none should be labelled aggressive. This script builds five
variants of that recording (``perfbench/workloads.ChurnAnalyze`` at seed
7) by overriding the generator's lane speeds, lane width and lateral
noise on the instance, parses each generated CSV and analyses it at the
``AnalysisParams()`` defaults. Per control it prints the agents labelled
aggressive out of the agents analysed, and the agents whose overspeeding,
overtaking/sudden-lane-change and weaving styles are detected. It
measures and asserts nothing (see ROADMAP item 17); it edits nothing
under ``perfbench/``.
"""

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from drivestyle.ingest import parse_trajectories  # noqa: E402
from drivestyle.pipeline import AnalysisParams, analyze_table  # noqa: E402
from drivestyle.styles import (  # noqa: E402
    LABEL_AGGRESSIVE,
    STYLE_OVERSPEEDING,
    STYLE_OVERTAKE_LANE_CHANGE,
    STYLE_WEAVING,
)
from workloads import FRAME_RATE_HZ, ChurnAnalyze  # noqa: E402

# name -> the generator attributes it overrides; all but the first without
# lateral noise
CONTROLS = {
    "as is": {},
    "no lateral noise": {"lateral_noise_m": 0.0},
    "no passing, lanes at 25/25/25": {"lateral_noise_m": 0.0, "lane_speeds": (25.0,) * 3},
    "no cross-lane edges, 12 m lanes": {"lateral_noise_m": 0.0, "lane_width_m": 12.0},
    "neither": {"lateral_noise_m": 0.0, "lane_speeds": (25.0,) * 3, "lane_width_m": 12.0},
}
STYLES = {
    "overspeeding": STYLE_OVERSPEEDING,
    "overtaking/SLC": STYLE_OVERTAKE_LANE_CHANGE,
    "weaving": STYLE_WEAVING,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        for name, overrides in CONTROLS.items():
            workload = ChurnAnalyze()
            for attribute, value in overrides.items():
                setattr(workload, attribute, value)
            inputs = workload.generate(args.seed, Path(tmp) / "control")
            table = parse_trajectories(inputs["trajectories"], FRAME_RATE_HZ)
            agents = analyze_table(table, AnalysisParams()).agents
            aggressive = sum(a.global_label == LABEL_AGGRESSIVE for a in agents)
            detected = ", ".join(
                f"{label} {sum(a.styles[style].detected for a in agents)}"
                for label, style in STYLES.items()
            )
            print(f"{name}: {aggressive}/{len(agents)} ({detected})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
