#!/usr/bin/env python3
"""Run the 20-scenario timing benchmark end to end.

Calibrates thresholds on the packaged conservative-only scenarios, runs
the four-style scenario suite through simulate -> analyze -> evaluate,
and prints the per-style mean time deviation error. Per scenario it also
prints each labelled subject's rank among all agents on its style's
value (the SLE maximum; the weaving count for W), with its exact ties
and its relative gap to the best other agent, its ``detected`` flag,
and how many unlabelled agents are labelled aggressive. With --out,
every intermediate artifact (scenario YAML, trajectories, labels,
report, window fits, TDE table) is written per scenario.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from drivestyle.calibrate import calibrate_thresholds
from drivestyle.evaluation import CODE_TO_STYLE, annotations_from_labels, evaluate_run
from drivestyle.ingest import serialize_trajectories
from drivestyle.pipeline import analyze_table, report_to_json, windows_to_csv
from drivestyle.scenarios import calibration_scenarios, suite_analysis_params, tde_suite
from drivestyle.sim import run_scenario, save_scenario, write_labels
from drivestyle.styles import LABEL_AGGRESSIVE, STYLE_WEAVING


def subject_rank(report, label):
    """(rank, exact ties, relative gap, detected) of ``label``'s agent on its style.

    The value is the style's SLE maximum (the weaving count for W). Rank 1
    is the largest; ties are the other agents with exactly the subject's
    value; the gap is (value - best other) / the larger magnitude, 0 when
    both are 0, so it is negative below the leader.
    """
    style = CODE_TO_STYLE[label.style]
    key = "count" if style == STYLE_WEAVING else "sle_max"
    mine = report.agent(label.agent_id).styles[style]
    others = [getattr(a.styles[style], key) for a in report.agents
              if a.agent_id != label.agent_id]
    value, best = getattr(mine, key), max(others, default=0)
    scale = max(abs(value), abs(best))
    return (1 + sum(v > value for v in others), sum(v == value for v in others),
            (value - best) / scale if scale else 0.0, mine.detected)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="directory for all artifacts")
    parser.add_argument("--runs-per-style", type=int, default=5)
    args = parser.parse_args()

    started = time.time()
    print("calibrating thresholds on conservative-only scenarios ...")
    thresholds = calibrate_thresholds(calibration_scenarios(), suite_analysis_params())
    print(
        f"  tau_degree={thresholds.tau_degree:.4g} "
        f"tau_closeness={thresholds.tau_closeness:.4g} "
        f"weaving_min_sharpness={thresholds.weaving_min_sharpness:.4g}"
    )
    params = suite_analysis_params(thresholds)

    out = Path(args.out) if args.out else None
    per_style: dict[str, list[float]] = {}
    ranks: dict[str, list[tuple]] = {}
    bystanders = bystanders_aggressive = 0
    for scenario in tde_suite(args.runs_per_style):
        result = run_scenario(scenario.config)
        report = analyze_table(result.table, params)
        annotations = annotations_from_labels(result.labels, result.table.frame_rate_hz)
        table = evaluate_run(report.agents, annotations)
        for row in table.rows:
            per_style.setdefault(row.style, []).append(row.mean_tde_s)
        if out is not None:
            run_dir = out / scenario.name
            run_dir.mkdir(parents=True, exist_ok=True)
            save_scenario(scenario.config, run_dir / "scenario.yaml")
            serialize_trajectories(result.table, run_dir / "trajectories.csv")
            write_labels(result.labels, run_dir / "labels.csv")
            report_to_json(report, run_dir / "report.json")
            windows_to_csv(report, run_dir / "windows.csv")
            table.to_csv(run_dir / "tde.csv")
        shown = ", ".join(
            f"{row.style}={row.mean_tde_s:.3f}s" for row in table.rows
            if row.mean_tde_s is not None
        )
        print(f"  {scenario.name}: {shown}")
        for label in result.labels:
            rank, ties, gap, detected = subject_rank(report, label)
            ranks.setdefault(label.style, []).append((rank, ties, detected))
            print(f"    {label.style} subject {label.agent_id}: rank {rank} of "
                  f"{len(report.agents)}, {ties} exact ties, gap {gap:+.3g}, "
                  f"detected {detected}")
        labelled = {label.agent_id for label in result.labels}
        unlabelled = [a for a in report.agents if a.agent_id not in labelled]
        aggressive = sum(a.global_label == LABEL_AGGRESSIVE for a in unlabelled)
        bystanders += len(unlabelled)
        bystanders_aggressive += aggressive
        print(f"    unlabelled agents labelled aggressive: {aggressive} of {len(unlabelled)}")

    print(f"\nper-style mean TDE over {args.runs_per_style} scenarios each:")
    worst = 0.0
    for style in ("OS", "OT", "SLC", "W"):
        values = [v for v in per_style.get(style, []) if v is not None]
        missing = sum(1 for v in per_style.get(style, []) if v is None)
        mean = float(np.mean(values)) if values else float("nan")
        worst = max(worst, mean)
        print(f"  {style:>3}: {mean:.3f} s over {len(values)} scenarios"
              + (f" ({missing} missing)" if missing else ""))
    print("\nsubjects on their style's value:")
    for style, rows in ranks.items():
        print(f"  {style:>3}: rank 1 in {sum(r == 1 for r, _, _ in rows)}/{len(rows)}, "
              f"tied in {sum(t > 0 for _, t, _ in rows)}, "
              f"detected {sum(d for _, _, d in rows)}/{len(rows)}")
    print(f"unlabelled agents labelled aggressive: {bystanders_aggressive} of {bystanders}")
    print(f"\ntotal wall time {time.time() - started:.1f} s; "
          f"worst style mean {worst:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
