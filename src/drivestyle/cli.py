"""Command-line pipeline: simulate, analyze, evaluate, calibrate.

Every subcommand is idempotent for identical inputs and seed. Exit
codes: 0 success, 1 input/validation problem, 2 broken internal
invariant.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import __version__
from .calibrate import thresholds_from_runs
from .centrality import compute_series, series_to_csv
from .config import RunConfig, load_run_config, load_thresholds, save_thresholds
from .errors import ContractViolationError, DriveStyleError, ValidationError
from .evaluation import evaluate_run, parse_annotations
from .ingest import parse_trajectories, serialize_trajectories
from .pipeline import SCHEMA_VERSION, analyze_table, report_from_json, report_to_json
from .pipeline import windows_to_csv
from .sim import load_scenario, run_scenario, run_scenarios, write_labels


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivestyle",
        description="Trajectory-based driver-behavior analysis toolkit",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"drivestyle {__version__} (report schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write trajectories + labels")
    sim.add_argument("--scenario", required=True, help="scenario YAML file")
    sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sim.add_argument("--out", required=True, help="output directory")

    ana = sub.add_parser("analyze", help="run the style-estimation pipeline on a trajectory CSV")
    ana.add_argument("--trajectories", required=True, help="trajectory CSV file")
    ana.add_argument("--config", default=None, help="run-config YAML file")
    ana.add_argument("--frame-rate", type=float, default=None, dest="frame_rate")
    # each dest is the AnalysisParams field the flag overrides
    ana.add_argument("--mu", type=float, help="proximity threshold, m^2")
    ana.add_argument("--window", type=float, dest="window_s", help="analysis window, s")
    ana.add_argument("--stride", type=float, dest="stride_s", help="window stride, s")
    ana.add_argument("--epsilon", type=float, dest="epsilon_s", help="sharpness ball radius, s")
    ana.add_argument("--thresholds", dest="thresholds_file",
                     help="thresholds YAML (overrides config)")
    ana.add_argument("--out", required=True, help="output directory")

    ev = sub.add_parser("evaluate", help="compare a report against maneuver labels")
    ev.add_argument("--report", required=True, help="report JSON from analyze")
    ev.add_argument("--labels", required=True,
                    help="label CSV (ground-truth or annotation format)")
    ev.add_argument("--frame-rate", type=float, default=None, dest="frame_rate",
                    help="label frame rate; defaults to the report's rate")
    ev.add_argument("--out", required=True, help="output directory")

    cal = sub.add_parser("calibrate", help="derive thresholds from calibration scenarios")
    cal.add_argument("--config", required=True,
                     help="run-config YAML listing calibration_scenarios")
    cal.add_argument("--out", required=True, help="thresholds YAML to write")
    return parser


def _ensure_dir(path: str) -> Path:
    """Create the output directory; a one-line ValidationError if it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ValidationError(
            f"cannot create output directory {path!r}: {reason}"
        ) from None
    return out


def _warn_collisions(collisions, scenario: str = "") -> None:
    """One stderr line per collision, after ``scenario`` (a file name) if given."""
    where = f"{scenario}: " if scenario else ""
    for event in collisions:
        print(f"warning: {where}collision at frame {event.frame}: "
              f"{event.agent_id} into {event.leader_id}", file=sys.stderr)


def cmd_simulate(args) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config.seed = args.seed
    result = run_scenario(config)
    out = _ensure_dir(args.out)
    serialize_trajectories(result.table, out / "trajectories.csv")
    write_labels(result.labels, out / "labels.csv")
    _warn_collisions(result.collisions)
    print(f"wrote {out / 'trajectories.csv'} and {out / 'labels.csv'}")
    return 0


def _run_config_for_analyze(args) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if args.frame_rate is not None:
        cfg.frame_rate_hz = args.frame_rate
    given = {
        f.name: getattr(args, f.name)
        for f in fields(cfg.params)
        if getattr(args, f.name, None) is not None
    }
    if args.thresholds_file is not None:
        given["thresholds"] = load_thresholds(args.thresholds_file)
    cfg.params = replace(cfg.params, **given)
    return cfg


def cmd_analyze(args) -> int:
    cfg = _run_config_for_analyze(args)
    if cfg.frame_rate_hz is None:
        raise ValidationError(
            "frame rate required: pass --frame-rate or set frame_rate_hz in the config"
        )
    params = cfg.params
    table = parse_trajectories(args.trajectories, cfg.frame_rate_hz)
    series = compute_series(table, params.mu, capacity=params.capacity)
    report = analyze_table(table, params, series=series)
    del table  # the writers reuse the memory its columns held
    out = _ensure_dir(args.out)
    report_to_json(report, out / "report.json")
    windows_to_csv(report, out / "windows.csv")
    series_to_csv(series, out / "centrality.csv")
    aggressive = sum(1 for a in report.agents if a.global_label == "aggressive")
    print(
        f"analyzed {len(report.agents)} agents "
        f"({aggressive} aggressive); wrote {out / 'report.json'}"
    )
    return 0


def cmd_evaluate(args) -> int:
    report = report_from_json(args.report)
    rate = args.frame_rate if args.frame_rate is not None else report.frame_rate_hz
    annotations = parse_annotations(args.labels, rate)
    table = evaluate_run(report.agents, annotations)
    out = _ensure_dir(args.out)
    table.to_csv(out / "tde.csv")
    table.to_json(out / "tde.json")
    for warning in table.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not table.rows:
        print("warning: no labeled maneuvers to evaluate", file=sys.stderr)
    print(table.to_csv().rstrip())
    return 0


def cmd_calibrate(args) -> int:
    cfg = load_run_config(args.config)
    if not cfg.calibration_scenarios:
        raise ValidationError("run config lists no calibration_scenarios")
    base = Path(args.config).parent
    paths = [base / entry for entry in cfg.calibration_scenarios]  # an absolute entry stays
    results = run_scenarios([load_scenario(path) for path in paths])
    for path, result in zip(paths, results):
        _warn_collisions(result.collisions, str(path))
    thresholds = thresholds_from_runs(results, cfg.params)
    save_thresholds(thresholds, args.out)
    print(" ".join(f"{name}={value!r}" for name, value in vars(thresholds).items()))
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "evaluate": cmd_evaluate,
    "calibrate": cmd_calibrate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ContractViolationError, AssertionError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except (DriveStyleError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
