"""Outside-in tracing of drivestyle's layers, for the traced run only.

Each layer is timed by replacing, for the duration of a ``Tracer``
context, the public name its caller looks up: ``drivestyle.pipeline.fit``
is what ``analyze_table`` calls, ``drivestyle.centrality.closeness`` what
``compute_series`` calls, and so on. Nothing inside ``src/`` changes.

Each wrapped call records a span (id, parent span, name, start, end) in
memory; ``Tracer.write`` saves them with the run id when the run ends.
A span name's self time is its spans' durations minus the time their
direct child spans cover, so the self times of all names plus the time
outside any span add up to the traced wall time. Counts (edges, resets,
skipped windows, alpha fallbacks, ...) come from call arguments and
return values only.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _rows(table) -> int:
    return sum(len(frame) for frame in table.frames.values())


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


# count hooks: hook(counts, args, kwargs, result, before), where ``before``
# is what the target's before-hook returned ahead of the call


def _count_sim(c, args, kwargs, result, before):
    c["sim.agent_steps"] += _rows(result.table)
    c["sim.collisions"] += len(result.collisions)


def _count_parse(c, args, kwargs, result, before):
    c["ingest.rows"] += _rows(result)
    c["ingest.mb"] += os.path.getsize(_arg(args, kwargs, 0, "source")) / 1e6


def _count_serialize(c, args, kwargs, result, before):
    c["ingest.rows"] += _rows(_arg(args, kwargs, 0, "table"))
    c["ingest.mb"] += len(result) / 1e6


def _count_graph(c, args, kwargs, result, before):
    c["graph.vertices"] += len(result.positions)
    c["graph.edges"] += len(result.edges)


def _resets_before(c, args, kwargs):
    return _arg(args, kwargs, 0, "state").reset_count


def _count_resets(c, args, kwargs, result, before):
    c["centrality.resets"] += _arg(args, kwargs, 0, "state").reset_count - before


def _count_fit(c, args, kwargs, result, before):
    series = _arg(args, kwargs, 0, "series")
    policy = _arg(args, kwargs, 1, "alpha_policy")
    w0, w1 = series.window
    c["regression.fits"] += 1
    c["pipeline.full_windows"] += len(series.values) == w1 - w0 + 1
    c["regression.kappa_max"] = max(c["regression.kappa_max"], result.condition_number)
    # GridSearchAlpha falls back to the top of its grid when no alpha meets the cap
    grid = getattr(policy, "grid", None)
    if grid and result.alpha == grid[-1] and result.condition_number > policy.cap:
        c["regression.alpha_fallbacks"] += 1


def _count_sle(c, args, kwargs, result, before):
    c["styles.sle_samples"] += len(result.sle_curve)


def _count_windows(c, args, kwargs, result, before):
    c["pipeline.windows"] += len(result)


def _windows_before(c, args, kwargs):
    return c["pipeline.windows"]


def _count_analyze(c, args, kwargs, result, before):
    # every agent is examined in every window laid out by this call
    examined = len(result.agents) * (c["pipeline.windows"] - before)
    c["pipeline.agent_windows"] += examined
    c["regression.skipped"] += examined - sum(len(a.windows) for a in result.agents)


def _count_report(c, args, kwargs, result, before):
    c["pipeline.report_mb"] += len(result) / 1e6


def _count_evaluate(c, args, kwargs, result, before):
    c["evaluation.maneuvers"] += sum(r.maneuver_count for r in result.rows)
    c["evaluation.missing"] += sum(r.missing_count for r in result.rows)


def _count_calibrate(c, args, kwargs, result, before):
    c["calibrate.scenarios"] += len(_arg(args, kwargs, 0, "scenarios"))


def _cli_command(args, kwargs) -> str:
    return f"cli.{_arg(args, kwargs, 0, 'argv')[0]}_s"


_SIM = ("sim.s", _count_sim, None)
_SERIES = ("centrality.s", None, None)
_ANALYZE = ("pipeline.s", _count_analyze, _windows_before)
_REPORT = ("pipeline.report_write_s", _count_report, None)
_EVALUATE = ("evaluation.s", _count_evaluate, None)

# (module, public name, span name, count hook, before hook). A name is
# wrapped in each module that calls it: the CLI, calibrate, the pipeline,
# centrality, or, for the defining module, this benchmark's suite loop.
TARGETS = [
    ("drivestyle.sim", "run_scenario", *_SIM),
    ("drivestyle.calibrate", "run_scenario", *_SIM),
    ("drivestyle.cli", "run_scenario", *_SIM),
    ("drivestyle.cli", "parse_trajectories", "ingest.parse_s", _count_parse, None),
    ("drivestyle.cli", "serialize_trajectories", "ingest.serialize_s",
     _count_serialize, None),
    ("drivestyle.centrality", "build_instant_graph", "graph.s", _count_graph, None),
    ("drivestyle.centrality", "update_cumulative", "centrality.cumulative_s",
     _count_resets, _resets_before),
    ("drivestyle.centrality", "closeness", "centrality.closeness_s", None, None),
    ("drivestyle.centrality", "compute_series", *_SERIES),
    ("drivestyle.pipeline", "compute_series", *_SERIES),
    ("drivestyle.cli", "compute_series", *_SERIES),
    ("drivestyle.pipeline", "frame_windows", "pipeline.s", _count_windows, None),
    ("drivestyle.pipeline", "fit", "regression.s", _count_fit, None),
    ("drivestyle.pipeline", "sle_sie", "styles.s", _count_sle, None),
    ("drivestyle.pipeline", "detect_weaving", "styles.s", None, None),
    ("drivestyle.pipeline", "classify", "styles.classify_s", None, None),
    ("drivestyle.pipeline", "analyze_table", *_ANALYZE),
    ("drivestyle.calibrate", "analyze_table", *_ANALYZE),
    ("drivestyle.cli", "analyze_table", *_ANALYZE),
    ("drivestyle.pipeline", "report_to_json", *_REPORT),
    ("drivestyle.cli", "report_to_json", *_REPORT),
    ("drivestyle.cli", "report_from_json", "pipeline.report_read_s", None, None),
    ("drivestyle.cli", "series_to_csv", "pipeline.series_csv_s", None, None),
    ("drivestyle.evaluation", "evaluate_run", *_EVALUATE),
    ("drivestyle.cli", "evaluate_run", *_EVALUATE),
    ("drivestyle.calibrate", "calibrate_thresholds", "calibrate.s",
     _count_calibrate, None),
    ("drivestyle.cli", "main", _cli_command, None, None),
]

# span names whose self times partition the traced wall time, with the
# time outside every span
SELF_TIMES = [
    "sim.s", "ingest.parse_s", "ingest.serialize_s", "graph.s",
    "centrality.s", "centrality.closeness_s", "centrality.cumulative_s",
    "regression.s", "styles.s", "styles.classify_s",
    "pipeline.s", "pipeline.report_write_s", "pipeline.report_read_s",
    "pipeline.series_csv_s", "evaluation.s", "calibrate.s",
    "cli.simulate_s", "cli.analyze_s", "cli.evaluate_s",
]

# counts and other quantities taken from arguments and return values
COUNTS = {
    "sim.agent_steps": "count", "sim.collisions": "count",
    "ingest.rows": "count", "ingest.mb": "MB",
    "graph.vertices": "count", "graph.edges": "count",
    "centrality.resets": "count",
    "regression.fits": "count", "regression.skipped": "count",
    "regression.alpha_fallbacks": "count", "regression.kappa_max": "ratio",
    "styles.sle_samples": "count",
    "pipeline.agent_windows": "count", "pipeline.full_window_share": "ratio",
    "pipeline.report_mb": "MB",
    "evaluation.maneuvers": "count", "evaluation.missing": "count",
    "calibrate.scenarios": "count",
}


class Tracer:
    """Wraps every target while entered; one instance traces one iteration."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (span id, parent id or -1, name, start, end)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, count, before in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, count, before))
            self._restore.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _wrap(self, func, name, count, before):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            token = before(counts, args, kwargs) if before else None
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (span_id, parent, span_name, start, end)
            if count:
                count(counts, args, kwargs, result, token)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children's durations."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            out[name] += end - start - child[span_id]
        return out

    def covered(self) -> float:
        """Total duration of the top-level spans."""
        return sum(end - start for _, parent, _, start, end in self.spans if parent < 0)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer values of this iteration, given its traced wall time."""
        times = self.self_times()
        unknown = set(times) - set(SELF_TIMES)
        if unknown:
            raise ValueError(f"spans outside the layer list: {sorted(unknown)}")
        out = {name: times.get(name, 0.0) for name in SELF_TIMES}
        out["unattributed_s"] = wall_s - self.covered()
        c = self.counts
        fits = c["regression.fits"]
        c["pipeline.full_window_share"] = c["pipeline.full_windows"] / fits if fits else 0.0
        out.update({name: float(c[name]) for name in COUNTS})
        return out

    def write(self, path: Path) -> None:
        """Append this iteration's spans as CSV rows, times relative to the first."""
        origin = self.spans[0][3] if self.spans else 0.0
        new = not path.exists()
        with open(path, "a", encoding="utf-8") as fh:
            if new:
                fh.write("run_id,span_id,parent_id,name,start_s,end_s\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(f"{self.run_id},{span_id},{parent},{name},"
                         f"{start - origin:.9f},{end - origin:.9f}\n")
