"""The three benchmark workloads: input generation, one timed iteration, outputs.

Every workload draws its inputs from ``variant(seed)``, one of
``VARIANTS`` input sets, so a reference recorded once per variant can
check the outputs of any seed. The program only ever sees the generated
inputs: scenario configs (``suite``), a scenario YAML (``highway_cli``)
or a positions-only trajectory CSV (``churn_analyze``).

Which layers each workload stresses or bypasses is written down in
``README.md`` next to this file and in ``BENCHMARK.json``.
"""

from __future__ import annotations

import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VARIANTS = 8

FRAME_RATE_HZ = 10.0
CAPACITY = 256  # drivestyle's default cumulative-adjacency capacity
MIN_FIT_SAMPLES = 3  # a quadratic fit needs three samples


def variant(seed: int) -> int:
    return seed % VARIANTS


@dataclass
class Outcome:
    """What one iteration did: operations, their failures, checked outputs."""

    attempted: int = 0
    failures: dict[str, str] = field(default_factory=dict)  # operation -> why
    outputs: dict = field(default_factory=dict)
    output_bytes: int = 0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# checked outputs: the report fields that ``evaluate`` reads, and TDE rows


def agent_fields(agents) -> dict:
    """Per agent: label, then (sle_max, t_sle, detected) per style, weaving count."""
    from drivestyle.styles import (
        STYLE_OVERSPEEDING,
        STYLE_OVERTAKE_LANE_CHANGE,
        STYLE_WEAVING,
    )

    out = {}
    for rep in agents:
        os_, ot, w = (
            rep.styles[STYLE_OVERSPEEDING],
            rep.styles[STYLE_OVERTAKE_LANE_CHANGE],
            rep.styles[STYLE_WEAVING],
        )
        out[rep.agent_id] = [
            rep.global_label,
            os_.sle_max, os_.t_sle, os_.detected,
            ot.sle_max, ot.t_sle, ot.detected,
            w.count, w.t_sle, w.detected,
        ]
    return out


def tde_rows(table) -> list:
    return [
        [r.style, r.mean_tde_s, r.maneuver_count, r.missing_count] for r in table.rows
    ]


def _close(a, b, tol: float) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=tol, abs_tol=tol)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], tol) for k in a)
    return a == b


def mismatches(outputs: dict, reference: dict, tol: float = 1e-9) -> list[str]:
    """Names of the operations whose outputs differ from the reference."""
    return sorted(
        op for op in outputs.keys() | reference.keys()
        if op not in outputs or op not in reference
        or not _close(outputs[op], reference[op], tol)
    )


# ---------------------------------------------------------------------------
# input shape: computed from the generated inputs, never from the program


def frame_windows(lo: int, hi: int, width: int, stride: int) -> list[tuple[int, int]]:
    """Windows [start, start + width] clamped to the run, as the pipeline lays them."""
    windows = []
    start = lo
    while True:
        win = (start, min(start + width, hi))
        if not windows or windows[-1] != win:
            windows.append(win)
        if win[1] >= hi:
            return windows
        start += stride


SHAPE_UNITS = {
    "input.rows": "count",
    "input.agents": "count",
    "input.max_concurrent": "count",
    "input.frames": "count",
    "input.agent_windows": "count",
    "input.full_window_share": "ratio",
    "input.ids_per_capacity": "ratio",
}


def input_shape(runs, window_s: float, stride_s: float) -> dict:
    """Shape counts over runs, each a dict ``agent -> (first frame, last frame)``.

    An agent-window is an (agent, window) pair with enough samples to
    fit; it is full when the agent is present for the whole window.
    """
    width = max(2, int(round(window_s * FRAME_RATE_HZ)))
    stride = max(1, int(round(stride_s * FRAME_RATE_HZ)))
    rows = agents = frames = agent_windows = full = max_concurrent = 0
    ids_per_capacity = 0.0
    for tracks in runs:
        lo = min(a for a, _ in tracks.values())
        hi = max(b for _, b in tracks.values())
        frames += hi - lo + 1
        agents += len(tracks)
        rows += sum(b - a + 1 for a, b in tracks.values())
        ids_per_capacity = max(ids_per_capacity, len(tracks) / CAPACITY)
        events = sorted([(a, 1) for a, _ in tracks.values()]
                        + [(b + 1, -1) for _, b in tracks.values()])
        present = 0
        for _, step in events:
            present += step
            max_concurrent = max(max_concurrent, present)
        for w0, w1 in frame_windows(lo, hi, width, stride):
            for a, b in tracks.values():
                samples = min(b, w1) - max(a, w0) + 1
                if samples >= MIN_FIT_SAMPLES:
                    agent_windows += 1
                    full += a <= w0 and b >= w1
    return {
        "input.rows": rows,
        "input.agents": agents,
        "input.max_concurrent": max_concurrent,
        "input.frames": frames,
        "input.agent_windows": agent_windows,
        "input.full_window_share": full / agent_windows if agent_windows else 0.0,
        "input.ids_per_capacity": ids_per_capacity,
    }


def _whole_run_tracks(config) -> dict:
    """The simulator emits every spawned agent at every frame."""
    last = config.frame_count() - 1
    return {s.agent_id: (0, last) for s in config.spawns}


# ---------------------------------------------------------------------------
# suite: calibration plus the 20-scenario TDE loop, in process


class Suite:
    """``calibrate_thresholds(calibration_scenarios())``, then 20 TDE scenarios.

    Variant v uses scenario seeds 5v .. 5v+4 for each of the four styles;
    variant 0 is the packaged ``tde_suite``.
    """

    name = "suite"
    runs_per_style = 5
    calibration_count = 4  # all packaged calibration scenarios

    def generate(self, seed: int, workdir: Path) -> dict:
        from drivestyle import scenarios as sc

        builders = (
            ("os", sc.overspeed_scenario),
            ("ot", sc.overtake_scenario),
            ("slc", sc.lane_change_scenario),
            ("w", sc.weaving_scenario),
        )
        first = variant(seed) * self.runs_per_style
        suite = [
            (f"{tag}_{s}", build(s))
            for tag, build in builders
            for s in range(first, first + self.runs_per_style)
        ]
        calibration = sc.calibration_scenarios()[: self.calibration_count]
        return {"calibration": calibration, "suite": suite}

    def shape(self, inputs: dict) -> dict:
        from drivestyle.scenarios import SUITE_STRIDE_S, SUITE_WINDOW_S

        configs = inputs["calibration"] + [cfg for _, cfg in inputs["suite"]]
        return input_shape(
            [_whole_run_tracks(c) for c in configs], SUITE_WINDOW_S, SUITE_STRIDE_S
        )

    def run(self, inputs: dict, outdir: Path) -> Outcome:
        # layers are reached through module attributes so a traced run can
        # wrap them; this is the loop scripts/run_tde_suite.py runs
        from drivestyle import calibrate, centrality, evaluation, pipeline, sim
        from drivestyle.scenarios import suite_analysis_params

        out = Outcome(attempted=1 + len(inputs["suite"]))
        fresh_dir(outdir)
        try:
            th = calibrate.calibrate_thresholds(
                inputs["calibration"], suite_analysis_params()
            )
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            out.failures["calibrate"] = repr(exc)
            out.failures.update((name, "not run") for name, _ in inputs["suite"])
            return out
        out.outputs["calibrate"] = [th.tau_degree, th.tau_closeness,
                                    th.weaving_min_sharpness]
        params = suite_analysis_params(th)
        for name, config in inputs["suite"]:
            try:
                result = sim.run_scenario(config)
                series = centrality.compute_series(
                    result.table, params.mu, capacity=params.capacity
                )
                report = pipeline.analyze_table(result.table, params, series=series)
                pipeline.report_to_json(report, outdir / f"{name}.json")
                annotations = evaluation.annotations_from_labels(
                    result.labels, result.table.frame_rate_hz
                )
                table = evaluation.evaluate_run(report.agents, annotations)
            except Exception as exc:  # noqa: BLE001
                out.failures[name] = repr(exc)
                continue
            out.outputs[name] = {"agents": agent_fields(report.agents),
                                 "tde": tde_rows(table)}
        out.output_bytes = dir_bytes(outdir)
        return out

    def collect(self, outdir: Path, out: Outcome) -> None:
        """Outputs are taken from memory inside ``run``."""


# ---------------------------------------------------------------------------
# CLI workloads


def _read_report(path: Path):
    from drivestyle.pipeline import report_from_json

    return report_from_json(str(path))


class HighwayCli:
    """A dense seeded highway through ``simulate -> analyze -> evaluate``.

    200 IDM agents, one in seven aggressive, on 3 lanes, evenly spaced
    over 2 km, 30 s at 10 Hz; analysed at the suite settings (1 s
    windows, 0.5 s stride). The seed is the scenario seed, which draws
    the conservatives' desired speeds.
    """

    name = "highway_cli"
    agents = 200
    lanes = 3
    length_m = 2000.0
    duration_s = 30.0
    window_s = 1.0
    stride_s = 0.5

    def config(self, seed: int):
        from drivestyle.sim import ScenarioConfig, SpawnSpec

        spacing = self.length_m / self.agents
        spawns = [
            SpawnSpec(f"h{i:03d}", "aggressive" if i % 7 == 0 else "conservative",
                      i % self.lanes, i * spacing, 25.0)
            for i in range(self.agents)
        ]
        return ScenarioConfig(
            lane_count=self.lanes,
            road_length_m=self.length_m,
            timestep_s=1.0 / FRAME_RATE_HZ,
            duration_s=self.duration_s,
            spawns=spawns,
            seed=variant(seed),
        )

    def generate(self, seed: int, workdir: Path) -> dict:
        from drivestyle.sim import save_scenario

        config = self.config(seed)
        path = fresh_dir(workdir / "input") / "highway.yaml"
        save_scenario(config, path)
        return {"scenario": path, "config": config}

    def shape(self, inputs: dict) -> dict:
        return input_shape(
            [_whole_run_tracks(inputs["config"])], self.window_s, self.stride_s
        )

    def run(self, inputs: dict, outdir: Path) -> Outcome:
        out = Outcome()
        fresh_dir(outdir)
        rate = repr(FRAME_RATE_HZ)
        commands = [
            ("simulate", ["simulate", "--scenario", str(inputs["scenario"]),
                          "--out", str(outdir)]),
            ("analyze", ["analyze", "--trajectories", str(outdir / "trajectories.csv"),
                         "--frame-rate", rate, "--window", repr(self.window_s),
                         "--stride", repr(self.stride_s), "--out", str(outdir)]),
            ("evaluate", ["evaluate", "--report", str(outdir / "report.json"),
                          "--labels", str(outdir / "labels.csv"), "--out", str(outdir)]),
        ]
        run_cli(commands, out)
        out.output_bytes = dir_bytes(outdir)
        return out

    def collect(self, outdir: Path, out: Outcome) -> None:
        """Read the checked fields back from the written artifacts."""
        if "analyze" not in out.outputs:
            return
        out.outputs["analyze"] = agent_fields(_read_report(outdir / "report.json").agents)
        if "evaluate" in out.outputs:
            rows = json.loads((outdir / "tde.json").read_text())["rows"]
            out.outputs["evaluate"] = [
                [r["style"], r["mean_tde_s"], r["maneuver_count"], r["missing_count"]]
                for r in rows
            ]


class ChurnAnalyze:
    """A generated churning recording through ``analyze`` at default windows.

    Vehicles enter a 500 m, 3-lane segment at random times and leave at
    its end: about 25 on the road at once and about 400 distinct ids
    over 5 min at 10 Hz, more than the 256-slot cumulative state holds.
    Each lane moves at its own constant speed and arrivals in a lane keep
    a minimum headway, so no two vehicles in a lane come within a vehicle
    length. The file holds positions only; ``ingest`` derives velocities.
    """

    name = "churn_analyze"
    duration_s = 300.0
    length_m = 500.0
    lane_speeds = (20.0, 25.0, 30.0)
    lane_width_m = 4.0
    arrivals_per_s = 1.25
    min_headway_s = 1.0
    lateral_noise_m = 0.05
    window_s = 5.0  # drivestyle's defaults: 5 s windows, 2.5 s stride
    stride_s = 2.5

    def tracks(self, seed: int) -> dict:
        """agent -> (lane, entry time); entries before 0 start the road full.

        Each lane gets a fixed number of arrivals at random times, every gap
        at least the minimum headway: a Poisson process conditioned on its
        count, so the input size barely changes from seed to seed.
        """
        rng = np.random.default_rng(1000 + variant(seed))
        lane_rate = self.arrivals_per_s / len(self.lane_speeds)
        entries = []
        for lane, speed in enumerate(self.lane_speeds):
            start = -self.length_m / speed
            count = round(lane_rate * (self.duration_s - start))
            slack = self.duration_s - start - count * self.min_headway_s
            offsets = np.sort(rng.uniform(0.0, slack, count))
            times = start + self.min_headway_s * np.arange(count) + offsets
            entries.extend((float(t), lane) for t in times)
        entries.sort()
        return {f"v{i:04d}": (lane, t) for i, (t, lane) in enumerate(entries)}

    def generate(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(2000 + variant(seed))
        frames = int(round(self.duration_s * FRAME_RATE_HZ))
        rows: list[tuple[int, str, float, float]] = []
        spans = {}
        for agent, (lane, t_in) in self.tracks(seed).items():
            v = self.lane_speeds[lane]
            first = max(0, math.ceil(t_in * FRAME_RATE_HZ))
            k = np.arange(first, frames)
            x = v * (k / FRAME_RATE_HZ - t_in)
            k, x = k[x < self.length_m], x[x < self.length_m]
            if k.size == 0:
                continue
            y = lane * self.lane_width_m + rng.normal(0.0, self.lateral_noise_m, k.size)
            spans[agent] = (int(k[0]), int(k[-1]))
            rows.extend(zip(k.tolist(), [agent] * k.size, x.tolist(), y.tolist()))
        rows.sort()
        lines = ["timestamp,agent_id,agent_type,x,y"]
        lines.extend(
            f"{k / FRAME_RATE_HZ!r},{a},car,{x!r},{y!r}" for k, a, x, y in rows
        )
        path = fresh_dir(workdir / "input") / "churn.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return {"trajectories": path, "spans": spans}

    def shape(self, inputs: dict) -> dict:
        return input_shape([inputs["spans"]], self.window_s, self.stride_s)

    def run(self, inputs: dict, outdir: Path) -> Outcome:
        out = Outcome()
        fresh_dir(outdir)
        run_cli([("analyze", ["analyze", "--trajectories", str(inputs["trajectories"]),
                              "--frame-rate", repr(FRAME_RATE_HZ),
                              "--out", str(outdir)])], out)
        out.output_bytes = dir_bytes(outdir)
        return out

    def collect(self, outdir: Path, out: Outcome) -> None:
        if "analyze" in out.outputs:
            out.outputs["analyze"] = agent_fields(
                _read_report(outdir / "report.json").agents
            )


def run_cli(commands, out: Outcome) -> None:
    """Run CLI commands in order; a failure also fails every later command.

    The commands' console output is kept in memory and reported only for
    a command that fails.
    """
    from drivestyle import cli  # cli.main is looked up per call, so tracing sees it

    out.attempted += len(commands)
    for i, (name, argv) in enumerate(commands):
        console = io.StringIO()
        try:
            with redirect_stdout(console), redirect_stderr(console):
                code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            code = repr(exc)
        if code != 0:
            why = f"exit code {code}" if isinstance(code, int) else code
            last = console.getvalue().strip().splitlines()[-1:]
            out.failures[name] = " ".join([why, *last])
            out.failures.update((later, "not run") for later, _ in commands[i + 1:])
            return
        out.outputs[name] = None  # filled by collect() after the timed region


WORKLOADS = {w.name: w for w in (Suite(), HighwayCli(), ChurnAnalyze())}
