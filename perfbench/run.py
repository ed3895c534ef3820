#!/usr/bin/env python3
"""drivestyle benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository: the program is imported from its
``src/``. Set-up (a fresh interpreter importing ``drivestyle.cli``, then
generating the workload's inputs from ``--seed``) is repeated
``SETUP_REPEATS`` times. Then the workload runs iteration after
iteration for about ``--seconds`` (at least once; see ``past``), each
iteration's outputs checked against ``reference/<workload>.json``.
Every timing is taken with a ``speed.SpeedProbe`` and reported in
seconds at nominal machine speed (see ``speed.py``), so that the drift
of a shared host's speed does not show as a change of the program.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends the
first half of the time untraced and the second half with every layer
wrapped (see ``tracer.py``), and reports the per-layer metrics, the input
shape, and the tracing overhead. Timings are medians over iterations;
a summary with quartiles and sample counts precedes the result, which is
the last line of standard output: one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads; children inherit
from speed import INTERVAL_S, SpeedProbe, speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5
SETUP_BRACKET = 25  # probes before and after each set-up, which runs a child

END_TO_END_UNITS = {
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    from tracer import COUNTS, SELF_TIMES
    from workloads import SHAPE_UNITS

    times = SELF_TIMES + ["unattributed_s", "trace.wall_s", "trace.overhead_s"]
    return {name: "s" for name in times} | COUNTS | SHAPE_UNITS


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fresh_import() -> None:
    """A fresh interpreter imports the CLI module, as each command run does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import drivestyle.cli"],
                   env=env, cwd=ROOT, check=True)


class Runner:
    """Times iterations of one workload and checks each one's outputs."""

    def __init__(self, workload, inputs, reference: dict, workdir: Path):
        from workloads import mismatches

        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.outdir = workdir / "out"
        self.mismatches = mismatches
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb: float | None = None
        self.output_mb: list[float] = []
        self.outputs: list[dict] = []

    def iterate(self, probed: bool = True) -> SpeedProbe:
        """Runs and checks one iteration; a traced one runs without probes."""
        with SpeedProbe(INTERVAL_S if probed else 0) as timer:
            outcome = self.workload.run(self.inputs, self.outdir)
        if self.peak_rss_mb is None:
            # read before any output check runs, so checks never count
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.workload.collect(self.outdir, outcome)
        failed = set(outcome.failures) | set(
            self.mismatches(outcome.outputs, self.reference)
        )
        self.attempted += outcome.attempted
        self.failures.extend(f"{op}: {outcome.failures.get(op, 'output differs')}"
                             for op in sorted(failed))
        self.output_mb.append(outcome.output_bytes / 1e6)
        self.outputs.append(outcome.outputs)
        return timer

    def repeat(self, until: float, clock_start: float) -> list[SpeedProbe]:
        timers = [self.iterate()]
        while not past(until, clock_start, timers[-1].wall):
            timers.append(self.iterate())
        return timers


def past(until: float, clock_start: float, last_wall: float) -> bool:
    """True when another iteration would end over half an iteration late."""
    return perf_counter() - clock_start + last_wall / 2 >= until


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path,
            reference: dict | None = None) -> dict:
    """Set up, run and check one workload; returns the result and its summary."""
    from tracer import Tracer
    import drivestyle.cli  # noqa: F401 - imported once before set-up is timed

    setups = []
    for _ in range(SETUP_REPEATS):
        with SpeedProbe(interval=0, bracket=SETUP_BRACKET) as timer:
            fresh_import()
            inputs = workload.generate(seed, workdir)
        setups.append(timer)
    setup = [t.seconds for t in setups]
    if reference is None:
        reference = load_reference(workload.name, seed)
    runner = Runner(workload, inputs, reference, workdir)

    clock = perf_counter()
    timers = runner.repeat(seconds / 2 if trace else seconds, clock)
    walls = [t.seconds for t in timers]
    summary = {
        "wall_s": walls,
        "raw_wall_s": [t.wall - t.busy for t in timers],
        "speed": [speed(t.samples) for t in timers],
        "setup_s": setup,
        "raw_setup_s": [t.wall for t in setups],
    }
    rows = workload.shape(inputs)["input.rows"]
    if not trace:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "rows_per_s": rows / wall,
            "peak_rss_mb": runner.peak_rss_mb,
            "output_mb": statistics.median(runner.output_mb),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS
    else:
        tracers, layers = [], []
        while not layers or not past(seconds, clock, layers[-1]["trace.wall_s"]):
            with Tracer(f"{workload.name}-{seed}-{len(layers)}") as tracer:
                traced = runner.iterate(probed=False).wall
            tracers.append(tracer)
            layers.append(tracer.metrics(traced) | {"trace.wall_s": traced})
        spans = workdir / "spans.csv"
        spans.unlink(missing_ok=True)
        for tracer in tracers:
            tracer.write(spans)
        metrics = {name: statistics.median(it[name] for it in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - statistics.median(summary["raw_wall_s"]))
        metrics.update(workload.shape(inputs))
        summary["trace.wall_s"] = [it["trace.wall_s"] for it in layers]
        units = per_layer_units()
    failed = len(runner.failures)
    return {
        "result": {
            "correct": failed == 0,
            "attempted": runner.attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        },
        "summary": summary,
        "failures": runner.failures,
        "outputs": runner.outputs,
    }


def load_reference(workload: str, seed: int) -> dict:
    from workloads import variant

    with open(HERE / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)[str(variant(seed))]


def print_summary(run: dict) -> None:
    for name, values in run["summary"].items():
        q1, med, q3 = quartiles(values)
        unit = "" if name == "speed" else " s"
        print(f"# {name}: median {med:.4f}{unit}, quartiles {q1:.4f} .. {q3:.4f}{unit}, "
              f"n={len(values)}: {' '.join(f'{v:.4f}' for v in values)}")
    result = run["result"]
    print(f"# error_rate: {result['failed'] / result['attempted']:.4f} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for failure in run["failures"][:20]:
        print(f"# failed: {failure}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "drivestyle" / "__init__.py").is_file():
        print(f"error: no drivestyle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / workload.name
    run = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    print_summary(run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
