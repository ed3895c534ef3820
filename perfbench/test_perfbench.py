"""The benchmark's own tests, on tiny versions of each workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import SELF_TIMES  # noqa: E402
from workloads import ChurnAnalyze, HighwayCli, Suite  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    if name == "suite":
        w = Suite()
        w.runs_per_style, w.calibration_count = 1, 1
    elif name == "highway_cli":
        w = HighwayCli()
        w.agents, w.duration_s = 21, 4.0
    else:
        w = ChurnAnalyze()
        w.duration_s, w.length_m = 20.0, 200.0
    return w


@pytest.fixture(scope="module", params=["suite", "highway_cli", "churn_analyze"])
def runs(request, tmp_path_factory):
    """An untraced run whose outputs become the reference, then a traced run."""
    workload = tiny(request.param)
    workdir = tmp_path_factory.mktemp(request.param)
    first = run.measure(workload, 3, 0, False, workdir, reference={})
    reference = first["outputs"][0]
    untraced = run.measure(workload, 3, 0, False, workdir, reference=reference)
    traced = run.measure(workload, 3, 0, True, workdir, reference=reference)
    return workload, workdir, reference, untraced, traced


def test_metric_names_and_units_match_benchmark_json(runs):
    _, _, _, untraced, traced = runs
    for result, key in ((untraced, "end_to_end"), (traced, "per_layer")):
        printed = {k: m["unit"] for k, m in result["result"]["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_runs_are_correct_and_outputs_do_not_depend_on_tracing(runs):
    _, _, reference, untraced, traced = runs
    for result in (untraced, traced):
        assert result["result"]["correct"], result["failures"]
        assert result["result"]["failed"] == 0
        assert all(out == reference for out in result["outputs"])


def test_corrupted_reference_raises_error_rate(runs):
    workload, workdir, reference, _, _ = runs
    corrupted = copy.deepcopy(reference)
    op = max(corrupted, key=lambda k: json.dumps(corrupted[k]).count(","))
    text = json.dumps(corrupted[op])
    # nudge the first float by far more than the 1e-9 tolerance
    head, _, tail = text.partition(".")
    corrupted[op] = json.loads(f"{head}.{'9' if tail[0] != '9' else '1'}{tail[1:]}")
    result = run.measure(workload, 3, 0, False, workdir, reference=corrupted)
    assert result["result"]["failed"] >= 1
    assert not result["result"]["correct"]


def test_self_times_and_unattributed_sum_to_traced_wall(runs):
    traced = runs[4]["result"]["metrics"]
    parts = sum(traced[name]["value"] for name in SELF_TIMES + ["unattributed_s"])
    assert parts == pytest.approx(traced["trace.wall_s"]["value"], abs=1e-6)
    assert traced["unattributed_s"]["value"] >= 0
    assert all(traced[name]["value"] >= 0 for name in SELF_TIMES)


def test_speed_probe_leaves_out_its_own_time_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as timer:
        busy_until = run.perf_counter() + 0.3
        while run.perf_counter() < busy_until:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(timer.samples) > 3  # two bracket probes and the timer's
    assert 0 < timer.busy < timer.wall / 4
    assert timer.seconds > 0


def test_same_seed_gives_same_inputs(tmp_path):
    for name in ("highway_cli", "churn_analyze"):
        workload = tiny(name)
        a = workload.generate(5, tmp_path / "a")
        b = workload.generate(5, tmp_path / "b")
        key = "scenario" if name == "highway_cli" else "trajectories"
        assert a[key].read_bytes() == b[key].read_bytes()
        c = workload.generate(6, tmp_path / "c")
        assert a[key].read_bytes() != c[key].read_bytes()


def test_churn_input_has_the_intended_shape(tmp_path):
    shape = ChurnAnalyze().shape(ChurnAnalyze().generate(0, tmp_path))
    assert shape["input.ids_per_capacity"] > 1.0  # the degree state must reset
    assert 0.0 < shape["input.full_window_share"] < 1.0  # entries and exits


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
