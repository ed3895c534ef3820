import json
import math
from dataclasses import replace

import pytest
import yaml

from drivestyle.cli import main
from drivestyle.config import RunConfig, analysis_params, load_run_config
from drivestyle.pipeline import AnalysisParams
from drivestyle.scenarios import all_conservative_scenario, lane_change_scenario
from drivestyle.sim import save_scenario


@pytest.fixture
def slc_scenario(tmp_path):
    path = tmp_path / "slc.yaml"
    save_scenario(lane_change_scenario(0), path)
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "report schema" in capsys.readouterr().out


def test_simulate_writes_outputs(slc_scenario, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(slc_scenario), "--out", str(out)]) == 0
    assert (out / "trajectories.csv").exists()
    assert (out / "labels.csv").exists()


def test_simulate_is_idempotent(slc_scenario, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--scenario", str(slc_scenario), "--out", str(out_a)])
    main(["simulate", "--scenario", str(slc_scenario), "--out", str(out_b)])
    assert (out_a / "trajectories.csv").read_bytes() == (
        out_b / "trajectories.csv"
    ).read_bytes()
    assert (out_a / "labels.csv").read_bytes() == (out_b / "labels.csv").read_bytes()


def test_simulate_missing_scenario(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["simulate", "--scenario", str(missing), "--out", str(tmp_path)]) == 1
    assert str(missing) in capsys.readouterr().err


def test_full_pipeline_and_evaluate(slc_scenario, tmp_path, capsys):
    run = tmp_path / "run"
    main(["simulate", "--scenario", str(slc_scenario), "--out", str(run)])
    assert main([
        "analyze",
        "--trajectories", str(run / "trajectories.csv"),
        "--frame-rate", "10",
        "--window", "1.0", "--stride", "0.5",
        "--out", str(run),
    ]) == 0
    assert (run / "report.json").exists()
    assert (run / "centrality.csv").exists()
    report = json.loads((run / "report.json").read_text())
    assert report["schema_version"] == "2"
    assert {a["agent_id"] for a in report["agents"]} == {"subject", "g0", "g1", "g2"}

    assert main([
        "evaluate",
        "--report", str(run / "report.json"),
        "--labels", str(run / "labels.csv"),
        "--out", str(run),
    ]) == 0
    tde_rows = (run / "tde.csv").read_text().splitlines()
    assert tde_rows[0] == "style,mean_tde_s,maneuver_count,missing_count"
    assert tde_rows[1].startswith("SLC,")
    mean = float(tde_rows[1].split(",")[1])
    assert mean < 1.5  # timing quality is asserted tightly in acceptance


def test_evaluate_with_unmatched_agent(slc_scenario, tmp_path, capsys):
    run = tmp_path / "run"
    main(["simulate", "--scenario", str(slc_scenario), "--out", str(run)])
    main([
        "analyze", "--trajectories", str(run / "trajectories.csv"),
        "--frame-rate", "10", "--out", str(run),
    ])
    (run / "ghost.csv").write_text(
        "agent_id,style,start_frame,end_frame\nghost,OS,0,10\n"
    )
    assert main([
        "evaluate", "--report", str(run / "report.json"),
        "--labels", str(run / "ghost.csv"), "--out", str(run),
    ]) == 0
    assert "missing" in capsys.readouterr().err
    rows = (run / "tde.csv").read_text().splitlines()
    assert rows[1].split(",")[3] == "1"


def test_evaluate_empty_labels(slc_scenario, tmp_path, capsys):
    run = tmp_path / "run"
    main(["simulate", "--scenario", str(slc_scenario), "--out", str(run)])
    main([
        "analyze", "--trajectories", str(run / "trajectories.csv"),
        "--frame-rate", "10", "--out", str(run),
    ])
    (run / "empty.csv").write_text("agent_id,style,start_frame,end_frame\n")
    assert main([
        "evaluate", "--report", str(run / "report.json"),
        "--labels", str(run / "empty.csv"), "--out", str(run),
    ]) == 0
    assert "no labeled maneuvers" in capsys.readouterr().err


def test_analyze_requires_frame_rate(slc_scenario, tmp_path, capsys):
    run = tmp_path / "run"
    main(["simulate", "--scenario", str(slc_scenario), "--out", str(run)])
    assert main([
        "analyze", "--trajectories", str(run / "trajectories.csv"),
        "--out", str(run),
    ]) == 1
    assert "frame rate" in capsys.readouterr().err


def test_calibrate_writes_thresholds(tmp_path, capsys):
    for i in range(2):
        save_scenario(all_conservative_scenario(i), tmp_path / f"calib{i}.yaml")
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "frame_rate_hz: 10\nwindow_s: 1.0\nstride_s: 0.5\n"
        "calibration_scenarios: [calib0.yaml, calib1.yaml]\n"
    )
    out = tmp_path / "thresholds.yaml"
    assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 0
    payload = yaml.safe_load(out.read_text())
    assert payload["tau_degree"] > 0
    assert payload["tau_closeness"] > 0
    first = out.read_bytes()
    main(["calibrate", "--config", str(cfg), "--out", str(out)])
    assert out.read_bytes() == first  # deterministic


def test_calibrate_without_scenarios(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("frame_rate_hz: 10\n")
    assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "t.yaml")]) == 1
    assert "calibration_scenarios" in capsys.readouterr().err


def test_analyze_accepts_config_and_thresholds_files(slc_scenario, tmp_path):
    run = tmp_path / "run"
    main(["simulate", "--scenario", str(slc_scenario), "--out", str(run)])
    (tmp_path / "cfg.yaml").write_text(
        "frame_rate_hz: 10\nmu: 100\nwindow_s: 1.0\nstride_s: 0.5\n"
        "thresholds: {tau_degree: 3.4, tau_closeness: 0.16, weaving_min_sharpness: 0.15}\n"
    )
    assert main([
        "analyze", "--trajectories", str(run / "trajectories.csv"),
        "--config", str(tmp_path / "cfg.yaml"), "--out", str(run),
    ]) == 0


def test_analyze_lone_conservative_agent(tmp_path):
    from drivestyle.sim import ScenarioConfig, SpawnSpec

    scenario = tmp_path / "lone.yaml"
    save_scenario(
        ScenarioConfig(
            lane_count=2, road_length_m=3000.0, timestep_s=0.1, duration_s=20.0,
            spawns=[SpawnSpec("solo", "conservative", 0, 10.0, 24.0)],
        ),
        scenario,
    )
    run = tmp_path / "run"
    main(["simulate", "--scenario", str(scenario), "--out", str(run)])
    main([
        "analyze", "--trajectories", str(run / "trajectories.csv"),
        "--frame-rate", "10", "--out", str(run),
    ])
    report = json.loads((run / "report.json").read_text())
    (agent,) = report["agents"]
    assert agent["global_label"] == "conservative"


def test_evaluate_accepts_annotation_format(slc_scenario, tmp_path):
    run = tmp_path / "run"
    main(["simulate", "--scenario", str(slc_scenario), "--out", str(run)])
    main([
        "analyze", "--trajectories", str(run / "trajectories.csv"),
        "--frame-rate", "10", "--window", "1.0", "--stride", "0.5",
        "--out", str(run),
    ])
    labels = (run / "labels.csv").read_text().splitlines()[1].split(",")
    agent, style, start, end = labels
    (run / "annotations.csv").write_text(
        "video_id,agent_id,style,annotator_id,start_frame,end_frame\n"
        f"vid0,{agent},{style},p1,{start},{end}\n"
        f"vid0,{agent},{style},p2,{int(start) + 4},{int(end) + 4}\n"
    )
    assert main([
        "evaluate", "--report", str(run / "report.json"),
        "--labels", str(run / "annotations.csv"), "--out", str(run),
    ]) == 0
    rows = (run / "tde.csv").read_text().splitlines()
    assert rows[1].split(",")[2] == "1"  # one maneuver, aggregated over 2 annotators


def test_internal_error_maps_to_exit_2(monkeypatch, capsys):
    from drivestyle import cli
    from drivestyle.errors import ContractViolationError

    def boom(args):
        raise ContractViolationError("broken invariant")

    monkeypatch.setitem(cli._COMMANDS, "simulate", boom)
    assert main(["simulate", "--scenario", "x", "--out", "y"]) == 2
    assert "invariant" in capsys.readouterr().err


def test_analyze_report_is_byte_identical(slc_scenario, tmp_path):
    run = tmp_path / "run"
    main(["simulate", "--scenario", str(slc_scenario), "--out", str(run)])
    for out in ("a", "b"):
        assert main([
            "analyze", "--trajectories", str(run / "trajectories.csv"),
            "--frame-rate", "10", "--window", "1.0", "--stride", "0.5",
            "--out", str(tmp_path / out),
        ]) == 0
    first = (tmp_path / "a" / "report.json").read_bytes()
    assert first == (tmp_path / "b" / "report.json").read_bytes()


@pytest.mark.parametrize(
    "content",
    [None, "{not json", '{"schema_version": "1", "agents": []}'],
    ids=["missing", "malformed", "schema_v1"],
)
def test_evaluate_bad_report_exits_1_with_one_line(content, tmp_path, capsys):
    report = tmp_path / "report.json"
    if content is not None:
        report.write_text(content)
    labels = tmp_path / "labels.csv"
    labels.write_text("agent_id,style,start_frame,end_frame\n")
    assert main([
        "evaluate", "--report", str(report), "--labels", str(labels),
        "--out", str(tmp_path / "out"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def analyzed_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("analyzed")
    save_scenario(lane_change_scenario(0), tmp / "slc.yaml")
    run = tmp / "run"
    assert main(["simulate", "--scenario", str(tmp / "slc.yaml"), "--out", str(run)]) == 0
    assert main([
        "analyze", "--trajectories", str(run / "trajectories.csv"),
        "--frame-rate", "10", "--window", "1.0", "--stride", "0.5", "--out", str(run),
    ]) == 0
    return run


@pytest.mark.parametrize(
    "kind", ["trajectories", "labels", "labels_dir", "annotations_not_utf8"]
)
def test_unreadable_input_file_exits_1_with_one_line(kind, analyzed_run, tmp_path, capsys):
    # a path is never parsed as CSV text: the message names the file
    path = tmp_path / "missing.csv"
    if kind == "labels_dir":
        path = tmp_path
    elif kind == "annotations_not_utf8":
        path = tmp_path / "annotations.csv"
        path.write_bytes(
            b"video_id,agent_id,style,annotator_id,start_frame,end_frame\n"
            b"vid0,\xff\xfe,OS,p1,1,2\n"
        )
    if kind == "trajectories":
        argv = ["analyze", "--trajectories", str(path), "--frame-rate", "10"]
    else:
        argv = ["evaluate", "--report", str(analyzed_run / "report.json"),
                "--labels", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and err.count("\n") == 1
    assert repr(str(path)) in err


@pytest.mark.parametrize(
    "kind",
    ["scenario_yaml", "scenario_type", "scenario_list", "config_yaml",
     "config_type", "config_alpha", "thresholds_yaml", "thresholds_missing_key"],
)
def test_malformed_yaml_exits_1_with_one_line(kind, analyzed_run, tmp_path, capsys):
    path = tmp_path / "input.yaml"
    if kind == "scenario_type":
        save_scenario(lane_change_scenario(0), path)
        text = path.read_text().replace("lane_count: 3", "lane_count: abc")
        assert text != path.read_text()
        path.write_text(text)
    else:
        path.write_text({
            "scenario_yaml": "a: [\n",
            "scenario_list": "- 1\n- 2\n",
            "config_yaml": "window_s: 1.0\nmu: {\n",
            "config_type": "window_s: fast\n",
            "config_alpha": "alpha_policy: {kind: grid, cap: abc}\n",
            "thresholds_yaml": "tau_degree: [1\n",
            "thresholds_missing_key": "tau_degree: 1.0\n",
        }[kind])
    if kind.startswith("scenario"):
        argv = ["simulate", "--scenario", str(path)]
    else:
        flag = "--config" if kind.startswith("config") else "--thresholds"
        argv = ["analyze", "--trajectories", str(analyzed_run / "trajectories.csv"),
                "--frame-rate", "10", flag, str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(path)) in err


@pytest.mark.parametrize("kind", ["analyze_out_file", "simulate_out_file", "calibrate_out_dir"])
def test_unwritable_output_exits_1_with_one_line(kind, analyzed_run, tmp_path, capsys):
    if kind == "calibrate_out_dir":
        save_scenario(all_conservative_scenario(0), tmp_path / "calib0.yaml")
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "frame_rate_hz: 10\nwindow_s: 1.0\nstride_s: 0.5\n"
            "calibration_scenarios: [calib0.yaml]\n"
        )
        out = tmp_path  # a directory where the thresholds file should go
        argv = ["calibrate", "--config", str(cfg)]
    else:
        out = tmp_path / "taken"
        out.write_text("a file where the output directory should go\n")
        if kind == "analyze_out_file":
            argv = ["analyze", "--trajectories", str(analyzed_run / "trajectories.csv"),
                    "--frame-rate", "10"]
        else:
            save_scenario(lane_change_scenario(0), tmp_path / "slc.yaml")
            argv = ["simulate", "--scenario", str(tmp_path / "slc.yaml")]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and err.count("\n") == 1
    assert repr(str(out)) in err


def test_run_config_seed_key_is_unknown(analyzed_run, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("frame_rate_hz: 10\nseed: 3\n")
    assert main([
        "analyze", "--trajectories", str(analyzed_run / "trajectories.csv"),
        "--config", str(cfg), "--out", str(tmp_path / "out"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unknown run-config keys: ['seed']" in err


def test_run_config_defaults_are_the_analysis_defaults(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("frame_rate_hz: 10\n")
    default = AnalysisParams()
    for loaded in (RunConfig(), load_run_config(cfg)):
        params = analysis_params(loaded)
        policy = params.alpha_policy  # a fresh grid policy, equal in settings
        assert (policy.cap, policy.grid) == (default.alpha_policy.cap, default.alpha_policy.grid)
        assert replace(params, alpha_policy=default.alpha_policy) == default


NON_FINITE = {
    "window_nan": ("analyze", ["--window", "nan"], "window_s must be finite"),
    "window_inf": ("analyze", ["--window", "inf"], "window_s must be finite"),
    "stride_nan": ("analyze", ["--stride", "nan"], "stride_s must be finite"),
    "rate_nan": ("analyze", ["--frame-rate", "nan"], "frame_rate_hz must be finite"),
    "rate_inf": ("analyze", ["--frame-rate", "inf"], "frame_rate_hz must be finite"),
    "mu_nan": ("analyze", ["--mu", "nan"], "mu must be finite"),
    "epsilon_nan": ("analyze", ["--epsilon", "nan"], "epsilon_s must be finite"),
    "config_window_nan": ("analyze", ["--config", "window_s: .nan\n"],
                          "window_s must be finite"),
    "config_capacity_inf": ("analyze", ["--config", "capacity: .inf\n"],
                            "has a bad field: capacity must be an integer, got inf"),
    "thresholds_nan": ("analyze", ["--thresholds", "tau_degree: .nan\ntau_closeness: 1\n"],
                       "tau_degree must be finite"),
    "scenario_duration_nan": ("simulate", {"duration_s": math.nan},
                              "duration_s must be finite"),
    "scenario_lanes_inf": ("simulate", {"lane_count": math.inf},
                           "has a bad field: lane_count must be an integer, got inf"),
    "evaluate_rate_nan": ("evaluate", ["--frame-rate", "nan"], "frame_rate_hz must be finite"),
    "evaluate_rate_inf": ("evaluate", ["--frame-rate", "inf"], "frame_rate_hz must be finite"),
}


@pytest.mark.parametrize("kind", sorted(NON_FINITE))
def test_non_finite_parameter_exits_1_with_one_line(kind, analyzed_run, tmp_path, capsys):
    command, extra, message = NON_FINITE[kind]
    if command == "simulate":
        path = tmp_path / "scenario.yaml"
        save_scenario(lane_change_scenario(0), path)
        path.write_text(yaml.safe_dump({**yaml.safe_load(path.read_text()), **extra}))
        argv, extra = ["simulate", "--scenario", str(path)], []
    elif command == "analyze":
        argv = ["analyze", "--trajectories", str(analyzed_run / "trajectories.csv")]
        if extra[0] in ("--config", "--thresholds"):
            path = tmp_path / "input.yaml"
            path.write_text(extra[1])
            extra = [extra[0], str(path)]
        if "--frame-rate" not in extra:
            argv += ["--frame-rate", "10"]
    else:
        argv = ["evaluate", "--report", str(analyzed_run / "report.json"),
                "--labels", str(analyzed_run / "labels.csv")]
    assert main(argv + extra + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


# (file, path to the field, value): integer fields that once were truncated
NON_INTEGER = {
    "capacity_fraction": ("config", ("capacity",), 256.7),
    "capacity_bool": ("config", ("capacity",), True),
    "capacity_text": ("config", ("capacity",), "256"),
    "lane_count_fraction": ("scenario", ("lane_count",), 2.5),
    "seed_bool": ("scenario", ("seed",), True),
    "spawn_lane_fraction": ("scenario", ("agents", 0, "lane"), 1.5),
    "script_frame_fraction": ("scenario", ("lane_change_scripts", 0, "frame"), 81.5),
    "script_target_lane_bool": ("scenario", ("lane_change_scripts", 0, "target_lane"), True),
    "maneuver_start_fraction": ("scenario", ("maneuvers", 0, "start_frame"), 81.25),
    "maneuver_end_bool": ("scenario", ("maneuvers", 0, "end_frame"), False),
}


@pytest.mark.parametrize("kind", sorted(NON_INTEGER))
def test_non_integer_field_exits_1_with_one_line(kind, analyzed_run, tmp_path, capsys):
    source, path, value = NON_INTEGER[kind]
    if source == "config":
        document = {"capacity": 256}
        argv = ["analyze", "--trajectories", str(analyzed_run / "trajectories.csv"),
                "--frame-rate", "10", "--config", str(tmp_path / "input.yaml")]
    else:
        save_scenario(lane_change_scenario(0), tmp_path / "input.yaml")
        document = yaml.safe_load((tmp_path / "input.yaml").read_text())
        argv = ["simulate", "--scenario", str(tmp_path / "input.yaml")]
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    (tmp_path / "input.yaml").write_text(yaml.safe_dump(document))
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"has a bad field: {path[-1]} must be an integer, got {value!r}" in err


def test_integral_float_fields_are_integers(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("capacity: 256.0\n")
    capacity = load_run_config(path).capacity
    assert capacity == 256 and type(capacity) is int
