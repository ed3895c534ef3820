import copy
import json
import math
import os
import tempfile
import time
from dataclasses import replace

import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from drivestyle.calibrate import calibrate_thresholds, thresholds_from_runs
from drivestyle.cli import main
from drivestyle.config import RunConfig, load_run_config
from drivestyle.errors import ValidationError
from drivestyle.evaluation import STYLE_CODES
from drivestyle import ingest
from drivestyle.ingest import TrajectoryTable
from drivestyle.pipeline import SCHEMA_VERSION, AnalysisParams, report_from_json, report_to_json
from drivestyle.scenarios import (
    all_conservative_scenario,
    lane_change_scenario,
    mixed_behavior_scenario,
    suite_analysis_params,
)
from drivestyle.sim import (
    MAX_LANE_COUNT,
    ScenarioConfig,
    SpawnSpec,
    run_scenario,
    save_scenario,
)
from drivestyle.styles import STYLE_OVERTAKE_LANE_CHANGE, STYLE_WEAVING
from oracles import scalar_calibrate, scalar_calibration_pools


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


def test_simulate_negative_seed_exits_1_with_one_line(slc_scenario, tmp_path, capsys):
    argv = ["simulate", "--scenario", str(slc_scenario), "--seed", "-1"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not (tmp_path / "run").exists()


def test_simulate_decision_period_past_the_run_decides_at_frame_0_alone(tmp_path, capsys):
    # a period of 1e308 s is 1e309 frames, past float range: it decides at
    # frame 0 alone, as a period of the whole run does
    def scenario(period):
        return ScenarioConfig(
            lane_count=2, road_length_m=500.0, timestep_s=0.1, duration_s=5.0,
            spawns=[SpawnSpec("a", "aggressive", 0, 0.0, 30.0),
                    SpawnSpec("c", "conservative", 0, 40.0, 10.0, longitudinal="cruise")],
            mobil_period_s=period,
        )

    outs = []
    for name, period in (("long", 1.0e308), ("run", 5.0)):
        save_scenario(scenario(period), tmp_path / f"{name}.yaml")
        outs.append(tmp_path / name)
        argv = ["simulate", "--scenario", str(tmp_path / f"{name}.yaml"), "--out", str(outs[-1])]
        assert main(argv) == 0
    assert "mobil_period_s: 1.0e+308" in (tmp_path / "long.yaml").read_text()
    assert capsys.readouterr().err == ""
    trajectories = [(out / "trajectories.csv").read_bytes() for out in outs]
    assert trajectories[0] == trajectories[1]
    assert b",4.0," in trajectories[0]  # the agent changed lanes at frame 0


_IDM_AGENT = "  - {id: a, class: conservative, lane: 0, position: 0.0, speed: 20.0"

# (agents, the start of the message after the file name): speeds at which a
# power of the car-following law overflows, each of which ended a run
# with a traceback before ScenarioConfig.validate bounded them
OVERFLOWING = {
    "idm_speed": (_IDM_AGENT.replace("20.0", "1.0e+100") + "}\n", "'a': speed 1e+100 is over"),
    "cruiser_speed": (
        _IDM_AGENT + "}\n  - {id: c, class: conservative, lane: 0, position: 50.0, "
        "speed: 1.0e+200, longitudinal: cruise}\n", "'c': speed 1e+200 is over"),
    "v0": (_IDM_AGENT + ", v0: 1.0e-300}\n", "'a': v0 1e-300 lets speed / v0 reach"),
}


@pytest.mark.parametrize("kind", sorted(OVERFLOWING))
def test_simulate_overflowing_speed_exits_1_with_one_line(kind, tmp_path, capsys):
    agents, message = OVERFLOWING[kind]
    path = tmp_path / "scenario.yaml"
    path.write_text("lane_count: 1\nroad_length_m: 100.0\ntimestep_s: 0.1\n"
                    "duration_s: 1.0\nagents:\n" + agents)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario {str(path)!r}: {message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


# a cruiser's v0, which only a copy of its class's parameters refused, at
# run time and naming neither the file nor the agent; and one at which its
# law, read when it follows a deciding agent, would overflow
CRUISER_V0 = {
    "negative": ("-5.0", "'c': v0 must be finite and positive, got -5.0\n"),
    "zero": ("0.0", "'c': v0 must be finite and positive, got 0.0\n"),
    "nan": (".nan", "'c': v0 must be finite and positive, got nan\n"),
    "tiny": ("1.0e-300", "'c': v0 1e-300 lets speed / v0 reach 2e+301, over 1e+12\n"),
}


@pytest.mark.parametrize("kind", sorted(CRUISER_V0))
def test_simulate_bad_cruiser_v0_exits_1_naming_file_and_agent(kind, tmp_path, capsys):
    v0, message = CRUISER_V0[kind]
    path = tmp_path / "scenario.yaml"
    path.write_text("lane_count: 1\nroad_length_m: 100.0\ntimestep_s: 0.1\n"
                    "duration_s: 1.0\nagents:\n" + _IDM_AGENT + "}\n"
                    "  - {id: c, class: conservative, lane: 0, position: 0.0, speed: 20.0, "
                    f"longitudinal: cruise, v0: {v0}}}\n")
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: scenario {str(path)!r}: {message}"
    assert not (tmp_path / "run").exists()


# agent ids, as YAML text, that the package's CSV files cannot carry: simulate
# wrote each before ScenarioConfig.validate refused it, and analyze then
# failed on the row (comma, line breaks, empty), read another id (outer
# space) or skipped the label row as a comment ('#')
UNWRITABLE_IDS = {
    "comma": '"a,b"',
    "line_feed": '"a\\nb"',
    "line_separator": '"a\\u2028b"',
    "empty": '""',
    "comment": '"#a"',
    "leading_space": '" a"',
    "trailing_tab": '"a\\t"',
}


@pytest.mark.parametrize("kind", sorted(UNWRITABLE_IDS))
def test_simulate_id_the_csv_files_cannot_carry_exits_1_with_one_line(kind, tmp_path, capsys):
    text = UNWRITABLE_IDS[kind]
    path = tmp_path / "scenario.yaml"
    path.write_text(
        "lane_count: 1\nroad_length_m: 100.0\ntimestep_s: 0.1\nduration_s: 1.0\nagents:\n"
        + "".join(f"  - {{id: {name}, class: conservative, lane: 0, position: {x}, "
                  "speed: 20.0, longitudinal: cruise}\n" for name, x in (("b", 0.0), (text, 50.0)))
        + f"maneuvers:\n  - {{agent: {text}, style: OS, start_frame: 1, end_frame: 5}}\n")
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario {str(path)!r}: agent id {yaml.safe_load(text)!r} ")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


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
    assert (run / "windows.csv").exists()
    series = (run / "centrality.csv").read_text().splitlines()
    assert series[0] == "frame,agent_id,closeness,degree"
    assert len(series) == len((run / "trajectories.csv").read_text().splitlines())
    report = json.loads((run / "report.json").read_text())
    assert report["schema_version"] == "4"
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


def test_calibrate_warns_of_each_collision_naming_its_scenario(tmp_path, capsys):
    # conservative agents only, one running into a stopped cruiser: the
    # thresholds are calibrate_thresholds', and each collision is one stderr
    # line naming the scenario file, as simulate words it
    crash = ScenarioConfig(
        lane_count=1, road_length_m=1000.0, timestep_s=0.1, duration_s=3.0,
        spawns=[SpawnSpec("wall", "conservative", 0, 58.0, 0.0, longitudinal="cruise"),
                SpawnSpec("bullet", "conservative", 0, 50.0, 40.0)],
        randomize_conservative_v0=False,
    )
    calm = all_conservative_scenario(0)
    save_scenario(calm, tmp_path / "calm.yaml")
    save_scenario(crash, tmp_path / "crash.yaml")
    cfg = tmp_path / "run.yaml"
    cfg.write_text("frame_rate_hz: 10\ncalibration_scenarios: [calm.yaml, crash.yaml]\n")
    out = tmp_path / "thresholds.yaml"
    assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    collisions = run_scenario(crash).collisions
    assert len(collisions) > 1
    assert err == [f"warning: {tmp_path / 'crash.yaml'}: collision at frame {event.frame}: "
                   "bullet into wall" for event in collisions]
    thresholds = calibrate_thresholds([calm, crash], load_run_config(str(cfg)).params)
    assert yaml.safe_load(out.read_text()) == vars(thresholds)


@pytest.mark.parametrize("params", [suite_analysis_params(), AnalysisParams()])
def test_calibrate_equals_window_walk_oracle(params):
    # the mixed scenario's aggressive agents leave the pools; its
    # conservative agents have critical points, so the sharpness pool is live
    scenarios = [all_conservative_scenario(0), mixed_behavior_scenario(0)]
    assert any(scalar_calibration_pools(scenarios, params)[2])
    # repr gives each float's shortest round-trip digits: equal bits, equal text
    assert repr(calibrate_thresholds(scenarios, params)) == repr(
        scalar_calibrate(scenarios, params))


def test_analysis_path_builds_no_records(slc_scenario, tmp_path, monkeypatch):
    # the per-frame row index is for the benchmark's tracer: every command
    # and calibration runs with it broken, on a positions-only copy of the
    # trajectories (velocities by differences) as well
    def no_records(table):
        raise AssertionError("TrajectoryTable.frames read")

    monkeypatch.setattr(TrajectoryTable, "frames", property(no_records))
    run = tmp_path / "run"
    assert main(["simulate", "--scenario", str(slc_scenario), "--out", str(run)]) == 0
    positions = tmp_path / "positions.csv"
    positions.write_text("".join(
        ",".join(line.split(",")[:5]) + "\n"
        for line in (run / "trajectories.csv").read_text().splitlines()
    ))
    for trajectories in (run / "trajectories.csv", positions):
        assert main([
            "analyze", "--trajectories", str(trajectories), "--frame-rate", "10",
            "--out", str(run),
        ]) == 0
    assert main([
        "evaluate", "--report", str(run / "report.json"),
        "--labels", str(run / "labels.csv"), "--out", str(run),
    ]) == 0
    thresholds = calibrate_thresholds(
        [all_conservative_scenario(0)], AnalysisParams(window_s=1.0, stride_s=0.5)
    )
    assert thresholds.tau_degree > 0


def test_calibrate_without_scenarios(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("frame_rate_hz: 10\n")
    assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "t.yaml")]) == 1
    assert "calibration_scenarios" in capsys.readouterr().err


def test_calibrate_without_a_conservative_agent_exits_1_with_one_line(tmp_path, capsys):
    config = all_conservative_scenario(0)
    config.spawns = [replace(s, vehicle_class="aggressive") for s in config.spawns]
    save_scenario(config, tmp_path / "calib.yaml")
    cfg = tmp_path / "run.yaml"
    cfg.write_text("window_s: 1.0\ncalibration_scenarios: [calib.yaml]\n")
    out = tmp_path / "t.yaml"
    assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: no conservative agents in the calibration set\n"
    assert not out.exists()


def test_thresholds_from_no_runs_are_refused():
    # the CLI refuses an empty list before any run; the function itself too
    with pytest.raises(ValidationError, match="^calibration scenario set is empty$"):
        thresholds_from_runs([], AnalysisParams())


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
    for name in ("report.json", "windows.csv"):
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes()


# a schema-3 report of no agents: the format that held every window fit
SCHEMA_V3 = ('{"schema_version":"3","frame_rate_hz":10.0,"params":{"mu":25.0,"capacity":256,'
             '"window_s":1.0,"stride_s":0.5,"epsilon_s":0.5,"thresholds":{"tau_degree":5.21,'
             '"tau_closeness":0.122,"weaving_min_sharpness":0.122},"alpha_policy":{"kind":'
             '"grid","cap":1000000.0}},"window_fields":["window","alpha","condition_number",'
             '"degree","closeness","weaving_points"],"agents":[]}')


# a schema-4 report of no agents, whose params analyze writes
SCHEMA_V4 = SCHEMA_V3.replace('"3"', '"4"').replace(
    ',"window_fields":["window","alpha","condition_number","degree","closeness",'
    '"weaving_points"]', "")


@pytest.mark.parametrize(
    "content, named",
    [(None, None), ("{not json", None),
     ('{"schema_version": "1", "agents": []}', "unsupported schema '1'"),
     ('{"schema_version": "2", "agents": []}', "unsupported schema '2'"),
     (SCHEMA_V3, "unsupported schema '3'"),
     # a param of the wrong type is an error, not a value analyze never writes
     (SCHEMA_V4.replace('"capacity":256', '"capacity":"abc"'), "capacity must"),
     (SCHEMA_V4.replace('"tau_degree":5.21', '"tau_degree":true'), "tau_degree must"),
     # an integer no float holds
     (SCHEMA_V4.replace('"mu":25.0', '"mu":1' + "0" * 400),
      "mu: int too large to convert to float")],
    ids=["missing", "malformed", "schema_v1", "schema_v2", "schema_v3",
         "capacity_text", "tau_degree_bool", "mu_huge_int"],
)
def test_evaluate_bad_report_exits_1_with_one_line(content, named, tmp_path, capsys):
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
    if named is not None:
        assert named in err


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


# one field of the labelled agent's overtaking style, or the frame rate,
# holding what analyze never writes
REPORT_FAULTS = {
    "rate_text": ("frame_rate_hz", "x"),
    "rate_zero": ("frame_rate_hz", 0),
    "rate_negative": ("frame_rate_hz", -10.0),
    "t_sle_text": ("t_sle", "abc"),
    "t_sle_list": ("t_sle", [1]),
    "t_sle_bool": ("t_sle", True),
    "t_sle_nan": ("t_sle", math.nan),
    "t_sle_inf": ("t_sle", math.inf),
    "t_sle_past_2_53": ("t_sle", 1e308),
    "detected_text": ("detected", "no"),
}


@pytest.mark.parametrize("fault", list(REPORT_FAULTS))
def test_evaluate_malformed_report_field_exits_1_with_one_line(
    fault, analyzed_run, tmp_path, capsys
):
    payload = json.loads((analyzed_run / "report.json").read_text())
    key, value = REPORT_FAULTS[fault]
    if key == "frame_rate_hz":
        payload[key] = value
    else:
        (subject,) = [a for a in payload["agents"] if a["agent_id"] == "subject"]
        subject["styles"][STYLE_OVERTAKE_LANE_CHANGE][key] = value
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))  # NaN and Infinity as Python's json writes them
    assert main([
        "evaluate", "--report", str(report), "--labels", str(analyzed_run / "labels.csv"),
        "--out", str(tmp_path / "out"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: report {report} is malformed: ") and err.count("\n") == 1
    assert key in err


# the labelled agent's styles other than the four analyze writes
STYLE_FAULTS = {
    "missing_style": lambda styles: styles.pop(STYLE_OVERTAKE_LANE_CHANGE),
    "unknown_style": lambda styles: styles.update(tailgating=styles[STYLE_WEAVING]),
}


@pytest.mark.parametrize("fault", list(STYLE_FAULTS))
def test_evaluate_report_with_other_styles_exits_1_with_one_line(
    fault, analyzed_run, tmp_path, capsys
):
    payload = json.loads((analyzed_run / "report.json").read_text())
    (subject,) = [a for a in payload["agents"] if a["agent_id"] == "subject"]
    STYLE_FAULTS[fault](subject["styles"])
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    assert main([
        "evaluate", "--report", str(report), "--labels", str(analyzed_run / "labels.csv"),
        "--out", str(tmp_path / "out"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: report {report} is malformed: ") and err.count("\n") == 1
    assert "agent 'subject' styles must be" in err


# the labelled agent's own fields holding what analyze never writes, and
# the message the reader's ValueError carries
AGENT_FAULTS = {
    "agent_id_number": ("agent_id", 7, "agent_id must be a string, got 7"),
    "global_label_unknown": ("global_label", "reckless",
                             "agent 'subject' has unknown global_label 'reckless'"),
}


@pytest.mark.parametrize("fault", sorted(AGENT_FAULTS))
def test_evaluate_report_with_a_bad_agent_field_exits_1_with_one_line(
    fault, analyzed_run, tmp_path, capsys
):
    key, value, message = AGENT_FAULTS[fault]
    payload = json.loads((analyzed_run / "report.json").read_text())
    (subject,) = [a for a in payload["agents"] if a["agent_id"] == "subject"]
    subject[key] = value
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    assert main([
        "evaluate", "--report", str(report), "--labels", str(analyzed_run / "labels.csv"),
        "--out", str(tmp_path / "out"),
    ]) == 1
    err = capsys.readouterr().err
    assert err == f"error: report {report} is malformed: ValueError({message!r})\n"


def test_evaluate_report_with_a_repeated_agent_exits_1_with_one_line(
    analyzed_run, tmp_path, capsys
):
    # analyze writes one entry per agent; evaluate matched the labels to the
    # last of two and exited 0
    payload = json.loads((analyzed_run / "report.json").read_text())
    (subject,) = [a for a in payload["agents"] if a["agent_id"] == "subject"]
    payload["agents"].append(subject)
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    assert main([
        "evaluate", "--report", str(report), "--labels", str(analyzed_run / "labels.csv"),
        "--out", str(tmp_path / "out"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: report {report} is malformed: ") and err.count("\n") == 1
    assert "agent 'subject' has more than one entry" in err


# (label rows, frame rate): one TDE past the float range in seconds, and
# two finite TDEs whose sum is
NON_FINITE_TDE = {
    "one_tde": ("subject,SLC,0,10\n", "1e-320"),
    "mean": (f"subject,SLC,0,{2**53 - 1}\ng0,SLC,0,{2**53 - 1}\n", "4.5e-293"),
}


@pytest.mark.parametrize("kind", sorted(NON_FINITE_TDE))
def test_evaluate_non_finite_tde_exits_1_with_one_line(kind, analyzed_run, tmp_path, capsys):
    # tde.json once held a bare Infinity, which is not JSON, and tde.csv inf
    rows, rate = NON_FINITE_TDE[kind]
    labels = tmp_path / "labels.csv"
    labels.write_text("agent_id,style,start_frame,end_frame\n" + rows)
    out = tmp_path / "out"
    assert main([
        "evaluate", "--report", str(analyzed_run / "report.json"), "--labels", str(labels),
        "--frame-rate", rate, "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == (
        f"error: SLC TDE is not finite at frame rate {float(rate)!r} Hz\n")
    assert not out.exists()


def test_analyzed_report_reads_back_unchanged(analyzed_run):
    text = (analyzed_run / "report.json").read_text()
    assert report_to_json(report_from_json(text=text)) == text


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


@pytest.mark.parametrize("rate", ["1", "1e-300"])
def test_analyze_too_low_frame_rate_names_two_rows_on_one_frame(
    rate, analyzed_run, tmp_path, capsys
):
    # a 10 Hz file read at a lower rate puts two rows of an agent on one
    # frame: the error says so, with the second row's line
    trajectories = analyzed_run / "trajectories.csv"
    lines = trajectories.read_text().splitlines()
    agent = lines[1].split(",")[1]
    line = next(n for n, row in enumerate(lines[2:], 3) if row.split(",")[1] == agent)
    assert main(["analyze", "--trajectories", str(trajectories), "--frame-rate", rate,
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: agent {agent!r}: timestamps 0.0 and 0.1 both fall on frame 0 at "
        f"{float(rate)} Hz (line {line}); one row per frame\n"
    )


LABEL_HEADERS = {
    "label": "agent_id,style,start_frame,end_frame",
    "annotation": "video_id,agent_id,style,annotator_id,start_frame,end_frame",
}
# fault -> (style, start_frame, end_frame) of a bad row, and its message
ROW_FAULTS = {
    "non_integer": (("OS", "1.5", "3"),
                    "non-integer frame: invalid literal for int() with base 10: '1.5'"),
    "unknown_style": (("XYZ", "1", "2"),
                      "unknown style code 'XYZ' (expected one of ('OS', 'OT', 'SLC', 'W'))"),
    "reversed": (("SLC", "9", "2"), "annotation end 2 precedes start 9"),
    "negative": (("SLC", "-5", "2"), "negative start frame -5"),
    # past 2**53 a frame is no longer an exact float; E[T] of 10**320
    # overflows one
    "past_2_53": (("SLC", "0", str(2**53)),
                  f"frame {2**53} is past frame index 2**53"),
    "past_float": (("SLC", "0", str(10**320)),
                   f"frame {10**320} is past frame index 2**53"),
}


@pytest.mark.parametrize("fault", ["header", "field_count", *ROW_FAULTS])
@pytest.mark.parametrize("fmt", list(LABEL_HEADERS))
def test_evaluate_bad_label_row_exits_1_with_one_line(
    fmt, fault, analyzed_run, tmp_path, capsys
):
    header = LABEL_HEADERS[fmt]

    def row(style, start, end):
        if fmt == "label":
            return f"car0,{style},{start},{end}"
        return f"v,car0,{style},p1,{start},{end}"

    if fault == "header":
        text, line = header.replace("start_frame", "start") + "\n", 1
        message = f"{fmt} header must be {header}"
    elif fault == "field_count":
        text, line = f"{header}\n{row('OS', '1', '2')},x\n", 2
        message = f"expected {header.count(',') + 1} fields, got {header.count(',') + 2}"
    else:
        fields, message = ROW_FAULTS[fault]
        text, line = f"# labels\n{header}\n{row('OS', '1', '2')}\n\n{row(*fields)}\n", 5
    labels = tmp_path / "labels.csv"
    labels.write_text(text)
    assert main([
        "evaluate", "--report", str(analyzed_run / "report.json"),
        "--labels", str(labels), "--out", str(tmp_path / "out"),
    ]) == 1
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"


@pytest.mark.parametrize("fault", ["bad_row_last", "byte_after_bad_row"])
def test_labels_stream_through_evaluate(fault, analyzed_run, tmp_path, capsys):
    # a labels file several blocks long, read a block at a time: a bad row
    # in its last block is named by its line, and a byte that is not UTF-8
    # is reported before an earlier bad row
    header = "agent_id,style,start_frame,end_frame"
    padding = ["# " + "x" * 998] * (3 * ingest._BLOCK_CHARS // 1000)
    if fault == "bad_row_last":
        lines = [header, "subject,SLC,0,5", *padding, "subject,SLC,1,x"]
    else:
        lines = [header, "subject,SLC,1,x", *padding, "subject,SLC,0,5"]
    labels = tmp_path / "labels.csv"
    labels.write_bytes("\n".join(lines).encode() + b"\n"
                       + (b"subject,\xff,0,5\n" if fault == "byte_after_bad_row" else b""))
    assert labels.stat().st_size > 3 * ingest._BLOCK_CHARS
    assert main([
        "evaluate", "--report", str(analyzed_run / "report.json"),
        "--labels", str(labels), "--out", str(tmp_path / "out"),
    ]) == 1
    err = capsys.readouterr().err
    if fault == "bad_row_last":
        assert err == (f"error: line {len(lines)}: non-integer frame: "
                       "invalid literal for int() with base 10: 'x'\n")
    else:
        assert err.startswith(f"error: cannot read annotations {str(labels)!r}: ")
        assert "can't decode byte 0xff in position" in err and err.count("\n") == 1


def test_evaluate_reads_a_huge_interval_in_closed_form(analyzed_run, tmp_path):
    # the largest interval a label may hold: counting its frames one by one
    # would take 2**53 steps
    labels = tmp_path / "labels.csv"
    labels.write_text(f"agent_id,style,start_frame,end_frame\nsubject,SLC,0,{2**53 - 1}\n")
    start = time.perf_counter()
    assert main([
        "evaluate", "--report", str(analyzed_run / "report.json"),
        "--labels", str(labels), "--out", str(tmp_path / "out"),
    ]) == 0
    assert time.perf_counter() - start < 1.0
    (subject,) = [a for a in report_from_json(analyzed_run / "report.json").agents
                  if a.agent_id == "subject"]
    t_sle = subject.styles[STYLE_OVERTAKE_LANE_CHANGE].t_sle
    (row,) = json.loads((tmp_path / "out" / "tde.json").read_text())["rows"]
    # E[T] = (2**53 - 1) / 2 exactly; the report's frame rate is 10 Hz
    assert row["mean_tde_s"] == abs((t_sle * 10.0 - 4503599627370495.5) / 10.0)


@pytest.mark.parametrize(
    "kind",
    ["scenario_yaml", "scenario_type", "scenario_list", "scenario_control",
     "config_yaml", "config_type", "config_alpha", "config_control",
     "config_null_mu", "config_null_window", "config_null_thresholds",
     "thresholds_yaml", "thresholds_missing_key", "thresholds_control"],
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
            # null is not the default: only stride_s and frame_rate_hz may be null
            "config_null_mu": "mu: null\n",
            "config_null_window": "window_s: ~\n",
            "config_null_thresholds": "thresholds: null\n",
            "thresholds_yaml": "tau_degree: [1\n",
            "thresholds_missing_key": "tau_degree: 1.0\n",
            # a control character: the YAML reader rejects the stream itself
            "scenario_control": "lane_count: 2\x07",
            "config_control": "window_s: 1.0\x07",
            "thresholds_control": "tau_degree: 1.0\x07",
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
    if kind.startswith("config_null"):
        assert f"{path.read_text().partition(':')[0]} must" in err


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
    for loaded in (RunConfig(), load_run_config(cfg)):
        assert loaded.params == AnalysisParams()
    # null is the default only where the default is None
    cfg.write_text("frame_rate_hz: null\nstride_s: ~\n")
    assert load_run_config(cfg) == RunConfig()


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
    # an integer no float holds
    "config_mu_huge_int": ("analyze", ["--config", "mu: 1" + "0" * 400 + "\n"],
                           "has a bad field: mu: int too large to convert to float"),
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


@pytest.mark.parametrize("option", ["--window", "--stride"])
def test_huge_window_or_stride_acts_as_one_longer_than_the_run(
    option, analyzed_run, tmp_path, capsys
):
    # 1e308 s at 10 Hz has no integer frame count; the count is clamped at
    # 2**53, past every frame index, and once ended in an OverflowError
    def agent_windows(value):
        out = tmp_path / value
        assert main(["analyze", "--trajectories", str(analyzed_run / "trajectories.csv"),
                     "--frame-rate", "10", option, value, "--out", str(out)]) == 0
        return (out / "windows.csv").read_text()

    assert agent_windows("1e308") == agent_windows("1e6")
    assert "Traceback" not in capsys.readouterr().err


# (header, row 3, message): a non-finite or overflowing value in a
# trajectory row, which once escaped as a traceback or was accepted
NON_FINITE_ROWS = {
    "timestamp_nan": ("", "nan,a,car,5,0", "line 3: non-finite timestamp nan"),
    "timestamp_inf": ("", "inf,a,car,5,0", "line 3: non-finite timestamp inf"),
    "timestamp_minus_inf": ("", "-inf,a,car,5,0", "line 3: non-finite timestamp -inf"),
    "timestamp_overflow": ("", "1e308,a,car,5,0", "line 3: timestamp 1e+308 at 10.0 Hz"),
    "vx_nan": (",vx,vy", "0.1,a,car,5,0,nan,0", "line 3: non-finite velocity"),
    "vy_inf": (",vx,vy", "0.1,a,car,5,0,1,inf", "line 3: non-finite velocity"),
}


@pytest.mark.parametrize("kind", sorted(NON_FINITE_ROWS))
def test_non_finite_trajectory_value_exits_1_with_one_line(kind, tmp_path, capsys):
    columns, row, message = NON_FINITE_ROWS[kind]
    first = "0.0,a,car,0,0" + (",1,0" if columns else "")
    path = tmp_path / "t.csv"
    path.write_text(f"timestamp,agent_id,agent_type,x,y{columns}\n{first}\n{row}\n")
    argv = ["analyze", "--trajectories", str(path), "--frame-rate", "10"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


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


# how an error names each input file of _cli_with_yaml_field
_FILE_KIND = {"config": "run config", "thresholds": "thresholds file", "scenario": "scenario"}


def _cli_with_yaml_field(source, path, value, analyzed_run, tmp_path):
    """argv whose input file ``source``, valid otherwise, has ``value`` at ``path``."""
    if source == "scenario":
        save_scenario(lane_change_scenario(0), tmp_path / "input.yaml")
        document = yaml.safe_load((tmp_path / "input.yaml").read_text())
        argv = ["simulate", "--scenario", str(tmp_path / "input.yaml")]
    else:
        document = {
            "config": {"capacity": 256, "alpha_policy": {"kind": "grid"},
                       "thresholds": {"tau_degree": 1.0, "tau_closeness": 1.0}},
            "thresholds": {"tau_degree": 1.0, "tau_closeness": 1.0},
        }[source]
        flag = "--config" if source == "config" else "--thresholds"
        argv = ["analyze", "--trajectories", str(analyzed_run / "trajectories.csv"),
                "--frame-rate", "10", flag, str(tmp_path / "input.yaml")]
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    (tmp_path / "input.yaml").write_text(yaml.safe_dump(document))
    return argv + ["--out", str(tmp_path / "out")]


@pytest.mark.parametrize("kind", sorted(NON_INTEGER))
def test_non_integer_field_exits_1_with_one_line(kind, analyzed_run, tmp_path, capsys):
    source, path, value = NON_INTEGER[kind]
    assert main(_cli_with_yaml_field(source, path, value, analyzed_run, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"has a bad field: {path[-1]} must be an integer, got {value!r}" in err


# (file, path to the field, the field's YAML text, message): values that
# once were coerced to another type
WRONG_TYPE = {
    "mu_bool": ("config", ("mu",), "true", "mu must be a number, got True"),
    "window_text": ("config", ("window_s",), '"5"', "window_s must be a number, got '5'"),
    "rate_bool": ("config", ("frame_rate_hz",), "yes",
                  "frame_rate_hz must be a number, got True"),
    "tau_degree_bool": ("config", ("thresholds", "tau_degree"), "true",
                        "tau_degree must be a number, got True"),
    "thresholds_file_text": ("thresholds", ("tau_closeness",), '"0.1"',
                             "tau_closeness must be a number, got '0.1'"),
    "cap_text": ("config", ("alpha_policy", "cap"), '"1e6"', "cap must be a number, got '1e6'"),
    "mobil_text": ("scenario", ("agents", 0, "mobil"), '"false"',
                   "mobil must be true or false, got 'false'"),
    "randomize_text": ("scenario", ("randomize_conservative_v0",), '"no"',
                       "randomize_conservative_v0 must be true or false, got 'no'"),
    "id_octal": ("scenario", ("agents", 0, "id"), "010", "id must be a string, got 8"),
    "speed_text": ("scenario", ("agents", 0, "speed"), '"30"', "speed must be a number, got '30'"),
    "script_agent_int": ("scenario", ("lane_change_scripts", 0, "agent"), "7",
                         "agent must be a string, got 7"),
    "maneuver_style_list": ("scenario", ("maneuvers", 0, "style"), "[SLC]",
                            "style must be a string, got ['SLC']"),
}


@pytest.mark.parametrize("kind", sorted(WRONG_TYPE))
def test_wrongly_typed_field_exits_1_with_one_line(kind, analyzed_run, tmp_path, capsys):
    source, path, text, message = WRONG_TYPE[kind]
    argv = _cli_with_yaml_field(source, path, yaml.safe_load(text), analyzed_run, tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(tmp_path / "input.yaml")) in err
    assert f"has a bad field: {message}" in err


# (file, path to the misspelt key, message): keys that once were ignored
UNKNOWN_KEY = {
    "thresholds_file": ("thresholds", ("weaving_min_sharpnes",),
                        "unknown thresholds keys: ['weaving_min_sharpnes']"),
    "thresholds_block": ("config", ("thresholds", "weaving_min_sharpnes"),
                         "unknown thresholds keys: ['weaving_min_sharpnes']"),
    "alpha_policy": ("config", ("alpha_policy", "cpa"),
                     "unknown grid alpha_policy keys: ['cpa']"),
    "scenario": ("scenario", ("mobil_perod_s",), "unknown scenario keys: ['mobil_perod_s']"),
    "agent": ("scenario", ("agents", 0, "mobil_enabled"),
              "unknown agent keys: ['mobil_enabled']"),
    "script": ("scenario", ("lane_change_scripts", 0, "lane"),
               "unknown lane-change script keys: ['lane']"),
    "maneuver": ("scenario", ("maneuvers", 0, "end"), "unknown maneuver keys: ['end']"),
}


@pytest.mark.parametrize("kind", sorted(UNKNOWN_KEY))
def test_unknown_key_exits_1_with_one_line(kind, analyzed_run, tmp_path, capsys):
    source, path, message = UNKNOWN_KEY[kind]
    assert main(_cli_with_yaml_field(source, path, 0.2, analyzed_run, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {_FILE_KIND[source]} {str(tmp_path / 'input.yaml')!r}: {message}\n"


# An integer past Python's 4,300-digit limit for int-string conversion:
# no int of it can be dumped, so its digits go into the file as text
_PAST_DIGIT_LIMIT = "1" + "0" * 5000

# (file, path to the field, value, message after the file name): values
# out of range
OUT_OF_RANGE = {
    "window": ("config", ("window_s",), -1, ": window_s must be finite and positive, got -1.0"),
    "rate": ("config", ("frame_rate_hz",), 0, ": frame_rate_hz must be finite and positive"),
    "cap": ("config", ("alpha_policy", "cap"), 0.5,
            ": condition-number cap must be finite and exceed 1, got 0.5"),
    "tau_block": ("config", ("thresholds", "tau_degree"), -1, ": tau_degree must be finite"),
    "tau_file": ("thresholds", ("tau_closeness",), 0, ": tau_closeness must be finite"),
    "scenario_lanes": ("scenario", ("lane_count",), 0, ": need at least one lane, got 0"),
    # more lanes than any road: the simulator would allocate without bound
    "scenario_lanes_huge": ("scenario", ("lane_count",), 10**400,
                            f": lane_count must be at most {MAX_LANE_COUNT}"),
    "scenario_lanes_past_digit_limit": (
        "scenario", ("lane_count",), _PAST_DIGIT_LIMIT,
        " is not valid YAML: Exceeds the limit (4300 digits) for integer string conversion",
    ),
    "scenario_seed": ("scenario", ("seed",), -3, ": seed must be non-negative, got -3"),
}


@pytest.mark.parametrize("kind", sorted(OUT_OF_RANGE))
def test_out_of_range_value_names_its_file(kind, analyzed_run, tmp_path, capsys):
    source, path, value, message = OUT_OF_RANGE[kind]
    argv = _cli_with_yaml_field(source, path, value, analyzed_run, tmp_path)
    if value is _PAST_DIGIT_LIMIT:
        document = tmp_path / "input.yaml"
        document.write_text(document.read_text().replace(f"'{value}'", value))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {_FILE_KIND[source]} {str(tmp_path / 'input.yaml')!r}{message}")
    assert err.count("\n") == 1


# (file, path to the field, value, the line after the file name): checks of
# the scenario and run-config readers that no other test reaches. The
# scenario is lane_change_scenario(0): 3,000 m of road, 171 frames, agent
# g0 first, one script and one maneuver (frames 81-111), both of "subject"
INPUT_FAULTS = {
    "spawn_off_road": ("scenario", ("agents", 0, "position"), 3000.5,
                       ": 'g0': position 3000.5 off the road"),
    "unknown_mode": ("scenario", ("agents", 0, "longitudinal"), "walk",
                     ": 'g0': unknown longitudinal mode 'walk'"),
    "script_lane": ("scenario", ("lane_change_scripts", 0, "target_lane"), 3,
                    ": script target lane 3 outside road bounds"),
    "script_frame": ("scenario", ("lane_change_scripts", 0, "frame"), 171,
                     ": script frame 171 outside scenario duration"),
    "maneuver_agent": ("scenario", ("maneuvers", 0, "agent"), "nobody",
                       ": maneuver label names unknown agent 'nobody'"),
    "maneuver_style": ("scenario", ("maneuvers", 0, "style"), "XX",
                       f": maneuver style 'XX' not one of {STYLE_CODES}"),
    "maneuver_order": ("scenario", ("maneuvers", 0, "start_frame"), 112,
                       ": maneuver start frame after end frame"),
    "agents_not_list": ("scenario", ("agents",), "g0",
                        " has a bad field: agents must be a list, got 'g0'"),
    "alpha_policy_not_mapping": ("config", ("alpha_policy",), 5,
                                 ": alpha_policy must be a mapping, got 5"),
    "alpha_policy_kind": ("config", ("alpha_policy", "kind"), "magic",
                          ": unknown alpha policy kind 'magic'"),
}


@pytest.mark.parametrize("kind", sorted(INPUT_FAULTS))
def test_bad_scenario_or_config_value_exits_1_with_one_line(kind, analyzed_run, tmp_path,
                                                            capsys):
    source, path, value, message = INPUT_FAULTS[kind]
    assert main(_cli_with_yaml_field(source, path, value, analyzed_run, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err == f"error: {_FILE_KIND[source]} {str(tmp_path / 'input.yaml')!r}{message}\n"
    assert not (tmp_path / "out").exists()


def test_empty_scenario_file_exits_1_naming_the_first_missing_key(tmp_path, capsys):
    path = tmp_path / "empty.yaml"
    path.write_text("")  # read as {}
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: scenario {str(path)!r} is missing key 'lane_count'\n"


def test_analyze_capacity_0_exits_1_with_one_line(analyzed_run, tmp_path, capsys):
    # compute_series refuses it: the run config's readers take any integer
    argv = _cli_with_yaml_field("config", ("capacity",), 0, analyzed_run, tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: capacity must be positive, got 0\n"
    assert not (tmp_path / "out").exists()


def test_calibration_scenarios_must_be_a_list_of_strings(tmp_path, capsys):
    save_scenario(all_conservative_scenario(0), tmp_path / "calib.yaml")
    cfg = tmp_path / "run.yaml"
    cfg.write_text("calibration_scenarios: calib.yaml\n")
    assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "t.yaml")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: run config {str(cfg)!r} has a bad field: ")
    assert "calibration_scenarios must be a list of strings, got 'calib.yaml'" in err
    assert err.count("\n") == 1


def test_integral_float_fields_are_integers(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("capacity: 256.0\n")
    capacity = load_run_config(path).params.capacity
    assert capacity == 256 and type(capacity) is int


def test_integer_real_fields_are_floats(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "frame_rate_hz: 10\nmu: 100\nwindow_s: 1\n"
        "alpha_policy: {kind: fixed, alpha: 0}\n"
        "thresholds: {tau_degree: 5, tau_closeness: 1}\n"
    )
    cfg = load_run_config(path)
    params = cfg.params
    values = [cfg.frame_rate_hz, params.mu, params.window_s, params.alpha_policy.alpha,
              params.thresholds.tau_degree, params.thresholds.tau_closeness]
    assert values == [10.0, 100.0, 1.0, 0.0, 5.0, 1.0]
    assert all(type(v) is float for v in values)


# analyze formats centrality.csv in a forked child on two usable CPUs, and
# in its own process otherwise; _usable_cpus selects the path
ANALYZE_OUTPUTS = ("report.json", "windows.csv", "centrality.csv")


@pytest.fixture
def analyze_path(tmp_path, monkeypatch):
    """Set the path analyze takes; count its forks; keep its temporary files apart."""
    from drivestyle import cli

    temporary = tmp_path / "temporary"
    temporary.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temporary))
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)

    def select(forked: bool | None):
        """Fork (True), write in one process (False), or leave it to the CPUs (None)."""
        if forked is not None:
            monkeypatch.setattr(cli, "_usable_cpus", lambda: 2 if forked else 1)
        forks.clear()
        return forks

    yield select
    # nothing outlives main: no child to reap, no temporary file
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not any(temporary.iterdir())


def _analyze(analyzed_run, out) -> int:
    return main(["analyze", "--trajectories", str(analyzed_run / "trajectories.csv"),
                 "--frame-rate", "10", "--window", "1.0", "--stride", "0.5",
                 "--out", str(out)])


def test_forked_and_serial_analyze_write_the_same_bytes(analyzed_run, analyze_path, tmp_path):
    for forked, out in ((True, tmp_path / "forked"), (False, tmp_path / "serial")):
        forks = analyze_path(forked)
        assert _analyze(analyzed_run, out) == 0
        assert len(forks) == forked
    for name in ANALYZE_OUTPUTS:
        assert (tmp_path / "forked" / name).read_bytes() == (
            tmp_path / "serial" / name).read_bytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_analyze_forks_only_on_two_usable_cpus(analyzed_run, analyze_path, tmp_path):
    cpus = os.sched_getaffinity(0)
    try:
        for allowed in ({min(cpus)}, cpus):
            os.sched_setaffinity(0, allowed)
            forks = analyze_path(None)
            assert _analyze(analyzed_run, tmp_path / str(len(allowed))) == 0
            assert len(forks) == (len(allowed) >= 2)
    finally:
        os.sched_setaffinity(0, cpus)


def test_centrality_csv_that_is_a_directory_fails_as_the_serial_write_does(
    analyzed_run, analyze_path, tmp_path, capsys
):
    out = tmp_path / "out"
    (out / "centrality.csv").mkdir(parents=True)
    errors = []
    for forked in (True, False):
        analyze_path(forked)
        assert _analyze(analyzed_run, out) == 1
        errors.append(capsys.readouterr().err)
    path = out / "centrality.csv"
    assert errors == [f"error: cannot write centrality series {str(path)!r}: Is a directory\n"] * 2


def test_analysis_that_raises_after_the_fork_writes_nothing(
    analyzed_run, analyze_path, tmp_path, monkeypatch, capsys
):
    from drivestyle import cli

    def failing(*args, **kwargs):
        raise ValidationError("analysis failed")

    monkeypatch.setattr(cli, "analyze_table", failing)
    forks = analyze_path(True)
    out = tmp_path / "out"
    assert _analyze(analyzed_run, out) == 1
    assert len(forks) == 1
    assert capsys.readouterr().err == "error: analysis failed\n"
    assert not out.exists()


@pytest.mark.parametrize("fault", ["child_fails", "no_temporary_file"])
def test_analyze_writes_the_series_itself_when_the_child_cannot(
    fault, analyzed_run, analyze_path, tmp_path, monkeypatch
):
    from drivestyle import cli

    analyze_path(False)
    assert _analyze(analyzed_run, tmp_path / "serial") == 0
    forks = analyze_path(True)
    if fault == "child_fails":
        parent, write = os.getpid(), cli.series_to_csv

        def parent_only(series, dest):
            if os.getpid() != parent:
                raise OSError("the child cannot write")
            return write(series, dest)

        monkeypatch.setattr(cli, "series_to_csv", parent_only)
    else:
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    assert _analyze(analyzed_run, tmp_path / "out") == 0
    assert len(forks) == (fault == "child_fails")
    for name in ANALYZE_OUTPUTS:
        assert (tmp_path / "out" / name).read_bytes() == (
            tmp_path / "serial" / name).read_bytes()


def test_calibrate_hands_the_runs_on_one_at_a_time(tmp_path, monkeypatch):
    # the CLI feeds thresholds_from_runs an iterator, not a list: each run's
    # collision warnings print as that run is handed on
    from drivestyle import cli

    given = []

    def recording(results, params):
        given.append(results)
        return thresholds_from_runs(results, params)

    monkeypatch.setattr(cli, "thresholds_from_runs", recording)
    for i in range(2):
        save_scenario(all_conservative_scenario(i), tmp_path / f"calib{i}.yaml")
    cfg = tmp_path / "run.yaml"
    cfg.write_text("window_s: 1.0\ncalibration_scenarios: [calib0.yaml, calib1.yaml]\n")
    assert main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "t.yaml")]) == 0
    (results,) = given
    assert iter(results) is results and not isinstance(results, (list, tuple))


# Malformed inputs drawn at the CLI boundary: every draw holds a fault that
# reading it must refuse, and the command must exit 1 with one stderr line
# that starts with "error: " (no traceback, no exit 2).

# a cell's text: no "#" (a row it began would be a comment) and no line break
CELL = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6).filter(
    lambda text: "#" not in text and len(f"a{text}a".splitlines()) == 1)


def _refused_by(parse):
    """Whether ``parse`` raises ValueError on a text, stripped or not."""
    def refused(text):
        for candidate in (text, text.strip()):
            try:
                parse(candidate)
            except ValueError:
                continue
            return False
        return True
    return refused


NOT_A_NUMBER = CELL.filter(_refused_by(float))
NOT_AN_INTEGER = CELL.filter(_refused_by(int))
NON_FINITE_TEXTS = st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity"])


@st.composite
def undecodable(draw, text: str) -> bytes:
    """``text``, which is ASCII, with a byte that is not UTF-8 where it stands."""
    data = text.encode("ascii")
    at = draw(st.integers(0, len(data)))
    return data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]


TRAJECTORY_FAULTS = ["missing_column", "lone_velocity", "field_count", "non_numeric",
                     "empty_id", "unknown_type", "bad_timestamp", "bad_position",
                     "bad_velocity", "repeat_row", "no_rows", "undecodable"]


@st.composite
def malformed_trajectories(draw) -> bytes:
    fault = draw(st.sampled_from(TRAJECTORY_FAULTS))
    columns = ["timestamp", "agent_id", "agent_type", "x", "y"]
    if fault == "bad_velocity" or draw(st.booleans()):
        columns += ["vx", "vy"]
    agents = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, unique=True))
    rows = [{"timestamp": repr(k / 10), "agent_id": agent, "agent_type": "car",
             "x": repr(20.0 * n + k), "y": "0.0", "vx": "10.0", "vy": "0.0"}
            for k in range(draw(st.integers(1, 4))) for n, agent in enumerate(agents)]
    at = draw(st.integers(0, len(rows) - 1))
    row = rows[at]
    if fault == "missing_column":
        columns.remove(draw(st.sampled_from(columns[:5])))
    elif fault == "lone_velocity":
        columns = columns[:5] + [draw(st.sampled_from(["vx", "vy"]))]
    elif fault == "non_numeric":
        row[draw(st.sampled_from(["timestamp", *columns[3:]]))] = draw(NOT_A_NUMBER)
    elif fault == "empty_id":
        row["agent_id"] = draw(st.sampled_from(["", " ", " \t"]))
    elif fault == "unknown_type":
        row["agent_type"] = draw(CELL.filter(lambda text: text.strip() not in ingest.AGENT_TYPES))
    elif fault == "bad_timestamp":  # negative, not finite, or at frame 2**53 and past
        row["timestamp"] = draw(st.sampled_from(["-0.1", "9.1e14", "1e300"]) | NON_FINITE_TEXTS)
    elif fault == "bad_position":
        row[draw(st.sampled_from(["x", "y"]))] = draw(NON_FINITE_TEXTS)
    elif fault == "bad_velocity":
        row[draw(st.sampled_from(["vx", "vy"]))] = draw(NON_FINITE_TEXTS)
    elif fault == "repeat_row":
        rows.insert(at, dict(row))
    lines = [",".join(columns), *(",".join(r[c] for c in columns) for r in rows)]
    if fault == "field_count":
        line = lines[at + 1]
        lines[at + 1] = draw(st.sampled_from([line.rsplit(",", 1)[0], f"{line},{draw(CELL)}"]))
    elif fault == "no_rows":
        lines = lines[:draw(st.integers(0, 1))]
    text = "".join(line + "\n" for line in lines)
    return draw(undecodable(text)) if fault == "undecodable" else text.encode()


def _fails_with_one_error_line(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=malformed_trajectories())
def test_analyze_refuses_a_malformed_trajectory_file_with_one_line(data, tmp_path, capsys):
    path = tmp_path / "trajectories.csv"
    path.write_bytes(data)
    _fails_with_one_error_line(["analyze", "--trajectories", str(path), "--frame-rate", "10",
                                "--out", str(tmp_path / "out")], capsys)


LABEL_FAULTS = ["header", "field_count", "non_integer", "negative", "reversed", "past_2_53",
                "unknown_style", "no_header", "undecodable"]


@st.composite
def malformed_labels(draw) -> bytes:
    fault = draw(st.sampled_from(LABEL_FAULTS))
    header = LABEL_HEADERS[draw(st.sampled_from(sorted(LABEL_HEADERS)))].split(",")
    rows = [{"video_id": "v", "agent_id": draw(st.sampled_from(["subject", "g0", "nobody"])),
             "style": draw(st.sampled_from(STYLE_CODES)), "annotator_id": "p1",
             "start_frame": str(start), "end_frame": str(start + draw(st.integers(0, 40)))}
            for start in draw(st.lists(st.integers(0, 170), min_size=1, max_size=3))]
    at = draw(st.integers(0, len(rows) - 1))
    row = rows[at]
    frame = draw(st.sampled_from(["start_frame", "end_frame"]))
    if fault == "non_integer":
        row[frame] = draw(NOT_AN_INTEGER)
    elif fault == "negative":
        row["start_frame"] = str(-draw(st.integers(1, 10**30)))
    elif fault == "reversed":
        row["start_frame"] = str(int(row["end_frame"]) + draw(st.integers(1, 10**30)))
    elif fault == "past_2_53":
        row["end_frame"] = str(draw(st.integers(2**53, 10**400)))
    elif fault == "unknown_style":
        row["style"] = draw(CELL.filter(lambda text: text.strip() not in STYLE_CODES))
    lines = [",".join(header), *(",".join(r[c] for c in header) for r in rows)]
    if fault == "header":
        lines[0] = ",".join(draw(st.permutations(header))[:draw(st.integers(1, len(header)))]
                            + draw(st.lists(CELL, max_size=1)))
        assume(lines[0] != ",".join(header))
    elif fault == "field_count":
        line = lines[at + 1]
        lines[at + 1] = draw(st.sampled_from([line.rsplit(",", 1)[0], f"{line},{draw(CELL)}"]))
    elif fault == "no_header":
        lines = draw(st.lists(st.sampled_from(["", "# labels"]), max_size=2))
    text = "".join(line + "\n" for line in lines)
    return draw(undecodable(text)) if fault == "undecodable" else text.encode()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=malformed_labels())
def test_evaluate_refuses_a_malformed_label_file_with_one_line(data, analyzed_run, tmp_path,
                                                               capsys):
    path = tmp_path / "labels.csv"
    path.write_bytes(data)
    _fails_with_one_error_line(["evaluate", "--report", str(analyzed_run / "report.json"),
                                "--labels", str(path), "--out", str(tmp_path / "out")], capsys)


# the values of no field: a text, a bool, a list, a mapping
WRONG_TYPES = (st.text(max_size=4) | st.booleans() | st.lists(st.integers(), max_size=2)
               | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
# a float field's values out of its range: not positive, or not finite
NOT_POSITIVE = st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf])
RUN_CONFIG_KEYS = {"frame_rate_hz", "calibration_scenarios", "mu", "capacity", "window_s",
                   "stride_s", "epsilon_s", "alpha_policy", "thresholds"}
# a value each run-config key refuses (only stride_s and frame_rate_hz may be null)
BAD_RUN_CONFIG_VALUES = {
    "mu": WRONG_TYPES | NOT_POSITIVE | st.none(),
    "window_s": WRONG_TYPES | NOT_POSITIVE | st.none(),
    "epsilon_s": WRONG_TYPES | NOT_POSITIVE | st.none(),
    "stride_s": WRONG_TYPES | NOT_POSITIVE,
    "frame_rate_hz": WRONG_TYPES | NOT_POSITIVE,
    "capacity": (WRONG_TYPES | st.integers(max_value=0) | st.none()
                 | st.floats().filter(lambda v: not v.is_integer())),
    "alpha_policy": st.text(max_size=4) | st.integers() | st.lists(st.integers()) | st.none()
    | st.fixed_dictionaries({"kind": st.text(max_size=4).filter(
        lambda kind: kind not in ("grid", "fixed"))}),
    "thresholds": st.text(max_size=4) | st.integers() | st.lists(st.integers()) | st.none(),
    "calibration_scenarios": (st.text(max_size=4) | st.integers() | st.none()
                              | st.lists(st.integers() | st.none(), min_size=1, max_size=2)),
}
YAML_SYNTAX_ERRORS = ["key: [1", "key: {a: 1", "key: 'open", 'key: "open', "key: *nowhere",
                      "key: a: b", "key: 1\n- 2", "\tkey: 1", "key: !!python/name:os.system ''"]
# characters the YAML reader refuses anywhere in a stream
NOT_PRINTABLE = [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), *range(0x7F, 0x85),
                 *range(0x86, 0xA0), 0xFFFE, 0xFFFF]
RUN_CONFIG_FAULTS = ["not_mapping", "unknown_key", "bad_value", "syntax", "not_printable",
                     "deep", "long_integer", "undecodable"]
# faults only calibrate refuses, as analyze reads no calibration scenario:
# "no_scenarios" is the drawn mapping as it is, which lists none
CALIBRATE_FAULTS = ["no_scenarios", "unreadable_scenario"]


@st.composite
def malformed_run_configs(draw, faults) -> bytes:
    fault = draw(st.sampled_from(faults))
    mapping = draw(st.fixed_dictionaries({}, optional={
        "frame_rate_hz": st.just(10.0), "window_s": st.just(1.0), "stride_s": st.just(0.5)}))
    if fault == "unreadable_scenario":
        # a missing file, a directory (the config's own) or a name no file may have
        mapping["calibration_scenarios"] = [draw(
            st.sampled_from(["", ".", "a\0b"])
            | CELL.filter(lambda text: "/" not in text and "\\" not in text).map("missing-".__add__))]
    elif fault == "unknown_key":
        mapping[draw(st.text(max_size=8).filter(lambda key: key not in RUN_CONFIG_KEYS))] = 1
    elif fault == "bad_value":
        key = draw(st.sampled_from(sorted(BAD_RUN_CONFIG_VALUES)))
        mapping[key] = draw(BAD_RUN_CONFIG_VALUES[key])
    document = mapping
    if fault == "not_mapping":
        document = draw(st.lists(st.integers(), max_size=2) | st.integers() | st.text(max_size=4)
                        | st.booleans())
    text = yaml.safe_dump(document)
    if fault == "syntax":
        text += draw(st.sampled_from(YAML_SYNTAX_ERRORS)) + "\n"
    elif fault == "not_printable":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + chr(draw(st.sampled_from(NOT_PRINTABLE))) + text[at:]
    elif fault == "deep":  # past the depth the reader allows, up to where libyaml overflowed
        depth = draw(st.integers(65, 100_000))
        text += draw(st.sampled_from([f"mu: {'[' * depth}{']' * depth}\n",
                                      f"mu:\n{'- ' * depth}1\n"]))
    elif fault == "long_integer":  # past Python's int digit limit, or past a float
        text += f"mu: {'9' * draw(st.integers(400, 6000))}\n"
    return draw(undecodable(text)) if fault == "undecodable" else text.encode()


@pytest.mark.parametrize("command", ["analyze", "calibrate"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_malformed_run_config_fails_with_one_line(command, data, tmp_path, capsys):
    path = tmp_path / "run.yaml"
    if command == "analyze":
        path.write_bytes(data.draw(malformed_run_configs(RUN_CONFIG_FAULTS)))
        trajectories = tmp_path / "trajectories.csv"
        trajectories.write_text("timestamp,agent_id,agent_type,x,y\n0.0,a,car,0.0,0.0\n"
                                "0.1,a,car,1.0,0.0\n")
        argv = ["analyze", "--trajectories", str(trajectories), "--config", str(path),
                "--frame-rate", "10", "--out", str(tmp_path / "out")]
    else:
        faults = RUN_CONFIG_FAULTS + CALIBRATE_FAULTS
        path.write_bytes(data.draw(malformed_run_configs(faults)))
        argv = ["calibrate", "--config", str(path), "--out", str(tmp_path / "thresholds.yaml")]
    _fails_with_one_error_line(argv, capsys)


REPORT_FILE_FAULTS = ["truncated", "not_object", "schema", "missing_key", "bad_value",
                      "repeated_agent", "unknown_field", "deep", "long_integer", "undecodable"]


@st.composite
def malformed_reports(draw, payload: dict) -> bytes:
    """``payload``, an analysed report, as JSON with one fault ``evaluate`` refuses."""
    fault = draw(st.sampled_from(REPORT_FILE_FAULTS))
    text = json.dumps(payload, separators=(",", ":"))
    if fault == "truncated":  # a proper prefix of one JSON object
        return text[:draw(st.integers(0, len(text) - 2))].encode()
    if fault == "undecodable":
        return draw(undecodable(text))
    if fault == "long_integer":  # past Python's int digit limit, or past a float
        return text.replace('"frame_rate_hz":10.0', '"frame_rate_hz":'
                            + "9" * draw(st.integers(400, 6000))).encode()
    payload = copy.deepcopy(payload)
    agent = draw(st.sampled_from(payload["agents"]))
    style = agent["styles"][draw(st.sampled_from(sorted(agent["styles"])))]
    if fault == "not_object":
        payload = draw(st.lists(st.integers(), max_size=2) | st.integers() | st.text(max_size=4)
                       | st.none() | st.booleans())
    elif fault == "schema":
        payload["schema_version"] = draw((st.text(max_size=2) | st.integers() | st.none())
                                         .filter(lambda version: version != SCHEMA_VERSION))
    elif fault == "missing_key":
        where, key = draw(st.sampled_from(
            [(payload, k) for k in ("schema_version", "params", "frame_rate_hz", "agents")]
            + [(agent, k) for k in ("agent_id", "window", "global_label", "styles")]
            + [(style, k) for k in ("t_sle", "detected")]))
        del where[key]
    elif fault == "bad_value":
        where, key, values = draw(st.sampled_from([
            (payload, "frame_rate_hz", WRONG_TYPES | NOT_POSITIVE | st.none()),
            (payload, "agents", st.integers() | st.none() | st.text(min_size=1, max_size=3)),
            (agent, "agent_id", st.integers() | st.none() | st.lists(st.text(), max_size=1)),
            (agent, "global_label", st.text(max_size=12).filter(
                lambda label: label not in ("aggressive", "conservative"))),
            (style, "t_sle", (WRONG_TYPES | st.sampled_from([math.nan, math.inf, 1e300]))),
            (style, "detected", st.integers() | st.none() | st.text(max_size=4)),
            (payload["params"], draw(st.sampled_from(["mu", "window_s", "epsilon_s"])),
             WRONG_TYPES | NOT_POSITIVE | st.none()),
        ]))
        where[key] = draw(values)
    elif fault == "repeated_agent":
        payload["agents"].insert(draw(st.integers(0, len(payload["agents"]))), agent)
    elif fault == "unknown_field":
        style[draw(st.text(max_size=6).filter(lambda name: name not in style))] = 0
    elif fault == "deep":  # deeper than the decoder, or the repr of the value, recurses
        depth = draw(st.integers(1, 5000))
        style["t_sle"] = "nested"
        return json.dumps(payload).replace('"nested"', f'{"[" * depth}1{"]" * depth}').encode()
    return json.dumps(payload).encode()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_evaluate_refuses_a_malformed_report_with_one_line(data, analyzed_run, tmp_path, capsys):
    path = tmp_path / "report.json"
    payload = json.loads((analyzed_run / "report.json").read_text())
    path.write_bytes(data.draw(malformed_reports(payload)))
    _fails_with_one_error_line(["evaluate", "--report", str(path), "--labels",
                                str(analyzed_run / "labels.csv"), "--out", str(tmp_path / "out")],
                               capsys)
