import hashlib

import numpy as np

from drivestyle.centrality import compute_series, series_to_csv
from drivestyle.ingest import parse_trajectories, serialize_trajectories
from drivestyle.scenarios import (
    all_conservative_scenario,
    calibration_scenarios,
    congested_wave_scenario,
    lane_change_scenario,
    mixed_behavior_scenario,
    overspeed_scenario,
    overtake_scenario,
    suite_analysis_params,
    tde_suite,
    weaving_scenario,
)
from drivestyle.sim import run_scenario
from oracles import records, replay_degree


def test_suite_composition():
    suite = tde_suite()
    assert len(suite) == 20
    by_style = {}
    for s in suite:
        by_style.setdefault(s.style, []).append(s.name)
        s.config.validate()
        assert s.config.maneuvers, s.name
    assert {k: len(v) for k, v in by_style.items()} == {
        "OS": 5, "OT": 5, "SLC": 5, "W": 5
    }
    assert len({s.name for s in suite}) == 20


def test_builders_deterministic():
    assert overspeed_scenario(3) == overspeed_scenario(3)
    assert weaving_scenario(1) == weaving_scenario(1)
    assert overspeed_scenario(3) != overspeed_scenario(4)


def test_overspeed_ground_truth_matches_simulated_encounters():
    # the scripted label must bracket the passer's actual first-encounter
    # frames with slower vehicles, replayed from the simulated table
    for seed in range(3):
        config = overspeed_scenario(seed)
        result = run_scenario(config)
        label = result.labels[0]
        deg = replay_degree(result.table, mu=100.0)["passer"]
        steps = [t for (t, v), (_, w) in zip(deg, deg[1:]) if w > v]
        first, last = steps[0], steps[-1] + 1
        assert abs(first - label.start_frame) <= 1
        assert abs(last - label.end_frame) <= 1


def test_overtake_ground_truth_brackets_proximity():
    for seed in range(3):
        config = overtake_scenario(seed)
        result = run_scenario(config)
        label = result.labels[0]
        # frames where the passer is inside anyone's proximity radius
        inside = []
        for idx, frame in sorted(records(result.table).items()):
            frames = {fr.agent_id: fr.position for fr in frame}
            px, py = frames["passer"]
            for aid, (x, y) in frames.items():
                if aid != "passer" and (px - x) ** 2 + (py - y) ** 2 < 100.0:
                    inside.append(idx)
                    break
        assert abs(inside[0] - label.start_frame) <= 1
        assert abs(inside[-1] - label.end_frame) <= 1


def test_lane_change_script_matches_label():
    config = lane_change_scenario(0)
    (script,) = config.lane_change_scripts
    (label,) = config.maneuvers
    assert label.start_frame == script.frame
    assert label.end_frame == script.frame + 30  # 3 s transition at 10 Hz


def test_weaving_subject_visits_three_lanes():
    result = run_scenario(weaving_scenario(0))
    ys = [
        fr.position[1]
        for _, frame in sorted(records(result.table).items())
        for fr in frame
        if fr.agent_id == "subject"
    ]
    assert min(ys) <= 0.5           # reached lane 0
    assert max(ys) >= 7.5           # reached lane 2
    assert ys[0] == 4.0             # started in lane 1


def test_population_compositions():
    mixed = mixed_behavior_scenario(2)
    classes = [s.vehicle_class for s in mixed.spawns]
    assert classes.count("conservative") == 9
    assert classes.count("aggressive") == 1
    calm = all_conservative_scenario(0)
    assert all(s.vehicle_class == "conservative" for s in calm.spawns)
    wave = congested_wave_scenario(0)
    assert all(s.vehicle_class == "conservative" for s in wave.spawns)
    assert len(calibration_scenarios()) == 4


def test_suite_params_are_consistent():
    params = suite_analysis_params()
    assert params.window_s == 1.0
    assert params.effective_stride() == 0.5
    assert params.mu == 100.0


def test_lane_change_t_sle_within_a_second_of_midpoint():
    from drivestyle.pipeline import analyze_table
    from drivestyle.styles import STYLE_OVERTAKE_LANE_CHANGE

    for seed in range(3):
        config = lane_change_scenario(seed)
        result = run_scenario(config)
        report = analyze_table(result.table, suite_analysis_params())
        label = result.labels[0]
        midpoint = (label.start_frame + label.end_frame) / 2.0 / 10.0
        t_sle = report.agent("subject").styles[STYLE_OVERTAKE_LANE_CHANGE].t_sle
        assert abs(t_sle - midpoint) < 1.0


def test_overspeed_t_sle_within_a_second_and_dominates_platoon():
    from drivestyle.pipeline import analyze_table
    from drivestyle.styles import STYLE_OVERSPEEDING

    for seed in range(3):
        result = run_scenario(overspeed_scenario(seed))
        report = analyze_table(result.table, suite_analysis_params())
        label = result.labels[0]
        midpoint = (label.start_frame + label.end_frame) / 2.0 / 10.0
        passer = report.agent("passer").styles[STYLE_OVERSPEEDING]
        assert abs(passer.t_sle - midpoint) < 1.0
        for agent in report.agents:
            if agent.agent_id != "passer":
                assert passer.sle_max > agent.styles[STYLE_OVERSPEEDING].sle_max


def test_weaving_subject_flagged_aggressive_at_default_thresholds():
    from drivestyle.pipeline import analyze_table
    from drivestyle.styles import STYLE_WEAVING

    result = run_scenario(weaving_scenario(0))
    report = analyze_table(result.table, suite_analysis_params())
    subject = report.agent("subject")
    assert subject.styles[STYLE_WEAVING].count >= 2
    assert subject.global_label == "aggressive"


def test_simulated_table_bytes_are_pinned():
    # sha256 of the lane-change scenario's trajectory text, of its
    # positions-only copy read back (velocities by differences) and of its
    # centrality series CSV; no least-squares fit, so no BLAS, is involved
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    table = run_scenario(lane_change_scenario(0)).table
    text = serialize_trajectories(table)
    assert sha(text) == (
        "3716c3f86541bad234f5f195feb61c0fb8ee34a4c75264a8baf7775ac6a6d30a"
    )
    positions = "".join(
        ",".join(line.split(",")[:5]) + "\n" for line in text.splitlines()
    )
    again = parse_trajectories(text=positions, frame_rate_hz=10.0)
    assert sha(serialize_trajectories(again)) == (
        "9f10a85b2324607a3ae5908ed9926bee177f164be4b999210159a3fc122b97f3"
    )
    assert sha(series_to_csv(compute_series(table, 100.0))) == (
        "df27af4bcd5e9e5b69e1a24bf89ae22d04cb2cbfc42f2d43c3627f502cbbb0e7"
    )
