import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from drivestyle.errors import ValidationError
from drivestyle.evaluation import annotations_from_labels, parse_annotations
from drivestyle.ingest import serialize_trajectories
from drivestyle.pipeline import analyze_table
from drivestyle.sim import (
    AGGRESSIVE_PARAMS,
    CONSERVATIVE_PARAMS,
    VEHICLE_LENGTH_M,
    LaneChangeScript,
    LaneIndex,
    ManeuverLabel,
    ScenarioConfig,
    SimAgent,
    SpawnSpec,
    World,
    build_world,
    idm_acceleration,
    load_scenario,
    mobil_decision,
    run_scenario,
    save_scenario,
    step,
    write_labels,
)
from oracles import scan_neighbors_in_lane


def agent(aid, lane, x, speed, params=CONSERVATIVE_PARAMS, **kw):
    cls = "aggressive" if params is AGGRESSIVE_PARAMS else "conservative"
    return SimAgent(agent_id=aid, vehicle_class=cls, lane=lane, x=x, speed=speed,
                    params=params, **kw)


# --- car-following law ----------------------------------------------------

def test_idm_full_throttle_from_rest():
    ego = agent("e", 0, 0.0, 0.0)
    assert idm_acceleration(ego, None) == CONSERVATIVE_PARAMS.a_max


def test_idm_equilibrium_at_desired_speed():
    ego = agent("e", 0, 0.0, CONSERVATIVE_PARAMS.v0)
    assert idm_acceleration(ego, None) == pytest.approx(0.0, abs=1e-12)


def test_idm_hand_value_at_desired_gap():
    # conservative class, v=20, dv=0, gap exactly s* = 5 + 20*1.5 = 35:
    # a = 3 * (1 - (20/25)^4 - 1) = -1.2288
    ego = agent("e", 0, 0.0, 20.0)
    leader = agent("l", 0, 35.0 + VEHICLE_LENGTH_M, 20.0)
    assert idm_acceleration(ego, leader) == pytest.approx(-1.2288, abs=1e-12)


def test_idm_collision_logged_with_emergency_braking():
    ego = agent("e", 0, 0.0, 10.0)
    leader = agent("l", 0, 4.0, 10.0)  # gap = -1 m
    log = []
    acc = idm_acceleration(ego, leader, log, frame=17)
    assert acc == -CONSERVATIVE_PARAMS.b_comf
    assert log[0].frame == 17 and log[0].agent_id == "e"


def test_idm_never_exceeds_max_acceleration():
    rng = np.random.default_rng(2)
    for _ in range(200):
        params = CONSERVATIVE_PARAMS if rng.random() < 0.5 else AGGRESSIVE_PARAMS
        ego = agent("e", 0, 0.0, float(rng.uniform(0, 45)), params)
        leader = None
        if rng.random() < 0.7:
            leader = agent("l", 0, float(rng.uniform(6, 120)), float(rng.uniform(0, 45)))
        assert idm_acceleration(ego, leader) <= params.a_max + 1e-12


# --- lane-change rule -----------------------------------------------------

def test_mobil_free_target_lane_approves_blocked_aggressive():
    ego = agent("e", 0, 0.0, 30.0, AGGRESSIVE_PARAMS)
    slow_leader = agent("l", 0, 25.0, 10.0)
    decision = mobil_decision(ego, slow_leader, None, None, None)
    assert decision.incentive > 0.0  # pure ego gain with p = 0
    assert decision.approved


def test_mobil_rejects_unsafe_follower_braking():
    ego = agent("e", 0, 0.0, 10.0, AGGRESSIVE_PARAMS)
    fast_follower = agent("f", 1, -7.0, 40.0)
    decision = mobil_decision(ego, None, None, None, fast_follower)
    assert not decision.safety_ok
    assert decision.new_follower_acceleration < -AGGRESSIVE_PARAMS.b_safe
    assert not decision.approved


def test_mobil_symmetric_scene_has_zero_incentive():
    for params in (CONSERVATIVE_PARAMS, AGGRESSIVE_PARAMS):
        ego = agent("e", 0, 0.0, 20.0, params)
        leader = agent("lc", 0, 40.0, 20.0)
        follower = agent("fc", 0, -40.0, 20.0)
        t_leader = agent("lt", 1, 40.0, 20.0)
        t_follower = agent("ft", 1, -40.0, 20.0)
        decision = mobil_decision(ego, leader, follower, t_leader, t_follower)
        assert decision.incentive == 0.0
        assert not decision.approved  # incentive must strictly exceed the gain threshold


def test_mobil_incentive_is_politeness_weighted_sum():
    ego = agent("e", 0, 0.0, 22.0, replace(CONSERVATIVE_PARAMS, politeness=1.0))
    leader = agent("lc", 0, 30.0, 15.0)
    follower = agent("fc", 0, -28.0, 24.0)
    t_leader = agent("lt", 1, 55.0, 23.0)
    t_follower = agent("ft", 1, -35.0, 21.0)
    decision = mobil_decision(ego, leader, follower, t_leader, t_follower)
    gain_ego = idm_acceleration(ego, t_leader) - idm_acceleration(ego, leader)
    gain_n = idm_acceleration(t_follower, ego) - idm_acceleration(t_follower, t_leader)
    gain_o = idm_acceleration(follower, leader) - idm_acceleration(follower, ego)
    assert decision.incentive == pytest.approx(gain_ego + gain_n + gain_o, abs=1e-12)


def test_mobil_rejects_non_positive_insertion_gap():
    ego = agent("e", 0, 0.0, 20.0, AGGRESSIVE_PARAMS)
    overlapping = agent("x", 1, 3.0, 20.0)
    decision = mobil_decision(ego, None, None, overlapping, None)
    assert not decision.approved and not decision.safety_ok


def _random_scene(rng):
    params = AGGRESSIVE_PARAMS if rng.random() < 0.5 else CONSERVATIVE_PARAMS
    ego = agent("e", 0, 0.0, float(rng.uniform(0, 40)), params)

    def maybe(aid, lane, lo, hi):
        if rng.random() < 0.75:
            return agent(aid, lane, float(rng.uniform(lo, hi)), float(rng.uniform(0, 40)))
        return None

    return (
        ego,
        maybe("cl", 0, 6, 150),
        maybe("cf", 0, -150, -6),
        maybe("tl", 1, -20, 150),
        maybe("tf", 1, -150, 20),
    )


def test_mobil_soundness_on_random_scenes():
    rng = np.random.default_rng(99)
    approved = 0
    for _ in range(300):
        ego, cl, cf, tl, tf = _random_scene(rng)
        decision = mobil_decision(ego, cl, cf, tl, tf)
        if not decision.approved:
            continue
        approved += 1
        # replay both criteria from scratch
        if tf is not None:
            assert idm_acceleration(tf, ego) >= -ego.params.b_safe
        gain_ego = idm_acceleration(ego, tl) - idm_acceleration(ego, cl)
        gain_n = 0.0 if tf is None else idm_acceleration(tf, ego) - idm_acceleration(tf, tl)
        gain_o = 0.0 if cf is None else idm_acceleration(cf, cl) - idm_acceleration(cf, ego)
        incentive = gain_ego + ego.params.politeness * (gain_n + gain_o)
        assert incentive > ego.params.delta_a_th
    assert approved > 10  # the sampler must actually exercise approvals


# --- stepping -------------------------------------------------------------

def _single_agent_config(mode, speed, duration=1.0):
    return ScenarioConfig(
        lane_count=2,
        road_length_m=5000.0,
        timestep_s=0.1,
        duration_s=duration,
        spawns=[SpawnSpec("a", "conservative", 0, 100.0, speed, longitudinal=mode)],
        randomize_conservative_v0=False,
    )


def test_step_advances_at_desired_speed():
    for mode in ("cruise", "idm"):
        world = build_world(_single_agent_config(mode, 25.0))
        x0 = world.agents[0].x
        step(world, 0.1)
        assert world.agents[0].x == pytest.approx(x0 + 25.0 * 0.1)
        assert world.agents[0].speed == pytest.approx(25.0, abs=1e-9)


def test_step_rejects_mismatched_dt():
    world = build_world(_single_agent_config("idm", 25.0))
    with pytest.raises(ValidationError):
        step(world, 0.2)


def test_speed_clamped_at_zero():
    config = ScenarioConfig(
        lane_count=1, road_length_m=1000.0, timestep_s=0.1, duration_s=1.0,
        spawns=[
            SpawnSpec("stopped", "conservative", 0, 60.0, 0.0, longitudinal="cruise"),
            SpawnSpec("braker", "conservative", 0, 52.0, 3.0),
        ],
        randomize_conservative_v0=False,
    )
    world = build_world(config)
    for _ in range(10):
        step(world, 0.1)
        assert world.agents[1].speed >= 0.0


def test_platoon_converges_to_equilibrium_gap():
    # slow cruise leader at 10 m/s; conservative followers settle at a gap
    # within 2% of s*(10, 0) = 5 + 10 * 1.5 = 20 m after 300 s
    spawns = [SpawnSpec("lead", "conservative", 0, 500.0, 10.0, longitudinal="cruise")]
    for i in range(3):
        spawns.append(
            SpawnSpec(f"f{i}", "conservative", 0, 470.0 - 30.0 * i, 10.0,
                      mobil_enabled=False)
        )
    config = ScenarioConfig(
        lane_count=1, road_length_m=50000.0, timestep_s=0.1, duration_s=300.0,
        spawns=spawns, randomize_conservative_v0=False,
    )
    world = build_world(config)
    for _ in range(config.frame_count()):
        step(world, 0.1)
    ordered = sorted(world.agents, key=lambda a: -a.x)
    s_star = 5.0 + 10.0 * 1.5
    for front, back in zip(ordered, ordered[1:]):
        gap = front.x - back.x - VEHICLE_LENGTH_M
        assert abs(gap - s_star) / s_star <= 0.02
        assert back.speed == pytest.approx(10.0, abs=0.05)


def test_deterministic_output_bytes():
    config = ScenarioConfig(
        lane_count=2, road_length_m=3000.0, timestep_s=0.1, duration_s=8.0,
        spawns=[
            SpawnSpec("a", "conservative", 0, 100.0, 24.0),
            SpawnSpec("b", "conservative", 0, 160.0, 24.0),
            SpawnSpec("c", "aggressive", 1, 0.0, 35.0),
        ],
        seed=7,
    )
    first = serialize_trajectories(run_scenario(config).table)
    second = serialize_trajectories(run_scenario(config).table)
    assert first == second
    third = serialize_trajectories(run_scenario(replace_seed(config, 8)).table)
    assert third != first


def replace_seed(config, seed):
    from dataclasses import replace as dc_replace

    return dc_replace(config, seed=seed)


# --- lane index -------------------------------------------------------------

def _dense_tied_config(seed):
    """60 agents on 3 lanes over 200 m, with many exact x ties.

    Spawns sit on a 5 m grid, so agents share an x within and across
    lanes; cruisers all drive at 20 m/s and keep their ties for the whole
    run; MOBIL runs every step and scripts force extra lane changes.
    """
    rng = np.random.default_rng(seed)
    spawns = []
    for i in range(60):
        cruise = i % 4 == 0
        spawns.append(SpawnSpec(
            f"a{i:02d}",
            "aggressive" if i % 3 == 0 else "conservative",
            int(rng.integers(0, 3)),
            float(rng.integers(0, 40)) * 5.0,
            20.0 if cruise else float(rng.integers(3, 7)) * 5.0,
            longitudinal="cruise" if cruise else "idm",
        ))
    scripts = [
        LaneChangeScript(f"a{i:02d}", int(rng.integers(0, 40)), int(rng.integers(0, 3)))
        for i in range(1, 60, 6)
    ]
    return ScenarioConfig(
        lane_count=3, road_length_m=200.0, timestep_s=0.1, duration_s=4.0,
        spawns=spawns, lane_change_scripts=scripts, seed=seed, mobil_period_s=0.1,
    )


def _assert_index_matches_scan(index, agents, lane_count):
    ties = 0
    for pos, ego in enumerate(agents):
        for lane in range(lane_count):
            leader, follower = index.leader(pos, lane), index.follower(pos, lane)
            want_leader, want_follower = scan_neighbors_in_lane(agents, ego, lane)
            assert leader is want_leader and follower is want_follower
            ties += sum(1 for other in agents
                        if other is not ego and other.lane == lane and other.x == ego.x)
    return ties


def test_lane_index_matches_scan_at_every_step():
    rng = np.random.default_rng(17)
    config = _dense_tied_config(3)
    world = build_world(config)
    ties = moves = 0
    for _ in range(config.frame_count()):
        ties += _assert_index_matches_scan(
            LaneIndex(world.agents), world.agents, config.lane_count
        )
        # lane changes made after the index was built, on a copy of the world
        agents = copy.deepcopy(world.agents)
        index = LaneIndex(agents)
        for pos in rng.choice(len(agents), 8, replace=False):
            from_lane = agents[pos].lane
            agents[pos].lane = int(rng.integers(0, config.lane_count))
            index.move(int(pos), from_lane)
            moves += 1
            _assert_index_matches_scan(index, agents, config.lane_count)
        step(world, config.timestep_s)
    assert ties > 100 and moves > 0


def test_step_lane_queries_match_scan(monkeypatch):
    # every query step() makes, including those after a MOBIL change in the
    # same step, answers what a scan of the live agent list answers
    seen = {"queries": 0, "moves": 0, "ego_ties": 0}
    leader, follower, move = LaneIndex.leader, LaneIndex.follower, LaneIndex.move

    def checked(query, side):
        def wrapper(self, pos, lane):
            got = query(self, pos, lane)
            ego = self.agents[pos]
            assert got is scan_neighbors_in_lane(self.agents, ego, lane)[side]
            seen["queries"] += 1
            seen["ego_ties"] += any(
                o is not ego and o.lane == lane and o.x == ego.x for o in self.agents
            )
            return got
        return wrapper

    def counted_move(self, pos, from_lane):
        seen["moves"] += 1
        move(self, pos, from_lane)

    monkeypatch.setattr(LaneIndex, "leader", checked(leader, 0))
    monkeypatch.setattr(LaneIndex, "follower", checked(follower, 1))
    monkeypatch.setattr(LaneIndex, "move", counted_move)
    for seed in range(3):
        config = _dense_tied_config(seed)
        world = build_world(config)
        for _ in range(config.frame_count()):
            step(world, config.timestep_s)
    assert seen["queries"] > 1000 and seen["moves"] > 0 and seen["ego_ties"] > 0


def test_zero_duration_scenario_is_empty():
    config = ScenarioConfig(
        lane_count=1, road_length_m=100.0, timestep_s=0.1, duration_s=0.0,
        spawns=[SpawnSpec("a", "conservative", 0, 0.0, 10.0)],
    )
    result = run_scenario(config)
    assert result.table.frames == {}
    assert result.labels == []
    with pytest.raises(ValidationError, match="^cannot compute centralities on an empty"):
        analyze_table(result.table)


def test_zero_spawn_scenario_is_empty():
    # 20 frames with no agent hold no rows: the same empty table, which
    # analysis rejects as it rejects a zero-duration run
    config = ScenarioConfig(
        lane_count=1, road_length_m=100.0, timestep_s=0.1, duration_s=2.0, spawns=[]
    )
    result = run_scenario(config)
    assert len(result.table.frame) == 0 and result.table.frames == {}
    assert serialize_trajectories(result.table).splitlines() == [
        "timestamp,agent_id,agent_type,x,y,vx,vy"
    ]
    with pytest.raises(ValidationError, match="^cannot compute centralities on an empty"):
        analyze_table(result.table)


def test_scripted_lane_changes_echo_labels_and_move_laterally():
    config = ScenarioConfig(
        lane_count=2, road_length_m=4000.0, timestep_s=0.1, duration_s=12.0,
        spawns=[SpawnSpec("w", "aggressive", 0, 100.0, 30.0,
                          longitudinal="cruise", mobil_enabled=False)],
        lane_change_scripts=[
            LaneChangeScript("w", frame=10, target_lane=1),
            LaneChangeScript("w", frame=60, target_lane=0),
        ],
        maneuvers=[ManeuverLabel("w", "W", 10, 90)],
    )
    result = run_scenario(config)
    assert result.labels == [ManeuverLabel("w", "W", 10, 90)]
    ys = [result.table.frames[k][0].position[1] for k in sorted(result.table.frames)]
    assert ys[0] == 0.0
    assert max(ys) == pytest.approx(4.0, abs=1e-6)  # reached lane 1 center
    assert ys[-1] == pytest.approx(0.0, abs=1e-6)   # returned to lane 0
    # lateral motion is smooth: no jumps larger than the cosine peak rate
    peak = 4.0 * math.pi / (2 * 3.0) * 0.1
    assert max(abs(b - a) for a, b in zip(ys, ys[1:])) <= peak + 1e-9


def test_mobil_overtake_happens_in_mixed_traffic():
    # aggressive agent blocked behind a lane-pinned slow leader moves over
    config = ScenarioConfig(
        lane_count=2, road_length_m=5000.0, timestep_s=0.1, duration_s=20.0,
        spawns=[
            SpawnSpec("slow", "conservative", 0, 200.0, 20.0, v0=20.0,
                      mobil_enabled=False),
            SpawnSpec("agg", "aggressive", 0, 120.0, 30.0),
        ],
        randomize_conservative_v0=False,
    )
    result = run_scenario(config)
    lanes = {
        fr.agent_id: fr.position[1]
        for fr in result.table.frames[max(result.table.frames)]
    }
    assert lanes["agg"] == pytest.approx(4.0, abs=1e-6)  # moved to the free lane
    assert lanes["slow"] == 0.0
    assert not result.collisions


def test_polite_driver_yields_to_free_lane():
    # with politeness 0.5 a blocked-from-behind conservative gives way
    config = ScenarioConfig(
        lane_count=2, road_length_m=5000.0, timestep_s=0.1, duration_s=10.0,
        spawns=[
            SpawnSpec("slow", "conservative", 0, 200.0, 20.0, v0=20.0),
            SpawnSpec("agg", "aggressive", 0, 120.0, 30.0, mobil_enabled=False),
        ],
        randomize_conservative_v0=False,
    )
    result = run_scenario(config)
    lanes = {
        fr.agent_id: fr.position[1]
        for fr in result.table.frames[max(result.table.frames)]
    }
    assert lanes["slow"] == pytest.approx(4.0, abs=1e-6)


def test_collisions_are_logged_not_fatal():
    config = ScenarioConfig(
        lane_count=1, road_length_m=1000.0, timestep_s=0.1, duration_s=2.0,
        spawns=[
            SpawnSpec("wall", "conservative", 0, 58.0, 0.0, longitudinal="cruise"),
            SpawnSpec("bullet", "conservative", 0, 50.0, 40.0, longitudinal="idm"),
        ],
        randomize_conservative_v0=False,
    )
    result = run_scenario(config)
    assert result.collisions  # logged
    assert len(result.table.frames) == 20  # run completed


# --- scenario config and files ---------------------------------------------

def test_scenario_validation_errors():
    base = dict(lane_count=2, road_length_m=100.0, timestep_s=0.1, duration_s=1.0)
    with pytest.raises(ValidationError):
        ScenarioConfig(spawns=[SpawnSpec("a", "conservative", 5, 0.0, 1.0)], **base).validate()
    with pytest.raises(ValidationError):
        ScenarioConfig(spawns=[SpawnSpec("a", "martian", 0, 0.0, 1.0)], **base).validate()
    with pytest.raises(ValidationError):
        ScenarioConfig(
            spawns=[SpawnSpec("a", "conservative", 0, 0.0, 1.0)],
            maneuvers=[ManeuverLabel("a", "OS", 0, 400)],
            **base,
        ).validate()
    with pytest.raises(ValidationError):
        ScenarioConfig(
            spawns=[SpawnSpec("a", "conservative", 0, 0.0, 1.0)],
            lane_change_scripts=[LaneChangeScript("ghost", 0, 1)],
            **base,
        ).validate()
    with pytest.raises(ValidationError):
        ScenarioConfig(
            spawns=[
                SpawnSpec("a", "conservative", 0, 0.0, 1.0),
                SpawnSpec("a", "conservative", 0, 10.0, 1.0),
            ],
            **base,
        ).validate()


def test_scenario_yaml_round_trip(tmp_path):
    config = ScenarioConfig(
        lane_count=3, road_length_m=2500.0, timestep_s=0.1, duration_s=30.0,
        spawns=[
            SpawnSpec("a", "conservative", 0, 50.0, 24.0),
            SpawnSpec("b", "aggressive", 1, 0.0, 40.0, longitudinal="cruise",
                      mobil_enabled=False, v0=41.0),
        ],
        lane_change_scripts=[LaneChangeScript("b", 55, 2)],
        maneuvers=[ManeuverLabel("b", "SLC", 55, 85)],
        seed=13,
        randomize_conservative_v0=False,
    )
    path = tmp_path / "scenario.yaml"
    save_scenario(config, path)
    assert load_scenario(path) == config



def test_scenario_keys_left_out_take_the_dataclass_defaults(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(
        "lane_count: 2\nroad_length_m: 500\ntimestep_s: 0.1\nduration_s: 3\n"
        "agents:\n  - {id: a, class: conservative, lane: 1, position: 10, speed: 20}\n"
    )
    assert load_scenario(path) == ScenarioConfig(
        lane_count=2, road_length_m=500.0, timestep_s=0.1, duration_s=3.0,
        spawns=[SpawnSpec("a", "conservative", 1, 10.0, 20.0)],
    )
    path.write_text("road_length_m: 500\ntimestep_s: 0.1\nduration_s: 3\n")
    with pytest.raises(ValidationError, match="is missing key 'lane_count'"):
        load_scenario(path)


def test_labels_round_trip(tmp_path):
    labels = [ManeuverLabel("a", "OS", 10, 20), ManeuverLabel("b", "W", 5, 9)]
    path = tmp_path / "labels.csv"
    write_labels(labels, path)
    expected = annotations_from_labels(labels, 10.0).entries
    assert parse_annotations(path, 10.0).entries == expected
    assert parse_annotations(text=path.read_text(), frame_rate_hz=10.0).entries == expected


def test_driver_params_validation():
    with pytest.raises(ValidationError):
        replace(CONSERVATIVE_PARAMS, politeness=1.5)
    with pytest.raises(ValidationError):
        replace(CONSERVATIVE_PARAMS, v0=0.0)
