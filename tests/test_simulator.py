import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drivestyle import sim
from drivestyle.errors import ValidationError
from drivestyle.evaluation import annotations_from_labels, parse_annotations
from drivestyle.ingest import serialize_trajectories
from drivestyle.pipeline import analyze_table
from drivestyle.scenarios import calibration_scenarios
from drivestyle.sim import (
    AGGRESSIVE_PARAMS,
    CONSERVATIVE_PARAMS,
    VEHICLE_LENGTH_M,
    CollisionEvent,
    LaneChangeScript,
    ManeuverLabel,
    ScenarioConfig,
    SpawnSpec,
    build_world,
    idm_acceleration,
    idm_law,
    load_scenario,
    mobil_decision,
    run_scenario,
    save_scenario,
    step,
    write_labels,
)
from oracles import object_run_scenario, records, scan_neighbors_in_lane


def car(x, speed, params=CONSERVATIVE_PARAMS):
    """A car as the lane-change rule takes it: (x, speed, idm_law)."""
    return (x, speed, idm_law(params))


def follow(back, front):
    """The car-following acceleration of car ``back`` behind ``front`` (or None)."""
    if front is None:
        return idm_acceleration(back[2], back[1])
    return idm_acceleration(back[2], back[1], front[0] - back[0] - VEHICLE_LENGTH_M, front[1])


# --- car-following law ----------------------------------------------------

def test_idm_full_throttle_from_rest():
    assert idm_acceleration(idm_law(CONSERVATIVE_PARAMS), 0.0) == CONSERVATIVE_PARAMS.a_max


def test_idm_equilibrium_at_desired_speed():
    law = idm_law(CONSERVATIVE_PARAMS)
    assert idm_acceleration(law, CONSERVATIVE_PARAMS.v0) == pytest.approx(0.0, abs=1e-12)


def test_idm_hand_value_at_desired_gap():
    # conservative class, v=20, dv=0, gap exactly s* = 5 + 20*1.5 = 35:
    # a = 3 * (1 - (20/25)^4 - 1) = -1.2288
    law = idm_law(CONSERVATIVE_PARAMS)
    assert idm_acceleration(law, 20.0, 35.0, 20.0) == pytest.approx(-1.2288, abs=1e-12)


def test_idm_collision_logged_with_emergency_braking():
    # a gap of -1 m: the law answers -b_comf, and a step logs the collision
    law = idm_law(CONSERVATIVE_PARAMS)
    assert idm_acceleration(law, 10.0, -1.0, 10.0) == -CONSERVATIVE_PARAMS.b_comf
    config = ScenarioConfig(
        lane_count=1, road_length_m=100.0, timestep_s=0.1, duration_s=1.0,
        spawns=[SpawnSpec("l", "conservative", 0, 4.0, 10.0),
                SpawnSpec("e", "conservative", 0, 0.0, 10.0)],
        randomize_conservative_v0=False,
    )
    world = build_world(config)
    world.frame = 17
    step(world)
    assert world.collisions == [CollisionEvent(17, "e", "l")]
    assert world.speed[1] == 10.0 - CONSERVATIVE_PARAMS.b_comf * 0.1


def test_idm_never_exceeds_max_acceleration():
    rng = np.random.default_rng(2)
    for _ in range(200):
        params = CONSERVATIVE_PARAMS if rng.random() < 0.5 else AGGRESSIVE_PARAMS
        ego = car(0.0, float(rng.uniform(0, 45)), params)
        leader = None
        if rng.random() < 0.7:
            leader = car(float(rng.uniform(6, 120)), float(rng.uniform(0, 45)))
        assert follow(ego, leader) <= params.a_max + 1e-12


# --- lane-change rule -----------------------------------------------------

def test_mobil_free_target_lane_approves_blocked_aggressive():
    ego = car(0.0, 30.0, AGGRESSIVE_PARAMS)
    slow_leader = car(25.0, 10.0)
    decision = mobil_decision(AGGRESSIVE_PARAMS, ego, slow_leader, None, None, None)
    assert decision.incentive > 0.0  # pure ego gain with p = 0
    assert decision.approved


def test_mobil_rejects_unsafe_follower_braking():
    ego = car(0.0, 10.0, AGGRESSIVE_PARAMS)
    fast_follower = car(-7.0, 40.0)
    decision = mobil_decision(AGGRESSIVE_PARAMS, ego, None, None, None, fast_follower)
    assert not decision.safety_ok
    assert decision.new_follower_acceleration < -AGGRESSIVE_PARAMS.b_safe
    assert not decision.approved


def test_mobil_symmetric_scene_has_zero_incentive():
    for params in (CONSERVATIVE_PARAMS, AGGRESSIVE_PARAMS):
        ego = car(0.0, 20.0, params)
        leader = car(40.0, 20.0)
        follower = car(-40.0, 20.0)
        t_leader = car(40.0, 20.0)
        t_follower = car(-40.0, 20.0)
        decision = mobil_decision(params, ego, leader, follower, t_leader, t_follower)
        assert decision.incentive == 0.0
        assert not decision.approved  # incentive must strictly exceed the gain threshold


def test_mobil_incentive_is_politeness_weighted_sum():
    params = replace(CONSERVATIVE_PARAMS, politeness=1.0)
    ego = car(0.0, 22.0, params)
    leader = car(30.0, 15.0)
    follower = car(-28.0, 24.0)
    t_leader = car(55.0, 23.0)
    t_follower = car(-35.0, 21.0)
    decision = mobil_decision(params, ego, leader, follower, t_leader, t_follower)
    gain_ego = follow(ego, t_leader) - follow(ego, leader)
    gain_n = follow(t_follower, ego) - follow(t_follower, t_leader)
    gain_o = follow(follower, leader) - follow(follower, ego)
    assert decision.incentive == pytest.approx(gain_ego + gain_n + gain_o, abs=1e-12)


def test_mobil_rejects_non_positive_insertion_gap():
    ego = car(0.0, 20.0, AGGRESSIVE_PARAMS)
    overlapping = car(3.0, 20.0)
    decision = mobil_decision(AGGRESSIVE_PARAMS, ego, None, None, overlapping, None)
    assert not decision.approved and not decision.safety_ok


def _random_scene(rng):
    params = AGGRESSIVE_PARAMS if rng.random() < 0.5 else CONSERVATIVE_PARAMS
    ego = car(0.0, float(rng.uniform(0, 40)), params)

    def maybe(lo, hi):
        if rng.random() < 0.75:
            return car(float(rng.uniform(lo, hi)), float(rng.uniform(0, 40)))
        return None

    return params, ego, maybe(6, 150), maybe(-150, -6), maybe(-20, 150), maybe(-150, 20)


def test_mobil_soundness_on_random_scenes():
    rng = np.random.default_rng(99)
    approved = 0
    for _ in range(300):
        params, ego, cl, cf, tl, tf = _random_scene(rng)
        decision = mobil_decision(params, ego, cl, cf, tl, tf)
        if not decision.approved:
            continue
        approved += 1
        # replay both criteria from scratch
        if tf is not None:
            assert follow(tf, ego) >= -params.b_safe
        gain_ego = follow(ego, tl) - follow(ego, cl)
        gain_n = 0.0 if tf is None else follow(tf, ego) - follow(tf, tl)
        gain_o = 0.0 if cf is None else follow(cf, cl) - follow(cf, ego)
        incentive = gain_ego + params.politeness * (gain_n + gain_o)
        assert incentive > params.delta_a_th
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
        x0 = world.x[0]
        step(world)
        assert world.x[0] == pytest.approx(x0 + 25.0 * 0.1)
        assert world.speed[0] == pytest.approx(25.0, abs=1e-9)


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
        step(world)
        assert world.speed[1] >= 0.0


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
        step(world)
    ordered = sorted(zip(world.x, world.speed), reverse=True)
    s_star = 5.0 + 10.0 * 1.5
    for (front_x, _), (back_x, back_speed) in zip(ordered, ordered[1:]):
        gap = front_x - back_x - VEHICLE_LENGTH_M
        assert abs(gap - s_star) / s_star <= 0.02
        assert back_speed == pytest.approx(10.0, abs=0.05)


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


def _assert_lookup_matches_scan(lanes, lane, x, lane_count):
    """Every leader and follower query, and the leader walk, against a scan."""
    xs, ps = lanes
    ties = 0
    for pos, at in enumerate(x):
        for k in range(lane_count):
            got = sim._leader(xs[k], ps[k], at), sim._follower(xs[k], ps[k], at, pos)
            assert got == scan_neighbors_in_lane(lane, x, at, k, pos)
            ties += sum(1 for o, xo in enumerate(x) if o != pos and lane[o] == k and xo == at)
    assert sim._leaders(lanes, len(x)) == [
        scan_neighbors_in_lane(lane, x, at, lane[pos])[0] for pos, at in enumerate(x)
    ]
    return ties


def test_lane_index_matches_scan_at_every_step():
    rng = np.random.default_rng(17)
    config = _dense_tied_config(3)
    world = build_world(config)
    ties = moves = 0
    for _ in range(config.frame_count()):
        lanes = sim._lanes(world.lane, world.x, config.lane_count)
        ties += _assert_lookup_matches_scan(lanes, world.lane, world.x, config.lane_count)
        # lane changes made after the lists were built, on a copy of the lanes
        lane = list(world.lane)
        for pos in rng.choice(len(lane), 8, replace=False):
            from_lane = lane[pos]
            lane[pos] = int(rng.integers(0, config.lane_count))
            sim._refile(lanes, int(pos), world.x[pos], from_lane, lane[pos])
            moves += 1
            _assert_lookup_matches_scan(lanes, lane, world.x, config.lane_count)
        step(world)
    assert ties > 100 and moves > 0


def test_step_lane_queries_match_scan(monkeypatch):
    # every query step() makes, including those after a MOBIL change in the
    # same step, answers what a scan of the live columns answers
    seen = {"queries": 0, "moves": 0, "ego_ties": 0}
    live = {}
    lanes_of, leader, follower = sim._lanes, sim._leader, sim._follower
    refile, leaders = sim._refile, sim._leaders

    def lane_of(xs):
        return next(k for k, lane_xs in enumerate(live["lanes"][0]) if lane_xs is xs)

    def built(lane, x, lane_count):
        live["lanes"] = lanes_of(lane, x, lane_count)
        return live["lanes"]

    def checked_leader(xs, ps, at):
        world = live["world"]
        got = leader(xs, ps, at)
        assert got == scan_neighbors_in_lane(world.lane, world.x, at, lane_of(xs))[0]
        seen["queries"] += 1
        return got

    def checked_follower(xs, ps, at, pos):
        world, k = live["world"], lane_of(xs)
        got = follower(xs, ps, at, pos)
        assert got == scan_neighbors_in_lane(world.lane, world.x, at, k, pos)[1]
        seen["queries"] += 1
        seen["ego_ties"] += any(
            o != pos and lane == k and xo == at
            for o, (lane, xo) in enumerate(zip(world.lane, world.x))
        )
        return got

    def counted_refile(*args):
        seen["moves"] += 1
        refile(*args)

    def checked_leaders(lanes, n):
        world = live["world"]
        got = leaders(lanes, n)
        assert got == [
            scan_neighbors_in_lane(world.lane, world.x, at, world.lane[pos])[0]
            for pos, at in enumerate(world.x)
        ]
        return got

    monkeypatch.setattr(sim, "_lanes", built)
    monkeypatch.setattr(sim, "_leader", checked_leader)
    monkeypatch.setattr(sim, "_follower", checked_follower)
    monkeypatch.setattr(sim, "_refile", counted_refile)
    monkeypatch.setattr(sim, "_leaders", checked_leaders)
    for seed in range(3):
        config = _dense_tied_config(seed)
        live["world"] = world = build_world(config)
        for _ in range(config.frame_count()):
            step(world)
    assert seen["queries"] > 1000 and seen["moves"] > 0 and seen["ego_ties"] > 0


@st.composite
def sim_scenarios(draw):
    """Small scenarios with x ties on a 5 m grid, overlapping spawns,
    cruise/IDM mixes, MOBIL every step or every second, and scripts that
    may retarget an agent mid-change; zero frames included."""
    lane_count = draw(st.integers(1, 3))
    spawns = [
        SpawnSpec(
            f"a{i}",
            draw(st.sampled_from(["conservative", "aggressive"])),
            draw(st.integers(0, lane_count - 1)),
            5.0 * draw(st.integers(0, 12)),
            draw(st.sampled_from([0.0, 10.0, 20.0, 25.0, 35.0])),
            longitudinal=draw(st.sampled_from(["idm", "idm", "cruise"])),
            mobil_enabled=draw(st.booleans()),
            v0=draw(st.none() | st.sampled_from([15.0, 30.0])),
        )
        for i in range(draw(st.integers(0, 8)))
    ]
    frames = draw(st.integers(0, 30))
    scripts = [
        LaneChangeScript(draw(st.sampled_from(spawns)).agent_id,
                         draw(st.integers(0, max(frames, 1) - 1)),
                         draw(st.integers(0, lane_count - 1)))
        for _ in range(draw(st.integers(0, 6)) if spawns else 0)
    ]
    return ScenarioConfig(
        lane_count=lane_count, road_length_m=100.0, timestep_s=0.1,
        duration_s=frames * 0.1, spawns=spawns, lane_change_scripts=scripts,
        seed=draw(st.integers(0, 3)),
        randomize_conservative_v0=draw(st.booleans()),
        lane_change_duration_s=draw(st.sampled_from([0.5, 3.0])),
        mobil_period_s=draw(st.sampled_from([0.1, 1.0])),
    )


_COLLIDING = ScenarioConfig(
    lane_count=3, road_length_m=100.0, timestep_s=0.1, duration_s=2.0,
    spawns=[SpawnSpec("a", "aggressive", 0, 10.0, 35.0),
            SpawnSpec("b", "conservative", 0, 15.0, 0.0, longitudinal="cruise"),
            SpawnSpec("c", "conservative", 1, 15.0, 20.0)],
    lane_change_scripts=[LaneChangeScript("c", 3, 0), LaneChangeScript("c", 5, 2)],
    mobil_period_s=0.1,
)


@given(sim_scenarios())
@example(_COLLIDING)
@settings(max_examples=150, deadline=None)
def test_list_columns_match_the_object_simulator(config):
    result = run_scenario(config)
    table, collisions = object_run_scenario(config)
    assert serialize_trajectories(result.table) == serialize_trajectories(table)
    assert result.collisions == collisions


def test_colliding_example_collides_and_retargets_mid_change():
    result = run_scenario(_COLLIDING)
    assert result.collisions and result.collisions[0] == CollisionEvent(0, "a", "b")
    ys = result.table.y[result.table.agent == 2]
    # lane 1 towards 0 from frame 3, then, from where it is at frame 5,
    # back towards 2
    assert ys[3] == 4.0 and ys[5] < ys[4] < 4.0 and ys[5] < ys[6] < 4.0 < ys[7]


def test_retarget_mid_change_continues_from_the_current_position():
    # a cruiser scripted 0 -> 1 at frame 0 and -> 2 at frame 15, halfway
    # through a 3 s change: it turns from where it is, with no snap back
    config = ScenarioConfig(
        lane_count=3, road_length_m=500.0, timestep_s=0.1, duration_s=6.0,
        spawns=[SpawnSpec("c", "conservative", 0, 0.0, 20.0, longitudinal="cruise")],
        lane_change_scripts=[LaneChangeScript("c", 0, 1), LaneChangeScript("c", 15, 2)],
    )
    result = run_scenario(config)
    ys = result.table.y
    width = config.lane_width_m
    # the fastest a blend moves: two lanes over one change
    bound = 2 * width * math.pi / (2.0 * config.lane_change_duration_s) * config.timestep_s
    assert np.abs(np.diff(ys)).max() <= bound
    assert ys[14] < ys[15] < ys[16] < width and ys[-1] == 2 * width
    table, _ = object_run_scenario(config)
    assert serialize_trajectories(result.table) == serialize_trajectories(table)


def test_mobil_scenario_trajectory_bytes_are_pinned():
    # 9 IDM agents with MOBIL on, two MOBIL lane changes, no BLAS call:
    # the text recorded before the simulator held list columns
    config = calibration_scenarios()[1]
    result = run_scenario(config)
    assert len(config.spawns) == 9 and not result.collisions
    lateral = result.table.vy != 0.0
    assert len(set(result.table.agent[lateral].tolist())) == 2
    text = serialize_trajectories(result.table)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "88e388df32b0410189f2b2906c68a6f344532839beda3b8ac17b0615c0a58267"
    )


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
    ys = [frame[0].position[1] for _, frame in sorted(records(result.table).items())]
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
    frames = records(result.table)
    lanes = {fr.agent_id: fr.position[1] for fr in frames[max(frames)]}
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
    frames = records(result.table)
    lanes = {fr.agent_id: fr.position[1] for fr in frames[max(frames)]}
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
