import hashlib
import math
import os
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drivestyle import sim
from drivestyle.errors import TrajectoryParseError, ValidationError
from drivestyle.evaluation import annotations_from_labels, parse_annotations
from drivestyle.ingest import parse_trajectories, serialize_trajectories
from drivestyle.pipeline import analyze_table
from drivestyle.scenarios import calibration_scenarios, lane_change_scenario
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
from oracles import full_mobil_decision, object_run_scenario, records, scan_neighbors_in_lane


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


# finite floats: of any size, near where x**4 and x**2 overflow, and
# subnormal (hypothesis draws ±0.0 and subnormals among all of them)
_POWER_BASES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1.2e77, max_value=1.2e77),
    st.floats(min_value=-1.4e154, max_value=1.4e154),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


@given(st.lists(_POWER_BASES, min_size=1, max_size=40))
@settings(max_examples=500, deadline=None)
def test_float_power_is_pythons_power(values):
    # the column law's premise: np.float_power over an array takes libm's
    # pow as Python's ** does, bit for bit; draws whose power overflows
    # (Python raises, numpy gives inf) are left out
    for exponent in (4, 2):
        kept = []
        for v in values:
            try:
                kept.append((v, v ** exponent))
            except OverflowError:
                pass
        if kept:
            got = np.float_power(np.array([v for v, _ in kept]), float(exponent))
            assert got.tobytes() == np.array([p for _, p in kept]).tobytes()


def test_no_power_overflows_at_the_speed_bounds():
    # the smallest positive gap is the last bit of 5 m; at the fastest speed
    # a scenario may reach and the smallest v0 it may pair with (a drawn v0
    # down to 0.9 times the class's), both powers stay finite
    gap = math.nextafter(5.0, math.inf) - 5.0
    assert gap == 2.0 ** -50
    top = sim.MAX_SPEED_MPS
    for params in (CONSERVATIVE_PARAMS, AGGRESSIVE_PARAMS):
        law = idm_law(replace(params, v0=0.9 * top / sim.MAX_SPEED_RATIO))
        for lead in (0.0, top):
            assert math.isfinite(idm_acceleration(law, top, gap, lead))
            assert math.isfinite(idm_acceleration(law, 0.0, gap, lead))


def test_speed_bounds_name_the_agent_and_field():
    def config(*spawns, timestep=0.1):
        return ScenarioConfig(lane_count=1, road_length_m=100.0, timestep_s=timestep,
                              duration_s=0.0, spawns=list(spawns))

    top = sim.MAX_SPEED_MPS
    config(SpawnSpec("a", "aggressive", 0, 0.0, top - 1.0)).validate()
    config(SpawnSpec("c", "aggressive", 0, 0.0, top, longitudinal="cruise")).validate()
    faults = {
        "'a': speed 1e+100 is over": config(SpawnSpec("a", "conservative", 0, 0.0, 1e100)),
        "'c': speed 1e+200 is over": config(
            SpawnSpec("a", "conservative", 0, 0.0, 20.0),
            SpawnSpec("c", "conservative", 0, 50.0, 1e200, longitudinal="cruise")),
        "'a': v0 1e-300 lets speed / v0 reach": config(
            SpawnSpec("a", "conservative", 0, 0.0, 20.0, v0=1e-300)),
        "'a': v0 + a_max * timestep_s = ": config(
            SpawnSpec("a", "conservative", 0, 0.0, 20.0), timestep=1e6),
        "'a': v0 must be finite and positive": config(
            SpawnSpec("a", "conservative", 0, 0.0, 20.0, v0=0.0)),
    }
    for message, fault in faults.items():
        with pytest.raises(ValidationError, match="^" + re.escape(message)):
            fault.validate()


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


def test_mobil_decision_matches_the_full_rule():
    # the early exit on an unsafe target changes no decision: against the
    # rule that evaluates all six terms, the same approvals, safety and
    # new-follower acceleration, and a bit-equal incentive where approved
    rng = np.random.default_rng(5)
    unsafe = approved = 0
    for _ in range(3000):
        scene = _random_scene(rng)
        got, want = mobil_decision(*scene), full_mobil_decision(*scene)
        assert (got.approved, got.safety_ok) == (want.approved, want.safety_ok)
        assert got.new_follower_acceleration == want.new_follower_acceleration
        if got.approved:
            approved += 1
            assert got.incentive == want.incentive
        if not got.safety_ok:
            unsafe += 1
            assert got.incentive == -math.inf
    assert unsafe > 100 and approved > 100


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
    ties = rebuilds = 0
    for _ in range(config.frame_count()):
        lanes = sim._lanes(world.lane, world.x, config.lane_count)
        ties += _assert_lookup_matches_scan(lanes, world.lane, world.x, config.lane_count)
        # lane changes made after the lists were built, on a copy of the lanes,
        # each followed by a rebuild, as an approved MOBIL change is
        lane = list(world.lane)
        for pos in rng.choice(len(lane), 8, replace=False):
            lane[pos] = int(rng.integers(0, config.lane_count))
            lanes = sim._lanes(lane, world.x, config.lane_count)
            rebuilds += 1
            _assert_lookup_matches_scan(lanes, lane, world.x, config.lane_count)
        step(world)
    assert ties > 100 and rebuilds > 0


def _tied(lanes):
    return any(a >= b for xs in lanes[0] for a, b in zip(xs, xs[1:]))


def test_step_lane_queries_match_scan(monkeypatch):
    # every query step() makes, including those after a MOBIL change in the
    # same step, and every leader the car-following pass uses, answers what a
    # scan of the pre-step columns answers; lane lists are built only where
    # the kept order cannot serve
    seen = {"queries": 0, "builds": 0, "steps": 0, "kept": 0, "ego_ties": 0}
    live = {}
    lanes_of, leader, follower, leaders = sim._lanes, sim._leader, sim._follower, sim._leaders

    def fresh():
        # the lane lists a build would give on the live columns, as of the
        # world's last lane change
        world = live["world"]
        key = (world.frame, len(world.changes))
        if live.get("fresh", (None,))[0] != key:
            live["fresh"] = key, lanes_of(world.lane, world.x, world.config.lane_count)
        return live["fresh"][1]

    def lane_of(xs, ps):
        # the index of the lane whose fresh lists equal the queried ones: a
        # stale kept order matches none
        return next(k for k, lane in enumerate(zip(*fresh())) if lane == (xs, ps))

    def built(lane, x, lane_count):
        # the kept order could not serve: none yet, a change began since the
        # last step, or the last or the new order holds a tie or differs
        world, end = live["world"], live.get("end")
        lanes = lanes_of(lane, x, lane_count)
        assert (end is None or len(world.changes) > end[1] or _tied(end[0]) or _tied(lanes)
                or lanes[1] != end[0][1])
        seen["builds"] += 1
        return lanes

    def checked_leader(xs, ps, at):
        world = live["world"]
        got = leader(xs, ps, at)
        assert got == scan_neighbors_in_lane(world.lane, world.x, at, lane_of(xs, ps))[0]
        seen["queries"] += 1
        return got

    def checked_follower(xs, ps, at, pos):
        world, k = live["world"], lane_of(xs, ps)
        got = follower(xs, ps, at, pos)
        assert got == scan_neighbors_in_lane(world.lane, world.x, at, k, pos)[1]
        seen["queries"] += 1
        seen["ego_ties"] += any(
            o != pos and lane == k and xo == at
            for o, (lane, xo) in enumerate(zip(world.lane, world.x))
        )
        return got

    def walked(lanes, n):
        live["walked"] = leaders(lanes, n)
        return live["walked"]

    monkeypatch.setattr(sim, "_lanes", built)
    monkeypatch.setattr(sim, "_leader", checked_leader)
    monkeypatch.setattr(sim, "_follower", checked_follower)
    monkeypatch.setattr(sim, "_leaders", walked)
    configs = [_dense_tied_config(seed) for seed in range(3)]
    configs += [calibration_scenarios()[1], _SEPARATING]
    for config in configs:
        live["world"] = world = build_world(config)
        live.pop("end", None)
        for _ in range(config.frame_count()):
            x, builds = world.x, seen["builds"]
            live.pop("walked", None)
            step(world)
            # the leaders of this step's car-following pass: walked this step,
            # or kept from the last
            used = world.kept[1] if world.kept is not None else live["walked"]
            assert used == [
                scan_neighbors_in_lane(world.lane, x, at, world.lane[pos])[0]
                for pos, at in enumerate(x)
            ]
            live["end"] = lanes_of(world.lane, x, config.lane_count), len(world.changes)
            seen["steps"] += 1
            seen["kept"] += seen["builds"] == builds
    assert seen["queries"] > 1000 and seen["ego_ties"] > 0
    assert seen["kept"] > 100 and seen["builds"] > 100


def test_car_following_world_builds_lane_lists_once_per_lane_change(monkeypatch):
    # 9 MOBIL agents, no ties and no passing in a lane: the first step builds
    # the lists, each of the two approved changes rebuilds them, and every
    # other step keeps them
    builds = []
    lanes_of = sim._lanes

    def counted(lane, x, lane_count):
        builds.append(lane_count)
        return lanes_of(lane, x, lane_count)

    monkeypatch.setattr(sim, "_lanes", counted)
    config = calibration_scenarios()[1]
    world = build_world(config)
    for _ in range(config.frame_count()):
        step(world)
    assert len(world.changes) == 2 and not config.lane_change_scripts
    assert len(builds) == 1 + 2


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


# cruisers only, three of them on one x: a scripted change, then a
# retarget mid-change, with no lane lists built
_CRUISING = ScenarioConfig(
    lane_count=3, road_length_m=100.0, timestep_s=0.1, duration_s=2.0,
    spawns=[SpawnSpec(f"c{i}", "conservative", i % 2, 20.0, 10.0 * i, longitudinal="cruise")
            for i in range(3)],
    lane_change_scripts=[LaneChangeScript("c0", 2, 1), LaneChangeScript("c0", 6, 2)],
    lane_change_duration_s=0.5,
)


# two IDM agents tied at one x separate: a leader walked on the tie is not
# the next agent once they part
_SEPARATING = ScenarioConfig(
    lane_count=1, road_length_m=100.0, timestep_s=0.1, duration_s=1.0,
    spawns=[SpawnSpec("a", "conservative", 0, 10.0, 20.0, mobil_enabled=False),
            SpawnSpec("b", "conservative", 0, 10.0, 25.0, mobil_enabled=False),
            SpawnSpec("c", "conservative", 0, 30.0, 20.0, longitudinal="cruise")],
    randomize_conservative_v0=False,
)


# an aggressive driver behind a slow cruiser in the middle lane, both
# other lanes empty: the two changes score the same, and the left one wins
_SYMMETRIC = ScenarioConfig(
    lane_count=3, road_length_m=100.0, timestep_s=0.1, duration_s=1.0,
    spawns=[SpawnSpec("e", "aggressive", 1, 0.0, 30.0),
            SpawnSpec("s", "conservative", 1, 20.0, 10.0, longitudinal="cruise")],
)


# a deciding driver tied at one x behind an earlier agent of the list:
# that agent, not ego, is its current follower
_TIED_EGO = ScenarioConfig(
    lane_count=2, road_length_m=100.0, timestep_s=0.1, duration_s=0.2,
    spawns=[SpawnSpec("a", "conservative", 1, 10.0, 0.0, mobil_enabled=False),
            SpawnSpec("b", "conservative", 0, 0.0, 0.0, mobil_enabled=False),
            SpawnSpec("e", "conservative", 1, 10.0, 20.0, v0=15.0)],
    randomize_conservative_v0=False, lane_change_duration_s=0.5, mobil_period_s=0.1,
)


# the last frame of a change, len(ramp) = 4 frames (0.5 s at 0.1 s steps)
# after it began, and the first after it: an aggressive driver scripted at
# frame 2 into the lane of a slow cruiser, deciding every step, is refused
# the change back out at frame 6, mid-change, and approved at frame 7
_BACKING_OUT = ScenarioConfig(
    lane_count=2, road_length_m=100.0, timestep_s=0.1, duration_s=1.2,
    spawns=[SpawnSpec("e", "aggressive", 1, 0.0, 30.0),
            SpawnSpec("s", "conservative", 0, 40.0, 10.0, longitudinal="cruise")],
    lane_change_scripts=[LaneChangeScript("e", 2, 0)],
    lane_change_duration_s=0.5, mobil_period_s=0.1,
)


# retargets at those two frames: "p" at age 4 turns from its blended
# position, "q" at age 5 from its lane
_RETARGETS = ScenarioConfig(
    lane_count=3, road_length_m=100.0, timestep_s=0.1, duration_s=1.2,
    spawns=[SpawnSpec("p", "conservative", 0, 0.0, 10.0, mobil_enabled=False),
            SpawnSpec("q", "conservative", 2, 50.0, 10.0, mobil_enabled=False)],
    lane_change_scripts=[LaneChangeScript("p", 1, 1), LaneChangeScript("p", 5, 2),
                         LaneChangeScript("q", 1, 1), LaneChangeScript("q", 6, 0)],
    lane_change_duration_s=0.5,
)


def _matches_the_object_simulator(config, gate):
    with mock.patch.object(sim, "ARRAY_STEP_MIN_FOLLOWERS", gate):
        result = run_scenario(config)
    table, collisions = object_run_scenario(config)
    assert serialize_trajectories(result.table) == serialize_trajectories(table)
    assert result.collisions == collisions


# CI runs this test and the next with SIM_ORACLE_EXAMPLES=3000, deeper than
# tier-1's 150: the list step, whatever the number of followers
@given(sim_scenarios())
@example(_COLLIDING)
@example(_CRUISING)
@example(_SEPARATING)
@example(_SYMMETRIC)
@example(_TIED_EGO)
@example(_BACKING_OUT)
@example(_RETARGETS)
@settings(max_examples=int(os.environ.get("SIM_ORACLE_EXAMPLES", 150)), deadline=None)
def test_list_columns_match_the_object_simulator(config):
    _matches_the_object_simulator(config, math.inf)


# the step on numpy columns for every world where an agent follows
@given(sim_scenarios())
@example(_COLLIDING)
@example(_CRUISING)
@example(_SEPARATING)
@example(_SYMMETRIC)
@example(_TIED_EGO)
@example(_BACKING_OUT)
@example(_RETARGETS)
@settings(max_examples=int(os.environ.get("SIM_ORACLE_EXAMPLES", 150)), deadline=None)
def test_array_columns_match_the_object_simulator(config):
    _matches_the_object_simulator(config, 1)


def test_array_step_above_the_gate_equals_the_list_step():
    # the highway_cli layout for 10 s, on the array step by default, with a
    # tie at the first frame (b000 spawned on h000, faster, so h000 runs
    # into it at the next) and approved lane changes: every byte and the
    # collision log equal the list step's (np.power in place of
    # np.float_power changes them)
    spawns = [SpawnSpec(f"h{i:03d}", "aggressive" if i % 7 == 0 else "conservative",
                        i % 3, i * 10.0, 25.0) for i in range(200)]
    config = ScenarioConfig(
        lane_count=3, road_length_m=2000.0, timestep_s=0.1, duration_s=10.0,
        spawns=[SpawnSpec("b000", "aggressive", 0, 0.0, 30.0), *spawns], seed=0,
    )
    assert len(config.spawns) >= sim.ARRAY_STEP_MIN_FOLLOWERS
    result = run_scenario(config)
    with mock.patch.object(sim, "ARRAY_STEP_MIN_FOLLOWERS", math.inf):
        listed = run_scenario(config)
    assert serialize_trajectories(result.table) == serialize_trajectories(listed.table)
    assert result.collisions == listed.collisions
    assert result.collisions[0] == CollisionEvent(1, "h000", "b000")
    assert (result.table.vy != 0.0).any() and not config.lane_change_scripts


def test_dense_tied_worlds_on_the_array_step_match_the_object_simulator():
    # 45 IDM agents of 60, tied on a 5 m grid, deciding every step, with
    # scripts: many collisions, retargets and approvals
    for seed in range(3):
        _matches_the_object_simulator(_dense_tied_config(seed), 1)


@st.composite
def cruise_worlds(draw):
    """Cruise-only scenarios: spawn speeds and positions of 0.0 and -0.0
    among others, speeds whose sums round, scripts that may retarget an
    agent mid-change, name its own lane or fall on the last frame, and
    changes shorter than a step; 0 and 1 frames and 0 spawns included."""
    lane_count = draw(st.integers(1, 3))
    spawns = [
        SpawnSpec(
            f"c{i}",
            draw(st.sampled_from(["conservative", "aggressive"])),
            draw(st.integers(0, lane_count - 1)),
            draw(st.sampled_from([-0.0, 0.0, 2.5, 17.3])),
            draw(st.sampled_from([-0.0, 0.0, 7.5, 20.1, 33.3])),
            longitudinal="cruise",
            mobil_enabled=draw(st.booleans()),
        )
        for i in range(draw(st.integers(0, 5)))
    ]
    timestep = draw(st.sampled_from([0.1, 0.04, 1 / 3]))
    frames = draw(st.integers(0, 40))
    scripts = [
        LaneChangeScript(draw(st.sampled_from(spawns)).agent_id,
                         draw(st.integers(0, max(frames, 1) - 1)),
                         draw(st.integers(0, lane_count - 1)))
        for _ in range(draw(st.integers(0, 8)) if spawns else 0)
    ]
    return ScenarioConfig(
        lane_count=lane_count, road_length_m=100.0, timestep_s=timestep,
        duration_s=frames * timestep, spawns=spawns, lane_change_scripts=scripts,
        seed=draw(st.integers(0, 3)),
        lane_change_duration_s=draw(st.sampled_from([0.05, 0.5, 1.0, 3.0])),
    )


def _cruise_world(frames, spawns, scripts):
    return ScenarioConfig(
        lane_count=3, road_length_m=100.0, timestep_s=0.1, duration_s=frames * 0.1,
        spawns=[SpawnSpec(agent_id, "conservative", lane, position, speed, longitudinal="cruise")
                for agent_id, lane, position, speed in spawns],
        lane_change_scripts=[LaneChangeScript(*script) for script in scripts],
        lane_change_duration_s=0.5,
    )


# -0.0 and 0.0 spawns, a retarget mid-change, a script to the agent's own
# lane (mid-change and not) and one on the last frame
_CRUISE_EDGES = _cruise_world(
    12, [("z", 0, -0.0, -0.0), ("p", 1, 0.0, 0.0), ("m", 2, -0.0, 12.3)],
    [("z", 0, 1), ("z", 2, 2), ("z", 3, 2), ("p", 4, 1), ("m", 1, 2), ("m", 5, 0),
     ("p", 11, 0)],
)


@given(cruise_worlds())
@example(_CRUISE_EDGES)
@example(_cruise_world(1, [("a", 0, 5.0, 10.0)], [("a", 0, 1)]))
@example(_cruise_world(0, [("a", 0, 5.0, 10.0)], [("a", 0, 1)]))
@example(_cruise_world(5, [], []))
@settings(max_examples=200, deadline=None)
def test_cruise_only_worlds_match_the_object_simulator(config):
    # no agent follows: the columns are built with no frame loop
    result = run_scenario(config)
    table, collisions = object_run_scenario(config)
    assert serialize_trajectories(result.table) == serialize_trajectories(table)
    assert result.collisions == collisions == []


def test_agent_type_column_holds_one_str():
    # with and without a frame loop, every row's type is the same object
    for config in (lane_change_scenario(0), calibration_scenarios()[1]):
        table = run_scenario(config).table
        assert len(table.agent_type) > 1 and set(table.agent_type) == {"car"}
        assert len({id(t) for t in table.agent_type}) == 1


def test_cruise_only_world_builds_no_lane_lists(monkeypatch):
    # no agent follows, so nothing steps, files the lanes, takes lane-change
    # decisions or looks for a leader, yet the scripted changes run
    def forbidden(*args):
        raise AssertionError("a frame loop or lane lists in a cruise-only world")

    config = lane_change_scenario(0)
    assert all(s.longitudinal == "cruise" for s in config.spawns)
    assert config.lane_change_scripts
    for name in ("_lanes", "_leaders", "_mobil_pass", "step"):
        monkeypatch.setattr(sim, name, forbidden)
    result = run_scenario(config)
    table, collisions = object_run_scenario(config)
    assert serialize_trajectories(result.table) == serialize_trajectories(table)
    assert result.collisions == collisions


def test_dense_mobil_regime_matches_the_object_simulator(monkeypatch):
    # the highway benchmark's layout: 200 IDM agents on 3 lanes at 10 m
    # spacing for 30 s, where most lane-change targets are unsafe and are
    # rejected before their incentive is scored
    config = ScenarioConfig(
        lane_count=3, road_length_m=2000.0, timestep_s=0.1, duration_s=30.0,
        spawns=[SpawnSpec(f"h{i:03d}", "aggressive" if i % 7 == 0 else "conservative",
                          i % 3, i * 10.0, 25.0) for i in range(200)],
        seed=0,
    )
    decisions = []

    def counted(*args):
        decisions.append(decision := mobil_decision(*args))
        return decision

    monkeypatch.setattr(sim, "mobil_decision", counted)
    monkeypatch.setattr(sim, "ARRAY_STEP_MIN_FOLLOWERS", math.inf)  # the list step
    result = run_scenario(config)
    table, collisions = object_run_scenario(config)
    assert serialize_trajectories(result.table) == serialize_trajectories(table)
    assert result.collisions == collisions
    unsafe = sum(not d.safety_ok for d in decisions)
    assert unsafe > len(decisions) / 2
    assert any(d.approved for d in decisions)


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


CRUISER = "agents:\n  - {id: c, class: conservative, lane: 0, position: 0, speed: 20, " \
    "longitudinal: cruise}\n"


@pytest.mark.parametrize("text", [
    "duration_s: 1.0e+308\n",  # the frame count overflows to inf
    "duration_s: 1.0e+12\n" + CRUISER,  # 1e13 frames, each a row
    "duration_s: 1.0e+9\nlane_change_duration_s: 1.0e+12\n",  # no agents; a long ramp
], ids=["inf_frames", "cruiser", "ramp"])
def test_scenario_too_long_to_simulate_is_rejected_on_load(tmp_path, text):
    path = tmp_path / "scenario.yaml"
    path.write_text("lane_count: 1\nroad_length_m: 100\ntimestep_s: 0.1\n" + text)
    with pytest.raises(ValidationError, match=r"^.*duration_s / timestep_s = .* rows$"):
        load_scenario(path)


def test_scenario_rows_are_bounded_by_frames_times_agents():
    spawns = [SpawnSpec(k, "conservative", 0, 0.0, 1.0, longitudinal="cruise") for k in "ab"]
    frames = sim.MAX_SCENARIO_ROWS // 2
    config = ScenarioConfig(lane_count=1, road_length_m=100.0, timestep_s=1.0,
                            duration_s=float(frames), spawns=spawns)
    config.validate()
    with pytest.raises(ValidationError, match=f"{frames + 1} frames x 2 agents"):
        replace(config, duration_s=frames + 1.0).validate()
    replace(config, spawns=[], duration_s=2.0 * frames).validate()  # one row per frame
    with pytest.raises(ValidationError, match="x 0 agents"):
        replace(config, spawns=[], duration_s=2.0 * frames + 1).validate()


def test_labels_round_trip(tmp_path):
    labels = [ManeuverLabel("a", "OS", 10, 20), ManeuverLabel("b", "W", 5, 9)]
    path = tmp_path / "labels.csv"
    write_labels(labels, path)
    expected = annotations_from_labels(labels, 10.0).entries
    assert parse_annotations(path, 10.0).entries == expected
    assert parse_annotations(text=path.read_text(), frame_rate_hz=10.0).entries == expected


def _carried(agent_id: str) -> bool:
    """Whether ``agent_id`` comes back equal through the trajectory and the label CSV."""
    config = ScenarioConfig(
        lane_count=1, road_length_m=100.0, timestep_s=0.1, duration_s=0.2,
        spawns=[SpawnSpec("x", "conservative", 0, 0.0, 10.0, longitudinal="cruise")],
    )
    table = replace(run_scenario(config).table, agent_ids=[agent_id])
    labels = write_labels([ManeuverLabel(agent_id, "OS", 0, 1)], None)
    try:
        parsed = parse_trajectories(text=serialize_trajectories(table), frame_rate_hz=10.0)
        entries = parse_annotations(text=labels, frame_rate_hz=10.0).entries
    except (TrajectoryParseError, ValidationError):
        return False
    return parsed.agent_ids == [agent_id] and [key[1] for key in entries] == [agent_id]


@given(st.text(st.characters(codec="utf-8") | st.sampled_from(" \t,#\n\r\x1c\x85\u2028"),
               max_size=5))
@example("")
@example("#a")
@example("a#")
@example(" a")
@example("a\tb")
@example("a\u2028b")
@settings(max_examples=300, deadline=None)
def test_an_agent_id_is_accepted_iff_the_csv_files_carry_it(agent_id):
    # the scenario id rule refuses exactly the ids that a reader splits,
    # strips, skips as a comment or finds empty
    config = ScenarioConfig(
        lane_count=1, road_length_m=100.0, timestep_s=0.1, duration_s=0.2,
        spawns=[SpawnSpec(agent_id, "conservative", 0, 0.0, 10.0, longitudinal="cruise")],
    )
    try:
        config.validate()
        accepted = True
    except ValidationError as exc:
        assert str(exc).startswith(f"agent id {agent_id!r} must be") and "\n" not in str(exc)
        accepted = False
    assert accepted == _carried(agent_id)


def test_driver_params_validation():
    with pytest.raises(ValidationError):
        replace(CONSERVATIVE_PARAMS, politeness=1.5)
    with pytest.raises(ValidationError):
        replace(CONSERVATIVE_PARAMS, v0=0.0)
