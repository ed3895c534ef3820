"""Benchmark scenario builders with kinematically exact ground truth.

The style scenarios use constant-speed (cruise) agents and scripted lane
changes so that maneuver timing is known in closed form at build time:
encounter times follow from relative speeds and the proximity radius,
lane-change intervals are the scripted lateral transitions. The
behavior-separation and calibration scenarios instead run the full
car-following/lane-change dynamics.

All geometry below assumes the default proximity threshold mu = 100 m^2
(10 m radius) and 4 m lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import DEFAULT_MU
from .pipeline import AnalysisParams
from .sim import LaneChangeScript, ManeuverLabel, ScenarioConfig, SpawnSpec
from .styles import Thresholds

DT = 0.1  # s; 10 Hz frames
LANE_WIDTH = 4.0

# analysis configuration used by the benchmark suite: 1 s windows resolve
# the 1.5-3 s scripted maneuvers at 10 Hz; the 5 s default suits slower
# drifts in low-rate recorded traffic
SUITE_WINDOW_S = 1.0
SUITE_STRIDE_S = 0.5
SUITE_EPSILON_S = 0.5


def suite_analysis_params(thresholds: Thresholds | None = None) -> AnalysisParams:
    kwargs = dict(
        window_s=SUITE_WINDOW_S,
        stride_s=SUITE_STRIDE_S,
        epsilon_s=SUITE_EPSILON_S,
    )
    if thresholds is not None:
        kwargs["thresholds"] = thresholds
    return AnalysisParams(**kwargs)


@dataclass(frozen=True)
class BenchmarkScenario:
    name: str
    style: str
    config: ScenarioConfig


def _adjacent_reach(lane_gap: int) -> float:
    """Along-track distance at which an edge forms across lane_gap lanes."""
    lateral = lane_gap * LANE_WIDTH
    return math.sqrt(DEFAULT_MU - lateral * lateral)


def _frame(t_seconds: float) -> int:
    return int(round(t_seconds / DT))


def overspeed_scenario(seed: int) -> ScenarioConfig:
    """Aggressive cruiser blasts past a slow platoon in the next lane.

    The platoon is slow and tightly spaced, so the passer's cumulative
    degree jumps by one per member inside a short burst; the ground-truth
    interval spans the first to the last of those first encounters.
    """
    rng = np.random.default_rng(seed)
    v_platoon = 10.0 + float(rng.uniform(-1.0, 1.0))
    v_pass = 40.0 + float(rng.uniform(-2.0, 2.0))
    n_members = int(rng.integers(5, 7))
    spacing = 12.0 + float(rng.uniform(-1.0, 1.0))
    x_platoon = 300.0 + float(rng.uniform(-15.0, 15.0))
    x_pass = 0.0

    reach = _adjacent_reach(1)
    dv = v_pass - v_platoon
    encounters = [
        (x_platoon + i * spacing - reach - x_pass) / dv for i in range(n_members)
    ]
    start_f, end_f = _frame(encounters[0]), _frame(encounters[-1])
    duration = encounters[-1] + 4.0

    spawns = [
        SpawnSpec("passer", "aggressive", 1, x_pass, v_pass,
                  longitudinal="cruise", mobil_enabled=False)
    ]
    for i in range(n_members):
        spawns.append(
            SpawnSpec(f"p{i}", "conservative", 0, x_platoon + i * spacing,
                      v_platoon, longitudinal="cruise", mobil_enabled=False)
        )
    return ScenarioConfig(
        lane_count=2,
        road_length_m=4000.0,
        timestep_s=DT,
        duration_s=duration,
        spawns=spawns,
        maneuvers=[ManeuverLabel("passer", "OS", start_f, end_f)],
        seed=seed,
        randomize_conservative_v0=False,
    )


def overtake_scenario(seed: int) -> ScenarioConfig:
    """Fast cruiser sweeps through a small rolling cluster two lanes over.

    Closeness rises into the pass and falls out of it; the ground truth
    spans first contact with the cluster to last contact, centered on the
    closest approach.
    """
    rng = np.random.default_rng(1000 + seed)
    v_cluster = 24.0 + float(rng.uniform(-1.0, 1.0))
    v_pass = v_cluster + 15.0 + float(rng.uniform(-1.5, 1.5))
    c = 250.0 + float(rng.uniform(-20.0, 20.0))
    arm = 6.0 + float(rng.uniform(-0.5, 0.5))
    x_pass = 0.0

    dv = v_pass - v_cluster
    # members: two in lane 0 at c -/+ arm, one in lane 1 at c; passer in lane 2
    contacts = []
    for offset, lane_gap in ((-arm, 2), (arm, 2), (0.0, 1)):
        reach = _adjacent_reach(lane_gap)
        contacts.append(((c + offset - reach - x_pass) / dv,
                         (c + offset + reach - x_pass) / dv))
    start_f = _frame(min(t for t, _ in contacts))
    end_f = _frame(max(t for _, t in contacts))
    duration = max(t for _, t in contacts) + 4.0

    spawns = [
        SpawnSpec("passer", "aggressive", 2, x_pass, v_pass,
                  longitudinal="cruise", mobil_enabled=False),
        SpawnSpec("cl0", "conservative", 0, c - arm, v_cluster,
                  longitudinal="cruise", mobil_enabled=False),
        SpawnSpec("cl1", "conservative", 0, c + arm, v_cluster,
                  longitudinal="cruise", mobil_enabled=False),
        SpawnSpec("cm", "conservative", 1, c, v_cluster,
                  longitudinal="cruise", mobil_enabled=False),
    ]
    return ScenarioConfig(
        lane_count=3,
        road_length_m=4000.0,
        timestep_s=DT,
        duration_s=duration,
        spawns=spawns,
        maneuvers=[ManeuverLabel("passer", "OT", start_f, end_f)],
        seed=seed,
        randomize_conservative_v0=False,
    )


def _rolling_group(v: float, g: float):
    """Three cruisers in lane 1 at g - 8, g, g + 8 (chained by proximity)."""
    return [
        SpawnSpec("g0", "conservative", 1, g - 8.0, v,
                  longitudinal="cruise", mobil_enabled=False),
        SpawnSpec("g1", "conservative", 1, g, v,
                  longitudinal="cruise", mobil_enabled=False),
        SpawnSpec("g2", "conservative", 1, g + 8.0, v,
                  longitudinal="cruise", mobil_enabled=False),
    ]


def lane_change_scenario(seed: int) -> ScenarioConfig:
    """Scripted merge into a rolling group riding one lane over.

    The subject cruises alongside the group at matched speed; its
    closeness ramps up exactly during the scripted lateral transition,
    which is the ground-truth interval.
    """
    rng = np.random.default_rng(2000 + seed)
    v = 24.0 + float(rng.uniform(-1.0, 1.0))
    g = 200.0 + float(rng.uniform(-10.0, 10.0))
    t_move = 8.0 + float(rng.uniform(0.0, 3.0))

    config = ScenarioConfig(
        lane_count=3,
        road_length_m=3000.0,
        timestep_s=DT,
        duration_s=t_move + 3.0 + 6.0,
        spawns=_rolling_group(v, g)
        + [SpawnSpec("subject", "aggressive", 2, g + 4.0, v,
                     longitudinal="cruise", mobil_enabled=False)],
        lane_change_scripts=[LaneChangeScript("subject", _frame(t_move), 1)],
        maneuvers=[ManeuverLabel("subject", "SLC", _frame(t_move), _frame(t_move + 3.0))],
        seed=seed,
        randomize_conservative_v0=False,
    )
    return config


def weaving_scenario(seed: int) -> ScenarioConfig:
    """Aggressive slalom along two dense slow queues.

    The subject threads the middle lane past queues riding both outer
    lanes, swinging left and right on a fixed cadence with quick (1.5 s)
    transitions. Every swing is a close lateral pass, so the closeness
    polynomial oscillates sharply; the ground truth spans the scripted
    slalom.
    """
    rng = np.random.default_rng(3000 + seed)
    v_queue = 20.0 + float(rng.uniform(-1.0, 1.0))
    v_subject = v_queue + 12.0 + float(rng.uniform(-1.0, 1.0))
    spacing = 14.0 + float(rng.uniform(-1.0, 1.0))
    q = 120.0 + float(rng.uniform(-10.0, 10.0))
    t0 = 3.0 + float(rng.uniform(0.0, 1.0))
    cadence = 2.5
    transition = 1.5

    spawns = [
        SpawnSpec("subject", "aggressive", 1, q - 40.0, v_subject,
                  longitudinal="cruise", mobil_enabled=False)
    ]
    for i in range(8):
        spawns.append(
            SpawnSpec(f"qa{i}", "conservative", 0, q + spacing * i, v_queue,
                      longitudinal="cruise", mobil_enabled=False)
        )
        spawns.append(
            SpawnSpec(f"qb{i}", "conservative", 2, q + 7.0 + spacing * i, v_queue,
                      longitudinal="cruise", mobil_enabled=False)
        )

    targets = [0, 1, 2, 1]  # left swing, back, right swing, back
    moves = [(t0 + cadence * k, lane) for k, lane in enumerate(targets)]
    end_t = moves[-1][0] + transition
    config = ScenarioConfig(
        lane_count=3,
        road_length_m=3000.0,
        timestep_s=DT,
        duration_s=end_t + 4.0,
        spawns=spawns,
        lane_change_scripts=[
            LaneChangeScript("subject", _frame(t), lane) for t, lane in moves
        ],
        maneuvers=[ManeuverLabel("subject", "W", _frame(t0), _frame(end_t))],
        seed=seed,
        randomize_conservative_v0=False,
        lane_change_duration_s=transition,
    )
    return config


_STYLE_BUILDERS = {
    "OS": overspeed_scenario,
    "OT": overtake_scenario,
    "SLC": lane_change_scenario,
    "W": weaving_scenario,
}


def tde_suite(runs_per_style: int = 5) -> list[BenchmarkScenario]:
    """The fixed 4-style benchmark: runs_per_style seeded scenarios each."""
    suite = []
    for style in ("OS", "OT", "SLC", "W"):
        for seed in range(runs_per_style):
            suite.append(
                BenchmarkScenario(
                    name=f"{style.lower()}_{seed}",
                    style=style,
                    config=_STYLE_BUILDERS[style](seed),
                )
            )
    return suite


def mixed_behavior_scenario(seed: int = 0) -> ScenarioConfig:
    """One aggressive driver in ordinary three-lane conservative traffic.

    Full car-following and lane-change dynamics. The nine conservatives
    ride in three cross-lane echelons; sweeping an echelon at a 15 m/s
    speed surplus racks up first encounters far faster than any
    conservative drifting past a neighbor, which is what separates the
    aggressive degree signature.
    """
    spawns = []
    idx = 0
    for group, anchor in enumerate((220.0, 360.0, 500.0)):
        for lane in range(3):
            spawns.append(
                SpawnSpec(f"c{idx}", "conservative", lane,
                          anchor + 10.0 * lane, 24.0)
            )
            idx += 1
    spawns.append(SpawnSpec("agg", "aggressive", 1, 0.0, 32.0))
    return ScenarioConfig(
        lane_count=3,
        road_length_m=6000.0,
        timestep_s=DT,
        duration_s=60.0,
        spawns=spawns,
        seed=seed,
    )


def all_conservative_scenario(seed: int = 0) -> ScenarioConfig:
    """The mixed scenario's conservative population without the aggressor."""
    config = mixed_behavior_scenario(seed)
    config.spawns = [s for s in config.spawns if s.vehicle_class == "conservative"]
    return config


def congested_wave_scenario(seed: int = 0) -> ScenarioConfig:
    """Benign but rough traffic anchoring the calibration percentiles.

    Two staggered crawling queues fill the outer lanes while conservatives
    in the remaining lane stream past the whole block, racking up first
    encounters at twice the single-queue rate (the benign degree
    envelope). Far down the road, isolated moderate-speed passing pairs
    produce the benign closeness/sharpness envelope: a two-vehicle pass
    forms a tight component whose closeness swings harder than anything a
    big diluted cluster can.
    """
    spawns = []
    for i in range(5):
        spawns.append(
            SpawnSpec(f"qa{i}", "conservative", 0, 600.0 + 13.0 * i, 12.0,
                      longitudinal="cruise", mobil_enabled=False)
        )
        spawns.append(
            SpawnSpec(f"qb{i}", "conservative", 1, 606.5 + 13.0 * i, 12.0,
                      longitudinal="cruise", mobil_enabled=False)
        )
    for slot in range(6):
        spawns.append(
            SpawnSpec(f"f{slot}", "conservative", 2, 275.0 - 55.0 * slot, 26.0,
                      mobil_enabled=False)
        )
    for k in range(3):
        anchor = 2500.0 + 250.0 * k
        spawns.append(
            SpawnSpec(f"slow{k}", "conservative", 0, anchor, 20.0,
                      longitudinal="cruise", mobil_enabled=False)
        )
        spawns.append(
            SpawnSpec(f"pass{k}", "conservative", 1, anchor - 60.0, 28.0,
                      longitudinal="cruise", mobil_enabled=False)
        )
    return ScenarioConfig(
        lane_count=3,
        road_length_m=6000.0,
        timestep_s=DT,
        duration_s=60.0,
        spawns=spawns,
        seed=seed,
    )


def calibration_scenarios() -> list[ScenarioConfig]:
    """Conservative-only traffic spanning calm cruising to rough waves."""
    return [
        all_conservative_scenario(0),
        all_conservative_scenario(1),
        congested_wave_scenario(10),
        congested_wave_scenario(11),
    ]
