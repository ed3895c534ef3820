"""Highway microsimulator producing labeled multi-agent trajectories.

Longitudinal dynamics follow the intelligent-driver car-following law;
lane-change decisions follow the politeness-weighted safety/incentive
rule. Two parameter classes (conservative, aggressive) define the driver
population. Scenarios may additionally script agents: a constant-speed
longitudinal mode and forced lane changes at fixed frames make maneuver
timing predictable, which is what turns a scenario into ground truth.

Stepping is single-threaded and deterministic: the RNG seeds only the
conservative desired-speed draw at spawn time, so identical (config,
seed) pairs produce identical output bytes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .errors import ValidationError, require_non_negative, require_positive
from .evaluation import STYLE_CODES
from .ingest import (
    TrajectoryTable,
    frame_index,
    read_yaml,
    write_text,
    yaml_bool,
    yaml_float,
    yaml_int,
    yaml_record,
    yaml_str,
)

VEHICLE_LENGTH_M = 5.0

CLASS_CONSERVATIVE = "conservative"
CLASS_AGGRESSIVE = "aggressive"

MODE_IDM = "idm"
MODE_CRUISE = "cruise"


@dataclass(frozen=True)
class DriverParams:
    """Car-following and lane-change parameters of one driver class."""

    v0: float  # desired speed, m/s
    T_gap: float  # safety time gap, s
    s0: float  # minimum standstill distance, m
    a_max: float  # comfortable max acceleration, m/s^2
    b_comf: float  # comfortable max deceleration, m/s^2
    politeness: float  # lane-change politeness, in [0, 1]
    delta_a_th: float  # minimum acceleration gain to bother changing, m/s^2
    b_safe: float  # deceleration limit imposed on the new follower, m/s^2

    def __post_init__(self):
        positives = {
            "v0": self.v0,
            "T_gap": self.T_gap,
            "s0": self.s0,
            "a_max": self.a_max,
            "b_comf": self.b_comf,
            "b_safe": self.b_safe,
        }
        for name, value in positives.items():
            require_positive(value, name)
        if not 0.0 <= self.politeness <= 1.0:
            raise ValidationError(f"politeness must lie in [0, 1], got {self.politeness}")
        require_non_negative(self.delta_a_th, "delta_a_th")


CONSERVATIVE_PARAMS = DriverParams(
    v0=25.0, T_gap=1.5, s0=5.0, a_max=3.0, b_comf=6.0,
    politeness=0.5, delta_a_th=0.2, b_safe=3.0,
)
AGGRESSIVE_PARAMS = DriverParams(
    v0=40.0, T_gap=1.2, s0=2.5, a_max=6.0, b_comf=9.0,
    politeness=0.0, delta_a_th=0.0, b_safe=9.0,
)
CLASS_PARAMS = {
    CLASS_CONSERVATIVE: CONSERVATIVE_PARAMS,
    CLASS_AGGRESSIVE: AGGRESSIVE_PARAMS,
}


@dataclass
class LaneChangeState:
    from_lane: int
    to_lane: int
    progress: float = 0.0  # fraction of the transition completed


@dataclass
class SimAgent:
    """Mutable state of one simulated vehicle."""

    agent_id: str
    vehicle_class: str
    lane: int
    x: float
    speed: float
    params: DriverParams
    longitudinal: str = MODE_IDM
    mobil_enabled: bool = True
    lane_change: LaneChangeState | None = None

    def lateral_y(self, lane_width: float) -> float:
        if self.lane_change is None:
            return self.lane * lane_width
        lc = self.lane_change
        blend = 0.5 * (1.0 - math.cos(math.pi * lc.progress))
        return (lc.from_lane + (lc.to_lane - lc.from_lane) * blend) * lane_width

    def lateral_rate(self, lane_width: float, duration: float) -> float:
        if self.lane_change is None:
            return 0.0
        lc = self.lane_change
        return (
            (lc.to_lane - lc.from_lane) * lane_width
            * math.pi / (2.0 * duration) * math.sin(math.pi * lc.progress)
        )


@dataclass(frozen=True)
class SpawnSpec:
    agent_id: str
    vehicle_class: str
    lane: int
    position: float
    speed: float
    longitudinal: str = MODE_IDM
    mobil_enabled: bool = True
    v0: float | None = None  # explicit desired-speed override


@dataclass(frozen=True)
class LaneChangeScript:
    agent_id: str
    frame: int
    target_lane: int


@dataclass(frozen=True)
class ManeuverLabel:
    agent_id: str
    style: str  # OS | OT | SLC | W
    start_frame: int
    end_frame: int


@dataclass(frozen=True)
class CollisionEvent:
    frame: int
    agent_id: str
    leader_id: str


@dataclass
class ScenarioConfig:
    """Scenario script: road, population, forced maneuvers, ground truth."""

    lane_count: int
    road_length_m: float
    timestep_s: float
    duration_s: float
    spawns: list[SpawnSpec] = field(default_factory=list)
    maneuvers: list[ManeuverLabel] = field(default_factory=list)
    lane_change_scripts: list[LaneChangeScript] = field(default_factory=list)
    seed: int = 0
    randomize_conservative_v0: bool = True
    lane_width_m: float = 4.0
    lane_change_duration_s: float = 3.0
    mobil_period_s: float = 1.0

    def frame_count(self) -> int:
        return int(round(self.duration_s / self.timestep_s))

    def validate(self) -> None:
        require_positive(self.timestep_s, "timestep_s")
        require_non_negative(self.duration_s, "duration_s")
        if self.lane_count < 1:
            raise ValidationError(f"need at least one lane, got {self.lane_count}")
        require_positive(self.road_length_m, "road_length_m")
        require_positive(self.lane_width_m, "lane_width_m")
        require_positive(self.lane_change_duration_s, "lane_change_duration_s")
        require_positive(self.mobil_period_s, "mobil_period_s")
        seen_ids = set()
        for spawn in self.spawns:
            if spawn.agent_id in seen_ids:
                raise ValidationError(f"duplicate spawn agent_id {spawn.agent_id!r}")
            seen_ids.add(spawn.agent_id)
            if spawn.vehicle_class not in CLASS_PARAMS:
                raise ValidationError(
                    f"unknown vehicle class {spawn.vehicle_class!r} for {spawn.agent_id!r}"
                )
            if not 0 <= spawn.lane < self.lane_count:
                raise ValidationError(
                    f"{spawn.agent_id!r}: lane {spawn.lane} outside road bounds"
                )
            if not 0 <= spawn.position <= self.road_length_m:
                raise ValidationError(
                    f"{spawn.agent_id!r}: position {spawn.position} off the road"
                )
            require_non_negative(spawn.speed, f"{spawn.agent_id!r}: spawn speed")
            if spawn.longitudinal not in (MODE_IDM, MODE_CRUISE):
                raise ValidationError(
                    f"{spawn.agent_id!r}: unknown longitudinal mode {spawn.longitudinal!r}"
                )
        frames = self.frame_count()
        for script in self.lane_change_scripts:
            if script.agent_id not in seen_ids:
                raise ValidationError(
                    f"lane-change script names unknown agent {script.agent_id!r}"
                )
            if not 0 <= script.target_lane < self.lane_count:
                raise ValidationError(
                    f"script target lane {script.target_lane} outside road bounds"
                )
            if not 0 <= script.frame < max(frames, 1):
                raise ValidationError(
                    f"script frame {script.frame} outside scenario duration"
                )
        for label in self.maneuvers:
            if label.agent_id not in seen_ids:
                raise ValidationError(
                    f"maneuver label names unknown agent {label.agent_id!r}"
                )
            if label.style not in STYLE_CODES:
                raise ValidationError(
                    f"maneuver style {label.style!r} not one of {STYLE_CODES}"
                )
            if label.start_frame > label.end_frame:
                raise ValidationError("maneuver start frame after end frame")
            if frames and not (
                0 <= label.start_frame < frames and 0 <= label.end_frame < frames
            ):
                raise ValidationError(
                    f"maneuver frames ({label.start_frame}, {label.end_frame}) "
                    f"outside scenario duration of {frames} frames"
                )


def idm_acceleration(
    ego: SimAgent,
    leader: SimAgent | None,
    collisions: list[CollisionEvent] | None = None,
    frame: int = 0,
) -> float:
    """Car-following acceleration: free-road term minus interaction term.

    A non-positive gap is a collision: it is appended to the scenario log
    and answered with the emergency deceleration -b_comf so the run can
    continue.
    """
    p = ego.params
    free = 1.0 - (ego.speed / p.v0) ** 4
    if leader is None:
        return p.a_max * free
    gap = leader.x - ego.x - VEHICLE_LENGTH_M
    if gap <= 0.0:
        if collisions is not None:
            collisions.append(CollisionEvent(frame, ego.agent_id, leader.agent_id))
        return -p.b_comf
    dv = ego.speed - leader.speed
    s_star = p.s0 + ego.speed * p.T_gap + ego.speed * dv / (
        2.0 * math.sqrt(p.a_max * p.b_comf)
    )
    return p.a_max * (free - (s_star / gap) ** 2)


@dataclass(frozen=True)
class MobilDecision:
    approved: bool
    safety_ok: bool
    incentive: float
    new_follower_acceleration: float  # the deceleration imposed in the target lane


def mobil_decision(
    ego: SimAgent,
    current_leader: SimAgent | None,
    current_follower: SimAgent | None,
    target_leader: SimAgent | None,
    target_follower: SimAgent | None,
) -> MobilDecision:
    """Approve a lane change iff it is safe and worth the bother.

    Safety: the would-be follower in the target lane must not be forced
    below -b_safe. Incentive: the ego acceleration gain plus the
    politeness-weighted gains of both affected followers must exceed the
    ego's threshold. All accelerations come from the car-following law
    evaluated on the hypothetical arrangement. Non-positive insertion
    gaps are rejected outright as unsafe.
    """
    p = ego.params
    feasible = True
    if target_leader is not None and target_leader.x - ego.x - VEHICLE_LENGTH_M <= 0:
        feasible = False
    if target_follower is not None and ego.x - target_follower.x - VEHICLE_LENGTH_M <= 0:
        feasible = False
    if not feasible:
        return MobilDecision(
            approved=False,
            safety_ok=False,
            incentive=float("-inf"),
            new_follower_acceleration=float("-inf"),
        )

    a_ego = idm_acceleration(ego, current_leader)
    a_ego_new = idm_acceleration(ego, target_leader)
    gain_ego = a_ego_new - a_ego

    if target_follower is not None:
        a_n = idm_acceleration(target_follower, target_leader)
        a_n_new = idm_acceleration(target_follower, ego)
    else:
        a_n = a_n_new = 0.0
    if current_follower is not None:
        a_o = idm_acceleration(current_follower, ego)
        a_o_new = idm_acceleration(current_follower, current_leader)
    else:
        a_o = a_o_new = 0.0

    safety_ok = target_follower is None or a_n_new >= -p.b_safe
    incentive = gain_ego + p.politeness * ((a_n_new - a_n) + (a_o_new - a_o))
    return MobilDecision(
        approved=safety_ok and incentive > p.delta_a_th,
        safety_ok=safety_ok,
        incentive=incentive,
        new_follower_acceleration=a_n_new if target_follower is not None else math.inf,
    )


@dataclass
class World:
    """One running scenario: agents, clock, collision log."""

    config: ScenarioConfig
    agents: list[SimAgent]
    frame: int = 0
    collisions: list[CollisionEvent] = field(default_factory=list)

    def __post_init__(self):
        self._scripts = {
            (s.agent_id, s.frame): s.target_lane
            for s in self.config.lane_change_scripts
        }


class LaneIndex:
    """Every agent as a sorted (lane, x, position in the agent list) key.

    Answers the same leader and follower as a scan of the agent list in
    order: the leader is the nearest agent strictly ahead, the follower
    the nearest at or behind ego, and ties go to the earlier agent.
    """

    def __init__(self, agents: list[SimAgent]):
        self.agents = agents
        self.keys = sorted([(a.lane, a.x, pos) for pos, a in enumerate(agents)])

    def leader(self, pos: int, lane: int) -> SimAgent | None:
        """Nearest agent in ``lane`` strictly ahead of the agent at ``pos``."""
        keys = self.keys
        ahead = bisect_right(keys, (lane, self.agents[pos].x, len(keys)))
        if ahead < len(keys) and keys[ahead][0] == lane:
            return self.agents[keys[ahead][2]]
        return None

    def follower(self, pos: int, lane: int) -> SimAgent | None:
        """Nearest other agent in ``lane`` at or behind the agent at ``pos``."""
        keys = self.keys
        end = bisect_right(keys, (lane, self.agents[pos].x, len(keys)))
        while end > 0 and keys[end - 1][0] == lane:
            # the keys sharing the largest x left, in list order; ego is at
            # most one of them
            start = bisect_left(keys, (lane, keys[end - 1][1], -1), 0, end)
            if keys[start][2] != pos:
                return self.agents[keys[start][2]]
            if start + 1 < end:
                return self.agents[keys[start + 1][2]]
            end = start
        return None

    def move(self, pos: int, from_lane: int) -> None:
        """Re-file the agent at ``pos`` after its lane changed."""
        agent = self.agents[pos]
        del self.keys[bisect_left(self.keys, (from_lane, agent.x, pos))]
        insort(self.keys, (agent.lane, agent.x, pos))


def _begin_lane_change(agent: SimAgent, target_lane: int) -> None:
    current = agent.lane_change.from_lane if agent.lane_change else agent.lane
    agent.lane_change = LaneChangeState(from_lane=current, to_lane=target_lane)
    agent.lane = target_lane  # car-following commits to the target lane at once


def step(world: World, dt: float) -> World:
    """Advance the world one timestep, in place.

    Order per frame: scripted lane changes, lane-change decisions at the
    decision period, one batch of accelerations from the pre-step state,
    then the Euler position/speed update and lateral progress.
    """
    cfg = world.config
    if abs(dt - cfg.timestep_s) > 1e-12:
        raise ValidationError(
            f"dt {dt} does not match the scenario timestep {cfg.timestep_s}"
        )

    for agent in world.agents:
        target = world._scripts.get((agent.agent_id, world.frame))
        if target is not None and target != agent.lane:
            _begin_lane_change(agent, target)

    lanes = LaneIndex(world.agents)
    mobil_stride = max(1, int(round(cfg.mobil_period_s / dt)))
    if world.frame % mobil_stride == 0:
        for pos, agent in enumerate(world.agents):
            if (
                agent.longitudinal != MODE_IDM
                or not agent.mobil_enabled
                or agent.lane_change is not None
            ):
                continue
            cur_leader = lanes.leader(pos, agent.lane)
            cur_follower = lanes.follower(pos, agent.lane)
            best: tuple[float, int, MobilDecision] | None = None
            for target in (agent.lane - 1, agent.lane + 1):
                if not 0 <= target < cfg.lane_count:
                    continue
                t_leader = lanes.leader(pos, target)
                t_follower = lanes.follower(pos, target)
                decision = mobil_decision(
                    agent, cur_leader, cur_follower, t_leader, t_follower
                )
                if decision.approved and (best is None or decision.incentive > best[0]):
                    best = (decision.incentive, target, decision)
            if best is not None:
                _, target, decision = best
                # internal invariant: an approved change is a safe change
                assert decision.safety_ok
                assert decision.new_follower_acceleration >= -agent.params.b_safe
                assert decision.incentive > agent.params.delta_a_th
                from_lane = agent.lane
                _begin_lane_change(agent, target)
                lanes.move(pos, from_lane)

    accels = []
    for pos, agent in enumerate(world.agents):
        if agent.longitudinal == MODE_CRUISE:
            accels.append(0.0)
            continue
        leader = lanes.leader(pos, agent.lane)
        accels.append(idm_acceleration(agent, leader, world.collisions, world.frame))

    for agent, acc in zip(world.agents, accels):
        agent.x += agent.speed * dt
        agent.speed = max(0.0, agent.speed + acc * dt)
        if agent.lane_change is not None:
            agent.lane_change.progress += dt / cfg.lane_change_duration_s
            if agent.lane_change.progress >= 1.0 - 1e-12:
                agent.lane_change = None

    world.frame += 1
    return world


@dataclass
class SimResult:
    table: TrajectoryTable
    labels: list[ManeuverLabel]
    collisions: list[CollisionEvent]
    agent_classes: dict[str, str]


def build_world(config: ScenarioConfig) -> World:
    """Instantiate agents from the spawn list (seeded desired speeds)."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    agents = []
    for spawn in config.spawns:
        params = CLASS_PARAMS[spawn.vehicle_class]
        if spawn.vehicle_class == CLASS_CONSERVATIVE and config.randomize_conservative_v0:
            params = replace(params, v0=params.v0 * float(rng.uniform(0.9, 1.1)))
        if spawn.v0 is not None:
            params = replace(params, v0=spawn.v0)
        agents.append(
            SimAgent(
                agent_id=spawn.agent_id,
                vehicle_class=spawn.vehicle_class,
                lane=spawn.lane,
                x=spawn.position,
                speed=spawn.speed,
                params=params,
                longitudinal=spawn.longitudinal,
                mobil_enabled=spawn.mobil_enabled,
            )
        )
    return World(config=config, agents=agents)


def run_scenario(config: ScenarioConfig) -> SimResult:
    """Run a scenario and emit an ingest-compatible table plus labels.

    Every agent has a row at every frame, in spawn order.
    """
    world = build_world(config)
    cfg = config
    rate = 1.0 / cfg.timestep_s
    width, duration = cfg.lane_width_m, cfg.lane_change_duration_s
    agents = world.agents
    frame, timestamp, x, y, vx, vy = [], [], [], [], [], []
    for k in range(cfg.frame_count()):
        ts = k * cfg.timestep_s
        frame.append(frame_index(ts, rate))
        timestamp.append(ts)
        x += [a.x for a in agents]
        y += [a.lateral_y(width) for a in agents]
        vx += [a.speed for a in agents]
        vy += [a.lateral_rate(width, duration) for a in agents]
        step(world, cfg.timestep_s)
    n = len(agents)
    table = TrajectoryTable(
        frame=np.repeat(np.array(frame, dtype=np.int64), n),
        timestamp=np.repeat(np.array(timestamp, dtype=float), n),
        x=np.array(x, dtype=float),
        y=np.array(y, dtype=float),
        vx=np.array(vx, dtype=float),
        vy=np.array(vy, dtype=float),
        agent=np.tile(np.arange(n), len(frame)),
        agent_ids=[a.agent_id for a in agents],
        agent_type=np.full(n * len(frame), "car", dtype=object),
        frame_rate_hz=rate,
    )
    return SimResult(
        table=table,
        labels=list(cfg.maneuvers),
        collisions=list(world.collisions),
        agent_classes={a.agent_id: a.vehicle_class for a in agents},
    )


# ---------------------------------------------------------------------------
# file formats


def write_labels(labels: list[ManeuverLabel], dest) -> str:
    """Ground-truth label CSV: ``agent_id,style,start_frame,end_frame``.

    ``evaluation.parse_annotations`` reads it back.
    """
    lines = ["agent_id,style,start_frame,end_frame"]
    for lab in labels:
        lines.append(f"{lab.agent_id},{lab.style},{lab.start_frame},{lab.end_frame}")
    return write_text(dest, "\n".join(lines) + "\n", "labels")


def _yaml_list(cls, what: str):
    """Reader of a YAML list of ``cls`` records (see ``ingest.yaml_record``)."""
    def read(value, name):
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return [yaml_record(cls, entry, _RECORD_KEYS[cls], what) for entry in value]
    return read


# YAML key -> (field, reader) of each scenario record, in file order: the
# one schema that load_scenario reads and save_scenario writes
_RECORD_KEYS = {
    SpawnSpec: {
        "id": ("agent_id", yaml_str),
        "class": ("vehicle_class", yaml_str),
        "lane": ("lane", yaml_int),
        "position": ("position", yaml_float),
        "speed": ("speed", yaml_float),
        "longitudinal": ("longitudinal", yaml_str),
        "mobil": ("mobil_enabled", yaml_bool),
        "v0": ("v0", yaml_float),
    },
    LaneChangeScript: {
        "agent": ("agent_id", yaml_str),
        "frame": ("frame", yaml_int),
        "target_lane": ("target_lane", yaml_int),
    },
    ManeuverLabel: {
        "agent": ("agent_id", yaml_str),
        "style": ("style", yaml_str),
        "start_frame": ("start_frame", yaml_int),
        "end_frame": ("end_frame", yaml_int),
    },
    ScenarioConfig: {
        "lane_count": ("lane_count", yaml_int),
        "road_length_m": ("road_length_m", yaml_float),
        "timestep_s": ("timestep_s", yaml_float),
        "duration_s": ("duration_s", yaml_float),
        "seed": ("seed", yaml_int),
        "randomize_conservative_v0": ("randomize_conservative_v0", yaml_bool),
        "lane_width_m": ("lane_width_m", yaml_float),
        "lane_change_duration_s": ("lane_change_duration_s", yaml_float),
        "mobil_period_s": ("mobil_period_s", yaml_float),
        "agents": ("spawns", _yaml_list(SpawnSpec, "agent")),
        "lane_change_scripts": (
            "lane_change_scripts", _yaml_list(LaneChangeScript, "lane-change script")
        ),
        "maneuvers": ("maneuvers", _yaml_list(ManeuverLabel, "maneuver")),
    },
}


def _to_yaml(record) -> dict:
    """The YAML mapping of a scenario record; a None field (``v0``) is left out."""
    payload = {}
    for key, (name, _) in _RECORD_KEYS[type(record)].items():
        value = getattr(record, name)
        if isinstance(value, list):
            value = [_to_yaml(entry) for entry in value]
        if value is not None:
            payload[key] = value
    return payload


def save_scenario(config: ScenarioConfig, dest) -> None:
    write_text(dest, yaml.safe_dump(_to_yaml(config), sort_keys=False), "scenario")


def load_scenario(source) -> ScenarioConfig:
    """Read a scenario YAML file (see ``ingest.read_yaml`` for its errors)."""
    return read_yaml(source, "scenario", _scenario_from_dict)


def _scenario_from_dict(payload: dict) -> ScenarioConfig:
    config = yaml_record(ScenarioConfig, payload, _RECORD_KEYS[ScenarioConfig], "scenario")
    config.validate()  # fail while the file is known
    return config
