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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import yaml

from .errors import ValidationError, require_non_negative, require_positive
from .evaluation import STYLE_CODES
from .ingest import (
    TrajectoryTable,
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
        for name in ("v0", "T_gap", "s0", "a_max", "b_comf", "b_safe"):
            require_positive(getattr(self, name), name)
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
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
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


def idm_law(params: DriverParams) -> tuple[float, ...]:
    """A driver's car-following inputs, as ``idm_acceleration`` takes them.

    ``(v0, a_max, b_comf, s0, T_gap, 2 sqrt(a_max b_comf))``: the root is
    taken once per driver, the same bits as taking it in every call.
    """
    p = params
    return (p.v0, p.a_max, p.b_comf, p.s0, p.T_gap, 2.0 * math.sqrt(p.a_max * p.b_comf))


def idm_acceleration(
    law: tuple[float, ...], speed: float, gap: float | None = None, lead_speed: float = 0.0
) -> float:
    """Car-following acceleration: free-road term minus interaction term.

    ``law`` is the driver's ``idm_law``, ``gap`` the bumper-to-bumper
    distance to the leader (None on a free road) and ``lead_speed`` the
    leader's speed. A non-positive gap is a collision, answered with the
    emergency deceleration -b_comf so the run can continue (``step``
    logs it). The powers are Python's ``**``: numpy's ``power`` differs
    from it in the last bit on some values.
    """
    v0, a_max, b_comf, s0, t_gap, root = law
    free = 1.0 - (speed / v0) ** 4
    if gap is None:
        return a_max * free
    if gap <= 0.0:
        return -b_comf
    s_star = s0 + speed * t_gap + speed * (speed - lead_speed) / root
    return a_max * (free - (s_star / gap) ** 2)


class MobilDecision(NamedTuple):
    approved: bool
    safety_ok: bool
    incentive: float
    new_follower_acceleration: float  # the deceleration imposed in the target lane


def _follow(back, front) -> float:
    """``idm_acceleration`` of car ``back`` behind ``front`` (None: free road)."""
    if front is None:
        return idm_acceleration(back[2], back[1])
    return idm_acceleration(back[2], back[1], front[0] - back[0] - VEHICLE_LENGTH_M, front[1])


def mobil_decision(
    params: DriverParams, ego, current_leader, current_follower, target_leader, target_follower
) -> MobilDecision:
    """Approve a lane change iff it is safe and worth the bother.

    A car is ``(x, speed, idm_law)``, or None where the neighbour is
    absent; ``params`` are the ego's. Safety: the would-be follower in
    the target lane must not be forced below -b_safe. Incentive: the ego
    acceleration gain plus the politeness-weighted gains of both affected
    followers must exceed the ego's threshold. All accelerations come
    from the car-following law evaluated on the hypothetical arrangement.
    Non-positive insertion gaps are rejected outright as unsafe.
    """
    if (target_leader is not None and target_leader[0] - ego[0] - VEHICLE_LENGTH_M <= 0) or (
        target_follower is not None and ego[0] - target_follower[0] - VEHICLE_LENGTH_M <= 0
    ):
        return MobilDecision(False, False, -math.inf, -math.inf)

    gain_ego = _follow(ego, target_leader) - _follow(ego, current_leader)
    a_n = a_n_new = a_o = a_o_new = 0.0
    if target_follower is not None:
        a_n, a_n_new = _follow(target_follower, target_leader), _follow(target_follower, ego)
    if current_follower is not None:
        a_o, a_o_new = _follow(current_follower, ego), _follow(current_follower, current_leader)
    safety_ok = target_follower is None or a_n_new >= -params.b_safe
    incentive = gain_ego + params.politeness * ((a_n_new - a_n) + (a_o_new - a_o))
    new_follower = math.inf if target_follower is None else a_n_new
    return MobilDecision(
        safety_ok and incentive > params.delta_a_th, safety_ok, incentive, new_follower
    )


@dataclass
class World:
    """One running scenario: per-agent list columns in spawn order, clock, collision log.

    ``law`` holds each agent's ``idm_law``; ``mobil`` whether lane-change
    decisions are its own (an IDM agent with MOBIL on). ``lane_change``
    maps the position of each agent mid-change to its (start, progress),
    the start a lateral position in lane units (a float lane index); its
    ``lane`` is already the target lane, which
    car-following commits to at once. ``scripts`` maps a frame to its
    scripted changes, {position: target lane}.
    """

    config: ScenarioConfig
    ids: list[str]
    x: list[float]
    speed: list[float]
    lane: list[int]
    params: list[DriverParams]
    law: list[tuple[float, ...]]
    cruise: list[bool]
    mobil: list[bool]
    scripts: dict[int, dict[int, int]]
    lane_change: dict[int, tuple[float, float]] = field(default_factory=dict)
    frame: int = 0
    collisions: list[CollisionEvent] = field(default_factory=list)


# Neighbour lookup. Each lane holds its agents' x in increasing order, and
# their positions in the agent list, ties in list order: a scan of the
# agent list answers the same. The leader is the nearest agent strictly
# ahead, the first of the next larger x; the follower the nearest other
# agent at or behind, the earliest in list order.


def _lanes(lane: list[int], x: list[float], lane_count: int):
    """(xs, ps) per lane: the x of its agents in increasing order, and their positions."""
    ps: list[list[int]] = [[] for _ in range(lane_count)]
    for pos, k in enumerate(lane):
        ps[k].append(pos)
    for members in ps:
        members.sort(key=x.__getitem__)  # stable: ties stay in list order
    return [[x[pos] for pos in members] for members in ps], ps


def _leader(xs: list[float], ps: list[int], x: float) -> int | None:
    """Position of the nearest agent of a lane strictly ahead of ``x``."""
    k = bisect_right(xs, x)
    return ps[k] if k < len(xs) else None


def _follower(xs: list[float], ps: list[int], x: float, pos: int) -> int | None:
    """Position of the nearest agent of a lane at or behind ``x``, other than ``pos``."""
    end = bisect_right(xs, x)
    while end:
        # the agents at the largest x left, in list order; ego is at most one
        start = bisect_left(xs, xs[end - 1], 0, end)
        if ps[start] != pos:
            return ps[start]
        if start + 1 < end:
            return ps[start + 1]
        end = start
    return None


def _refile(lanes, pos: int, x: float, from_lane: int, to_lane: int) -> None:
    """Move the agent at ``pos`` from one lane's lists to another's.

    Among the agents at ``x``, it is found, and goes, by its position.
    """
    xs, ps = lanes[0][from_lane], lanes[1][from_lane]
    k = bisect_left(ps, pos, bisect_left(xs, x), bisect_right(xs, x))
    del xs[k], ps[k]
    xs, ps = lanes[0][to_lane], lanes[1][to_lane]
    k = bisect_left(ps, pos, bisect_left(xs, x), bisect_right(xs, x))
    xs.insert(k, x)
    ps.insert(k, pos)


def _leaders(lanes, n: int) -> list[int | None]:
    """Every agent's leader in its own lane, by one walk down each lane."""
    leaders: list[int | None] = [None] * n
    for xs, ps in zip(*lanes):
        ahead = None
        for k in range(len(xs) - 1, 0, -1):
            if xs[k] != xs[k - 1]:
                ahead = ps[k]
            leaders[ps[k - 1]] = ahead
    return leaders


def _begin_lane_change(world: World, pos: int, target_lane: int) -> None:
    """Start a change to ``target_lane`` from where the agent is now.

    A change starts from the agent's lateral position in lane units: its
    lane, or, mid-change, the blended position of that change, so a
    retarget continues from where the agent is.
    """
    if pos in world.lane_change:
        start, progress = world.lane_change[pos]
        blend = 0.5 * (1.0 - math.cos(math.pi * progress))
        start += (world.lane[pos] - start) * blend
    else:
        start = float(world.lane[pos])
    world.lane_change[pos] = (start, 0.0)
    world.lane[pos] = target_lane


def _mobil_pass(world: World, lanes) -> None:
    """Lane-change decisions in agent order; an approval re-files the agent."""
    x, speed, lane, law = world.x, world.speed, world.lane, world.law
    xs, ps = lanes
    lane_count = world.config.lane_count

    def car(pos):
        return None if pos is None else (x[pos], speed[pos], law[pos])

    for pos, decides in enumerate(world.mobil):
        if not decides or pos in world.lane_change:
            continue
        at, own, params = x[pos], lane[pos], world.params[pos]
        ego = car(pos)
        cur_leader = car(_leader(xs[own], ps[own], at))
        cur_follower = car(_follower(xs[own], ps[own], at, pos))
        best: tuple[MobilDecision, int] | None = None
        for target in (own - 1, own + 1):
            if not 0 <= target < lane_count:
                continue
            decision = mobil_decision(
                params, ego, cur_leader, cur_follower,
                car(_leader(xs[target], ps[target], at)),
                car(_follower(xs[target], ps[target], at, pos)),
            )
            if decision.approved and (best is None or decision.incentive > best[0].incentive):
                best = (decision, target)
        if best is not None:
            decision, target = best
            # internal invariant: an approved change is a safe change
            assert decision.safety_ok
            assert decision.new_follower_acceleration >= -params.b_safe
            assert decision.incentive > params.delta_a_th
            _begin_lane_change(world, pos, target)
            _refile(lanes, pos, at, own, target)


def step(world: World) -> World:
    """Advance the world one timestep of its scenario, in place.

    Order per frame: scripted lane changes, lane-change decisions at the
    decision period, one batch of accelerations from the pre-step state
    (collisions logged in agent order), then the Euler position/speed
    update and lateral progress.
    """
    cfg = world.config
    dt = cfg.timestep_s
    lane = world.lane
    for pos, target in world.scripts.get(world.frame, {}).items():
        if target != lane[pos]:
            _begin_lane_change(world, pos, target)

    lanes = _lanes(lane, world.x, cfg.lane_count)
    if world.frame % max(1, int(round(cfg.mobil_period_s / dt))) == 0:
        _mobil_pass(world, lanes)

    x, speed, law, ids = world.x, world.speed, world.law, world.ids
    accels = []
    for pos, (leader, cruise) in enumerate(zip(_leaders(lanes, len(x)), world.cruise)):
        if cruise:
            accels.append(0.0)
        elif leader is None:
            accels.append(idm_acceleration(law[pos], speed[pos]))
        else:
            gap = x[leader] - x[pos] - VEHICLE_LENGTH_M
            if gap <= 0.0:
                world.collisions.append(CollisionEvent(world.frame, ids[pos], ids[leader]))
            accels.append(idm_acceleration(law[pos], speed[pos], gap, speed[leader]))

    world.x = [xi + v * dt for xi, v in zip(x, speed)]
    # max(0.0, w), which is w only where w > 0.0
    world.speed = [w if (w := v + a * dt) > 0.0 else 0.0 for v, a in zip(speed, accels)]
    progress_step = dt / cfg.lane_change_duration_s
    for pos, (start, progress) in list(world.lane_change.items()):
        progress += progress_step
        if progress >= 1.0 - 1e-12:
            del world.lane_change[pos]
        else:
            world.lane_change[pos] = (start, progress)
    world.frame += 1
    return world


@dataclass
class SimResult:
    table: TrajectoryTable
    labels: list[ManeuverLabel]
    collisions: list[CollisionEvent]
    agent_classes: dict[str, str]


def build_world(config: ScenarioConfig) -> World:
    """The columns of the spawn list, with the seeded desired speeds."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    params = []
    for spawn in config.spawns:
        p = CLASS_PARAMS[spawn.vehicle_class]
        if spawn.vehicle_class == CLASS_CONSERVATIVE and config.randomize_conservative_v0:
            p = replace(p, v0=p.v0 * float(rng.uniform(0.9, 1.1)))
        if spawn.v0 is not None:
            p = replace(p, v0=spawn.v0)
        params.append(p)
    spawns, ids = config.spawns, [s.agent_id for s in config.spawns]
    scripts: dict[int, dict[int, int]] = {}
    for s in config.lane_change_scripts:  # a later script of an agent and frame wins
        scripts.setdefault(s.frame, {})[ids.index(s.agent_id)] = s.target_lane
    return World(
        config=config,
        ids=ids,
        x=[s.position for s in spawns],
        speed=[s.speed for s in spawns],
        lane=[s.lane for s in spawns],
        params=params,
        law=list(map(idm_law, params)),
        cruise=[s.longitudinal == MODE_CRUISE for s in spawns],
        mobil=[s.longitudinal == MODE_IDM and s.mobil_enabled for s in spawns],
        scripts=scripts,
    )


def run_scenario(config: ScenarioConfig) -> SimResult:
    """Run a scenario and emit an ingest-compatible table plus labels.

    Every agent has a row at every frame, in spawn order; step k is frame
    k, at ``k * timestep_s``. An agent's lateral position and rate follow
    a cosine blend from its from-lane to its lane while it changes lanes,
    and are its lane's centre and 0 otherwise.
    """
    world = build_world(config)
    cfg = config
    rate = 1.0 / cfg.timestep_s
    width, duration = cfg.lane_width_m, cfg.lane_change_duration_s
    centre = [k * width for k in range(cfg.lane_count)]
    n = len(world.ids)
    frames = cfg.frame_count()
    x, y, vx, vy = [], [], [], []
    for _ in range(frames):
        x += world.x
        vx += world.speed
        lateral, lateral_rate = list(map(centre.__getitem__, world.lane)), [0.0] * n
        for pos, (start, progress) in world.lane_change.items():
            shift = world.lane[pos] - start
            blend = 0.5 * (1.0 - math.cos(math.pi * progress))
            lateral[pos] = (start + shift * blend) * width
            lateral_rate[pos] = (
                shift * width * math.pi / (2.0 * duration) * math.sin(math.pi * progress)
            )
        y += lateral
        vy += lateral_rate
        step(world)
    table = TrajectoryTable(
        frame=np.repeat(np.arange(frames, dtype=np.int64), n),
        timestamp=np.repeat(np.arange(frames) * cfg.timestep_s, n),
        x=np.array(x, dtype=float),
        y=np.array(y, dtype=float),
        vx=np.array(vx, dtype=float),
        vy=np.array(vy, dtype=float),
        agent=np.tile(np.arange(n), frames),
        agent_ids=world.ids,
        agent_type=np.full(n * frames, "car", dtype=object),
        frame_rate_hz=rate,
    )
    return SimResult(
        table=table,
        labels=list(cfg.maneuvers),
        collisions=list(world.collisions),
        agent_classes={s.agent_id: s.vehicle_class for s in cfg.spawns},
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
