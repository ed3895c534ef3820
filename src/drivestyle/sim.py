"""Highway microsimulator producing labeled multi-agent trajectories.

Longitudinal dynamics follow the intelligent-driver car-following law;
lane-change decisions follow the politeness-weighted safety/incentive
rule. Two parameter classes (conservative, aggressive) define the driver
population. Scenarios may additionally script agents: a constant-speed
longitudinal mode and forced lane changes at fixed frames make maneuver
timing predictable, which is what turns a scenario into ground truth.

``build_world`` turns a spawn list into numpy columns (``World``). A
world where an agent follows steps on them, one frame at a time
(``_run_columns``); worlds of one shape handed to ``run_scenarios`` step
together, their columns joined, each world's agents filed under lanes
of their own. A world of cruisers alone is summed with no frame loop.
Stepping is single-threaded and deterministic: the RNG seeds only the
conservative desired-speed draw at spawn time, so identical (config,
seed) pairs produce identical output bytes, alone or in a stack.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import accumulate, repeat, takewhile
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, require_non_negative, require_positive
from .evaluation import STYLE_CODES
from .ingest import (
    TrajectoryTable,
    read_yaml,
    write_text,
    write_yaml,
    yaml_bool,
    yaml_float,
    yaml_int,
    yaml_record,
    yaml_str,
)

VEHICLE_LENGTH_M = 5.0

# More lanes than any road has: a scenario's lane lists stay small
MAX_LANE_COUNT = 64

# Rows (frames x agents, one at least) of the largest scenario: 0.6-1.4 GB simulated
MAX_SCENARIO_ROWS = 10**7

# The fastest a car may go (m/s), and the most its speed may be of its desired
# speed: bounds under which no power of the car-following law overflows
# (see ``ScenarioConfig.validate``)
MAX_SPEED_MPS = 1.0e6
MAX_SPEED_RATIO = 1.0e12

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
        steps = self.duration_s / self.timestep_s  # inf past the largest float
        if math.isinf(steps) or self.frame_count() * max(1, len(self.spawns)) > MAX_SCENARIO_ROWS:
            raise ValidationError(f"duration_s / timestep_s = {steps:.15g} frames x "
                                  f"{len(self.spawns)} agents is over {MAX_SCENARIO_ROWS} rows")
        if self.lane_count < 1:
            raise ValidationError(f"need at least one lane, got {self.lane_count}")
        if self.lane_count > MAX_LANE_COUNT:
            raise ValidationError(f"lane_count must be at most {MAX_LANE_COUNT}")
        require_positive(self.road_length_m, "road_length_m")
        require_positive(self.lane_width_m, "lane_width_m")
        require_positive(self.lane_change_duration_s, "lane_change_duration_s")
        require_positive(self.mobil_period_s, "mobil_period_s")
        seen_ids = set()
        for spawn in self.spawns:
            name = spawn.agent_id  # a CSV field: the readers strip, split and skip '#' lines
            if name.splitlines() != [name] or name != name.strip() or "," in name or name[0] == "#":
                raise ValidationError(f"agent id {name!r} must be one line, not empty, with no "
                                      "comma, no outer space and no leading '#'")
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
            self._validate_speeds(spawn)
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

    def _validate_speeds(self, spawn: SpawnSpec) -> None:
        """Refuse an agent at whose speeds a power of the car-following law could overflow.

        The law speeds a car up only below its desired speed v0, by at most
        a_max dt a step, so no speed of a run is above a spawn speed or, for
        a car-following agent, v0 + a_max dt. Those must be at most
        ``MAX_SPEED_MPS``, and at most ``MAX_SPEED_RATIO`` times v0, a
        cruiser's too: a lane-change decision reads the law of the follower
        it affects. A given v0 must be finite and positive. A
        positive gap is at least 2**-50 m (the last bit of 5 m), so
        ``(v/v0)**4`` stays under 1e49 and ``(s*/s)**2`` under 1e53, far
        inside float range (a class v0 is checked before its ±10% draw,
        which that margin covers).
        """
        name, speed = repr(spawn.agent_id), spawn.speed
        if speed > MAX_SPEED_MPS:
            raise ValidationError(f"{name}: speed {speed} is over {MAX_SPEED_MPS:g} m/s")
        params = CLASS_PARAMS[spawn.vehicle_class]
        v0 = params.v0 if spawn.v0 is None else require_positive(spawn.v0, f"{name}: v0")
        top = speed  # a cruiser's, whose law is read when it is a lane-change follower
        if spawn.longitudinal == MODE_IDM:
            top = max(speed, v0 + params.a_max * self.timestep_s)
        if top > MAX_SPEED_MPS:
            raise ValidationError(f"{name}: v0 + a_max * timestep_s = {top:g} m/s "
                                  f"is over {MAX_SPEED_MPS:g} m/s")
        if top / v0 > MAX_SPEED_RATIO:
            raise ValidationError(f"{name}: v0 {v0} lets speed / v0 reach {top / v0:g}, "
                                  f"over {MAX_SPEED_RATIO:g}")


def idm_law(params: DriverParams) -> tuple[float, ...]:
    """A driver's car-following inputs: ``(v0, a_max, b_comf, s0, T_gap, 2 sqrt(a_max b_comf))``.

    The root is taken once per driver, the same bits as taking it at every
    evaluation of the law.
    """
    p = params
    return (p.v0, p.a_max, p.b_comf, p.s0, p.T_gap, 2.0 * math.sqrt(p.a_max * p.b_comf))


@dataclass
class World:
    """One running scenario, or a stack of them: ``build_world``'s columns, clock, logs.

    Every numpy field is per agent, in spawn order along its last axis
    (``_stacked`` joins them there); ``ids`` names the agents. An agent is
    mid-change while ``frame - begun <= len(ramp)``; its ``lane`` is then
    already the target lane, which car-following commits to at once.
    ``changes`` logs every change as (frame, position, start, target
    lane). A stack of worlds (``_stacked``) has its first world's
    ``config``, whose timestep, frame count, period and ramp they all share.
    """

    config: ScenarioConfig
    ids: list[str]
    x: np.ndarray  # the spawn's, as is speed
    speed: np.ndarray
    lane: np.ndarray  # int64, which lane changes write
    follows: np.ndarray  # car-following (IDM), not cruising
    mobil: np.ndarray  # an IDM agent with MOBIL on, deciding every ``period`` frames
    law: np.ndarray  # rows v0 (drawn or given), a_max, -b_comf, s0, T, 2 sqrt(a_max b_comf)
    politeness: np.ndarray
    delta_a_th: np.ndarray
    brake_safe: np.ndarray  # -b_safe
    offset: np.ndarray  # the key of the agent's lane 0: its lane keys are offset + lane
    top: np.ndarray  # one past the key of its last lane (lane_count for a world alone)
    begun: np.ndarray  # the frame its last lane change began, -inf before any
    begun_at: np.ndarray  # that change's start, a lateral position in lane units
    period: int
    scripts: dict[int, dict[int, int]]  # frame -> {position: target lane}
    ramp: list[float]  # a change's progress at each frame after it begins
    blend: list[float]  # its half-cosine blend
    changes: list[tuple[int, int, float, int]] = field(default_factory=list)
    frame: int = 0
    collisions: list[CollisionEvent] = field(default_factory=list)


def _begin_lane_change(world: World, pos: int, target_lane: int) -> None:
    """Start a change to ``target_lane`` from where the agent is now, and log it.

    A change starts from the agent's lateral position in lane units: its
    lane, or, mid-change, the blended position of that change, so a
    retarget continues from where it is.
    """
    start = float(world.lane[pos])
    if (age := world.frame - world.begun[pos]) <= len(world.ramp):
        begun_at = world.begun_at[pos]
        start = begun_at + (world.lane[pos] - begun_at) * world.blend[int(age) - 1]
    world.begun[pos], world.begun_at[pos] = world.frame, start
    world.changes.append((world.frame, pos, start, target_lane))
    world.lane[pos] = target_lane


def _scripted_changes(world: World) -> None:
    """Begin the changes scripted for ``world.frame``, but none to an agent's own lane."""
    for pos, target in world.scripts.get(world.frame, {}).items():
        if target != world.lane[pos]:
            _begin_lane_change(world, pos, target)


# ---------------------------------------------------------------------------
# the step on numpy columns
#
# A frame's step applies its scripts; then, on decision frames (every
# ``period`` frames), the lane-change decisions in agent order; then one
# batch of accelerations from the pre-step state, collisions logged in
# agent order; then the Euler update. Elementwise float operations round
# as Python's do, and ``np.float_power`` calls libm's ``pow`` as ``**``
# does, so every output byte is that of the one-object-per-vehicle
# reference in ``tests/oracles.py``. Column ``n`` is a car at x = inf and
# column ``n + 1`` one at x = -inf, both at rest: a missing leader is the
# first, so the law reads an infinite gap and gives the free-road value,
# and a missing follower the second, whose gain from any change is 0 and
# which never brakes. (An agent's x stays finite: it starts on the road,
# and validated speeds are bounded.)
#
# Worlds of one shape step as one set of columns. The agents of world w
# are filed under lane ``offset_w + lane``, where ``offset_w`` sums
# ``lane_count + 1`` over the worlds before it, so no leader, follower or
# lane-change neighbour is ever another world's, and the lane past each
# world's last is empty, as the lanes off a road are.


def _idm_columns(law, speed, gap, lead_speed):
    """The car-following law of each column: ``law`` rows (v0, a_max, -b_comf, s0, T, root).

    Free-road term minus interaction term; a non-positive gap is a
    collision, answered with the emergency deceleration -b_comf so the
    run can continue. ``ScenarioConfig.validate`` bounds speeds so that
    no power overflows.
    """
    v0, a_max, brake, s0, t_gap, root = law
    free = 1.0 - np.float_power(speed / v0, 4.0)
    s_star = s0 + speed * t_gap + speed * (speed - lead_speed) / root
    return np.where(gap <= 0.0, brake, a_max * (free - np.float_power(s_star / gap, 2.0)))


class _Filed(NamedTuple):
    """The agents filed by (lane key, x, position in the agent list).

    ``place`` is each agent's lane key + x·i: a complex number sorts by
    its real part, then its imaginary part, so a stable sort of ``place``
    gives the filing ``order`` and ``searchsorted`` on ``key`` (``place``
    filed) finds a (lane, x). ``first[i]`` is the index of the first
    agent of ``key[i]``, the earliest in list order. ``place``, ``order``
    and ``key`` have one more entry, past every other and read at n and
    at -1: column n, no agent, in lane inf. ``leader`` is each agent's
    leader in its lane, the nearest agent strictly ahead: the first agent
    of the next larger x (column n where there is none). ``behind`` and
    ``ahead`` pair each agent with the next in its lane: while no change
    begins and x increases strictly along every pair, the filing stays
    the same and so do the leaders, if ``strict`` (no tie when filed).
    """

    place: np.ndarray
    order: np.ndarray
    key: np.ndarray
    first: np.ndarray
    leader: np.ndarray
    behind: np.ndarray
    ahead: np.ndarray
    strict: bool
    changes: int


def _file(x: np.ndarray, lane: np.ndarray, changes: int) -> _Filed:
    """File the agents of columns ``x`` and ``lane`` (keys), after ``changes`` lane changes."""
    n = len(lane)
    place = np.empty(n + 1, dtype=np.complex128)
    place.real[:n], place.imag[:n] = lane, x
    place[n] = complex(math.inf, math.inf)
    order = np.argsort(place, kind="stable")
    key = place[order]
    lanes = key.real
    after = np.searchsorted(key, key[:n], side="right")  # the first of the next larger x
    leader = np.empty(n, dtype=np.int64)
    leader[order[:n]] = np.where(lanes[after] == lanes[:n], order[after], n)
    same = lanes[1:n] == lanes[:n - 1]
    return _Filed(place, order, key, np.searchsorted(key, key), leader, order[:n - 1][same],
                  order[1:n][same], bool(np.all(key[1:n] != key[:n - 1])), changes)


def _kept(filed: _Filed | None, x: np.ndarray, changes: int) -> bool:
    """Whether ``filed`` still files the agents at ``x``.

    It does while no lane change has begun since it was filed and every
    lane's x increases strictly along it (no pass, no tie): then the
    stable sort gives that order, and each leader is the next agent in
    its lane.
    """
    return (filed is not None and filed.strict and filed.changes == changes
            and bool((x[filed.behind] < x[filed.ahead]).all()))


def _driver_columns(params: list[DriverParams]) -> dict[str, np.ndarray]:
    """The ``World`` columns ``law``, ``politeness``, ``delta_a_th`` and ``brake_safe``."""
    columns = np.array([(*idm_law(p), p.politeness, p.delta_a_th, p.b_safe) for p in params],
                       dtype=float).reshape(-1, 9).T.copy()
    columns[[2, 8]] *= -1.0  # -b_comf and -b_safe
    return dict(zip(("politeness", "delta_a_th", "brake_safe"), columns[6:]), law=columns[:6])


# the law of columns n and n + 1, the cars that stand for a missing leader and follower
_MISSING_LAW = _driver_columns([CONSERVATIVE_PARAMS] * 2)["law"]


def _stacked(worlds: list[World]) -> World:
    """The agents of ``worlds`` as one, in list order: an ``np.concatenate`` per column."""
    sizes = [len(w.ids) for w in worlds]
    scripts: dict[int, dict[int, int]] = {}
    for w, start in zip(worlds, accumulate(sizes, initial=0)):
        for frame, moves in w.scripts.items():
            scripts.setdefault(frame, {}).update((pos + start, t) for pos, t in moves.items())
    keys = np.array([w.config.lane_count + 1 for w in worlds])  # a world's lanes and one empty
    shift = np.repeat(np.cumsum(keys) - keys, sizes)
    stack = replace(worlds[0], ids=[i for w in worlds for i in w.ids], scripts=scripts, changes=[],
                    collisions=[], **{name: np.concatenate([getattr(w, name) for w in worlds], -1)
                                      for name, value in vars(worlds[0]).items()
                                      if isinstance(value, np.ndarray)})
    stack.offset += shift
    stack.top += shift
    return stack


def _first_approval(world: World, law, x, v, filed: _Filed, egos):
    """(position, target lane) of the first of ``egos`` whose lane change is approved, or None.

    Every ego's decision for both neighbouring lanes at once. The current
    and target leaders are the nearest agents strictly ahead, the
    followers the nearest at or behind, the earliest in list order, ego
    skipped. A change is approved iff it is safe, the would-be follower
    in the target lane not forced below -b_safe and both insertion gaps
    positive, and the ego's acceleration gain plus the politeness-weighted
    gains of both affected followers exceeds the ego's threshold. Every
    term is evaluated, and an unsafe change is then refused, as is a
    target outside the ego's own world. Of two approved targets the one
    to the left wins unless the right one scores more. ``law`` is
    ``world.law`` with columns n and n + 1.
    """
    m, n, key, order, lanes = len(egos), len(filed.leader), filed.key, filed.order, filed.key.real
    at = filed.place[egos]
    # the current follower: the first agent at ego's x, the next one if
    # that is ego, or else the first at the next smaller x in its lane
    start = np.searchsorted(key, at)
    follower = np.where(lanes[start - 1] == at.real, order[filed.first[start - 1]], n + 1)
    follower = np.where(key[start + 1] == at, order[start + 1], follower)
    follower = np.where(order[start] != egos, order[start], follower)
    leader = filed.leader[egos]
    target = np.stack((at - 1.0, at + 1.0))  # ego's x in the lanes either side
    end = np.searchsorted(key, target, side="right")
    target = target.real
    target_leader = np.where(lanes[end] == target, order[end], n).ravel()
    target_follower = np.where(lanes[end - 1] == target, order[filed.first[end - 1]], n + 1).ravel()
    both = np.concatenate((egos, egos))
    back = np.concatenate((egos, follower, follower, both, target_follower, target_follower))
    front = np.concatenate((leader, egos, leader, target_leader, both, target_leader))
    gap = x[front] - x[back] - VEHICLE_LENGTH_M
    acc = _idm_columns(law[:, back], v[back], gap, v[front])
    now, old_follower, old_follower_after = acc[:3 * m].reshape(3, m)
    gain, new_follower, new_follower_before = acc[3 * m:].reshape(3, 2, m)
    incentive = (gain - now) + world.politeness[egos] * (
        (new_follower - new_follower_before) + (old_follower_after - old_follower))
    gap_ahead, gap_behind = gap[3 * m:7 * m].reshape(2, 2, m)
    offset = world.offset[egos]
    approved = ((gap_ahead > 0.0) & (gap_behind > 0.0)
                & (new_follower >= world.brake_safe[egos])
                & (incentive > world.delta_a_th[egos])
                & (target >= offset) & (target < world.top[egos]))
    chosen = approved[0] | approved[1]
    if not chosen.any():
        return None
    k = int(np.argmax(chosen))
    right = approved[1, k] and not (approved[0, k] and incentive[1, k] <= incentive[0, k])
    return int(egos[k]), int(target[int(right), k]) - int(offset[k])


def _mobil_columns(world: World, law, x, v, filed: _Filed) -> _Filed:
    """A decision frame: an approval refiles, and the agents after it decide again."""
    changing = world.frame - world.begun <= len(world.ramp)
    egos = np.flatnonzero(world.mobil & ~changing)
    while egos.size:
        found = _first_approval(world, law, x, v, filed, egos)
        if found is None:
            break
        pos, target = found
        _begin_lane_change(world, pos, target)
        filed = _file(x[:len(world.lane)], world.lane + world.offset, len(world.changes))
        egos = egos[egos > pos]
    return filed


def _run_columns(worlds: list[World]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each world's x and speed as (frames, agents) arrays, its worlds stepped together.

    The worlds share one shape (``_stacks``). Row k holds frame k. The
    lanes are filed anew on decision frames and wherever the last filing
    does not hold (``_kept``). Each world gets back its changes and its
    collisions, split off the stack's by position; its columns stay the
    spawn's.
    """
    world = _stacked(worlds)
    n, frames, dt = len(world.ids), world.config.frame_count(), world.config.timestep_s
    x = np.empty((frames + 1, n + 2))
    v = np.zeros_like(x)
    x[0, :n], v[0, :n] = world.x, world.speed
    x[:, n], x[:, n + 1] = math.inf, -math.inf
    law = np.concatenate((world.law, _MISSING_LAW), axis=1)
    cruisers = np.flatnonzero(~world.follows)
    filed, crashes = None, []
    # a gap of 0 divides by 0: the law answers every gap <= 0 with -b_comf
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(frames):
            world.frame, xk, vk = k, x[k], v[k]
            _scripted_changes(world)
            decides = k % world.period == 0
            if decides or not _kept(filed, xk, len(world.changes)):
                filed = _file(xk[:n], world.lane + world.offset, len(world.changes))
            if decides:
                filed = _mobil_columns(world, law, xk, vk, filed)
            lead = filed.leader
            gap = xk[lead] - xk[:n] - VEHICLE_LENGTH_M
            acc = _idm_columns(world.law, vk[:n], gap, vk[lead])
            acc[cruisers] = 0.0
            if gap.min() <= 0.0:
                crashed = (gap <= 0.0)
                crashed[cruisers] = False
                crashes += [(k, pos, int(lead[pos])) for pos in np.flatnonzero(crashed).tolist()]
            np.add(xk[:n], vk[:n] * dt, out=x[k + 1, :n])
            w = vk[:n] + acc * dt
            v[k + 1, :n] = np.where(w > 0.0, w, 0.0)
    columns = []
    for w, start in zip(worlds, accumulate((len(w.ids) for w in worlds), initial=0)):
        end = start + len(w.ids)
        w.changes = [(k, pos - start, at, target)
                     for k, pos, at, target in world.changes if start <= pos < end]
        w.collisions = [CollisionEvent(k, w.ids[pos - start], w.ids[lead - start])
                        for k, pos, lead in crashes if start <= pos < end]
        columns.append((x[:frames, start:end], v[:frames, start:end]))
    return columns


def _cruise_columns(world: World):
    """x and speed as (frames, agents) arrays of a world where no agent follows.

    Only scripts change lanes, and x and speed are the step's sums, taken
    with no frame loop: speed is the spawn speed, then ``v + 0 dt``
    clamped at 0, and x one ``np.cumsum`` of ``(x0, v0 dt, v1 dt, ...)``,
    the additions ``x + v dt`` of a step in the same order.
    """
    for world.frame in sorted(world.scripts):
        _scripted_changes(world)
    frames, dt, v = world.config.frame_count(), world.config.timestep_s, world.speed
    vx = np.empty((frames, len(world.ids)))
    vx[:1], vx[1:] = v, np.where((w := v + 0.0 * dt) > 0.0, w, 0.0)
    x = np.empty_like(vx)
    x[:1], x[1:] = world.x, vx[:-1] * dt
    np.cumsum(x, axis=0, out=x)  # row after row
    return x, vx


@dataclass
class SimResult:
    table: TrajectoryTable
    labels: list[ManeuverLabel]
    collisions: list[CollisionEvent]
    agent_classes: dict[str, str]


def build_world(config: ScenarioConfig) -> World:
    """The columns of the spawn list; conservatives draw v0 in spawn order, a given v0 wins."""
    config.validate()
    spawns, n = config.spawns, len(config.spawns)
    ids = [s.agent_id for s in spawns]
    drivers = _driver_columns([CLASS_PARAMS[s.vehicle_class] for s in spawns])
    law = drivers["law"]
    if config.randomize_conservative_v0:
        drawn = [k for k, s in enumerate(spawns) if s.vehicle_class == CLASS_CONSERVATIVE]
        law[0, drawn] *= np.random.default_rng(config.seed).uniform(0.9, 1.1, len(drawn))
    given = [k for k, s in enumerate(spawns) if s.v0 is not None]
    law[0, given] = [spawns[k].v0 for k in given]
    follows = np.array([s.longitudinal == MODE_IDM for s in spawns], dtype=bool)
    scripts: dict[int, dict[int, int]] = {}
    for s in config.lane_change_scripts:  # a later script of an agent and frame wins
        scripts.setdefault(s.frame, {})[ids.index(s.agent_id)] = s.target_lane
    return World(
        config=config,
        ids=ids,
        x=np.array([s.position for s in spawns], dtype=float),
        speed=np.array([s.speed for s in spawns], dtype=float),
        lane=np.array([s.lane for s in spawns], dtype=np.int64),
        follows=follows,
        mobil=follows & np.array([s.mobil_enabled for s in spawns], dtype=bool),
        **drivers,
        offset=np.zeros(n, dtype=np.int64),
        top=np.full(n, config.lane_count, dtype=np.int64),
        begun=np.full(n, -math.inf),
        begun_at=np.zeros(n),
        # a period of the whole run or longer decides at frame 0 alone
        period=max(1, round(min(config.mobil_period_s / config.timestep_s,
                                max(config.frame_count(), 1)))),
        scripts=scripts,
        ramp=(ramp := _ramp(config)),
        blend=[0.5 * (1.0 - math.cos(math.pi * p)) for p in ramp],
    )


def _ramp(config: ScenarioConfig) -> list[float]:
    """Progress of a change at each frame after it begins, summed a frame at a time."""
    steps = repeat(config.timestep_s / config.lane_change_duration_s, config.frame_count())
    return list(takewhile(lambda progress: progress < 1.0 - 1e-12, accumulate(steps)))


def _stacks(worlds: list[World]) -> dict[int, list[int]]:
    """The index of each world where an agent follows -> the indices of the worlds it steps with.

    Worlds of one shape (timestep, frame count, decision period and
    change duration, so one ramp) stack in list order while the stack's
    rows, frames times agents, stay within ``MAX_SCENARIO_ROWS``; the
    world that would pass it starts a new stack.
    """
    filling: dict[tuple, tuple[list[int], int]] = {}  # shape -> (its last stack, that stack's rows)
    stack_of = {}
    for k, world in enumerate(worlds):
        if not world.follows.any():
            continue
        cfg = world.config
        shape = (cfg.timestep_s, cfg.frame_count(), world.period, cfg.lane_change_duration_s)
        rows = cfg.frame_count() * len(world.ids)
        members, used = filling.get(shape, ([], 0))
        if members and used + rows > MAX_SCENARIO_ROWS:
            members, used = [], 0
        members.append(k)
        filling[shape] = members, used + rows
        stack_of[k] = members
    return stack_of


def iter_scenarios(configs: list[ScenarioConfig]) -> Iterator[SimResult]:
    """``run_scenarios``' results, each one's table built as it is handed out.

    Every config is validated, in list order, before any world runs. A
    stack runs when its first world's result is due, and its columns are
    let go once its last world's result is out.
    """
    worlds = [build_world(config) for config in configs]
    stack_of, columns = _stacks(worlds), {}
    for k, world in enumerate(worlds):
        if k not in columns:
            if k in stack_of:
                stack = stack_of[k]
                columns.update(zip(stack, _run_columns([worlds[j] for j in stack])))
            else:
                columns[k] = _cruise_columns(world)
        yield _result(world, *columns.pop(k))


def run_scenarios(configs: list[ScenarioConfig]) -> list[SimResult]:
    """Run scenarios and emit, for each in order, an ingest-compatible table plus labels.

    Every agent has a row at every frame, in spawn order; step k is frame
    k, at ``k * timestep_s``. A world where no agent follows (cruisers
    only) is never stepped: only scripts change its lanes. The worlds
    where an agent follows step on numpy columns (``_run_columns``), those
    of one shape together; a world's bytes and collision log are those of
    its run alone. A bad config raises before any world runs.
    """
    return list(iter_scenarios(configs))


def run_scenario(config: ScenarioConfig) -> SimResult:
    """``run_scenarios`` of one scenario."""
    return run_scenarios([config])[0]


def _result(world: World, x: np.ndarray, vx: np.ndarray) -> SimResult:
    config, n, frames = world.config, len(world.ids), len(x)
    y, vy = _lateral(world, frames)
    table = TrajectoryTable(
        frame=np.repeat(np.arange(frames, dtype=np.int64), n),
        timestamp=np.repeat(np.arange(frames) * config.timestep_s, n),
        x=x.ravel(),
        y=y,
        vx=vx.ravel(),
        vy=vy,
        agent=np.tile(np.arange(n), frames),
        agent_ids=world.ids,
        agent_type=np.array(["car"], dtype=object).repeat(n * frames),  # one str
        frame_rate_hz=1.0 / config.timestep_s,
    )
    return SimResult(
        table=table,
        labels=list(config.maneuvers),
        collisions=list(world.collisions),
        agent_classes={s.agent_id: s.vehicle_class for s in config.spawns},
    )


def _lateral(world: World, frames: int):
    """(y, vy) columns from the spawn lanes and the lane-change log.

    A change begun in the step of frame k shows from frame k + 1 until it
    ends or is retargeted, as a cosine blend from its start to its lane
    (``math``'s trigonometry: numpy's may differ in the last bit). Otherwise
    an agent is at its lane's centre, at rate 0.
    """
    cfg, ramp = world.config, world.ramp
    width, duration = cfg.lane_width_m, cfg.lane_change_duration_s
    y = np.tile(np.array([s.lane for s in cfg.spawns], dtype=float), (frames, 1))
    for k, pos, _, target in world.changes:
        y[k + 1:, pos] = target
    y *= width
    vy = np.zeros_like(y)
    blend = np.array(world.blend)
    sine = np.array([math.sin(math.pi * p) for p in ramp])
    until: dict[int, int] = {}  # the frame of each agent's next change
    for k, pos, start, target in reversed(world.changes):
        span = max(0, min(len(ramp), until.get(pos, frames - 1) - k))
        until[pos] = k
        shift = target - start
        y[k + 1:k + 1 + span, pos] = (start + shift * blend[:span]) * width
        vy[k + 1:k + 1 + span, pos] = shift * width * math.pi / (2.0 * duration) * sine[:span]
    return y.ravel(), vy.ravel()


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
    write_yaml(dest, _to_yaml(config), "scenario")


def load_scenario(source) -> ScenarioConfig:
    """Read a scenario YAML file (see ``ingest.read_yaml`` for its errors)."""
    return read_yaml(source, "scenario", _scenario_from_dict)


def _scenario_from_dict(payload: dict) -> ScenarioConfig:
    config = yaml_record(ScenarioConfig, payload, _RECORD_KEYS[ScenarioConfig], "scenario")
    config.validate()  # fail while the file is known
    return config
