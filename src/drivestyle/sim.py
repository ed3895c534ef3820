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
from itertools import accumulate, repeat, takewhile
from operator import lt
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

# Car-following agents from which a world steps as numpy columns: below it
# a list step is faster (measured on the highway layout, see README)
ARRAY_STEP_MIN_FOLLOWERS = 35

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
        ``MAX_SPEED_MPS``, and at most ``MAX_SPEED_RATIO`` times v0. A
        positive gap is at least 2**-50 m (the last bit of 5 m), so
        ``(v/v0)**4`` stays under 1e49 and ``(s*/s)**2`` under 1e53, far
        inside float range (a class v0 is checked before its ±10% draw,
        which that margin covers).
        """
        name, speed = repr(spawn.agent_id), spawn.speed
        if speed > MAX_SPEED_MPS:
            raise ValidationError(f"{name}: speed {speed} is over {MAX_SPEED_MPS:g} m/s")
        if spawn.longitudinal != MODE_IDM:
            return
        params = CLASS_PARAMS[spawn.vehicle_class]
        v0 = params.v0 if spawn.v0 is None else require_positive(spawn.v0, f"{name}: v0")
        top = max(speed, v0 + params.a_max * self.timestep_s)
        if top > MAX_SPEED_MPS:
            raise ValidationError(f"{name}: v0 + a_max * timestep_s = {top:g} m/s "
                                  f"is over {MAX_SPEED_MPS:g} m/s")
        if top / v0 > MAX_SPEED_RATIO:
            raise ValidationError(f"{name}: v0 {v0} lets speed / v0 reach {top / v0:g}, "
                                  f"over {MAX_SPEED_RATIO:g}")


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
    logs it). The powers are Python's ``**``, libm's ``pow``, as the
    column law ``_idm_columns`` takes them through ``np.float_power``
    (numpy's ``power`` differs from it in the last bit on some values).
    ``ScenarioConfig.validate`` bounds speeds so that neither overflows.
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
    An unsafe change, a non-positive insertion gap included, is rejected
    before its incentive terms are evaluated: its incentive is -inf.
    """
    if (target_leader is not None and target_leader[0] - ego[0] - VEHICLE_LENGTH_M <= 0) or (
        target_follower is not None and ego[0] - target_follower[0] - VEHICLE_LENGTH_M <= 0
    ):
        return MobilDecision(False, False, -math.inf, -math.inf)

    a_n = a_n_new = a_o = a_o_new = 0.0
    if target_follower is not None:
        a_n_new = _follow(target_follower, ego)
        if not a_n_new >= -params.b_safe:
            return MobilDecision(False, False, -math.inf, a_n_new)
        a_n = _follow(target_follower, target_leader)
    gain_ego = _follow(ego, target_leader) - _follow(ego, current_leader)
    if current_follower is not None:
        a_o, a_o_new = _follow(current_follower, ego), _follow(current_follower, current_leader)
    incentive = gain_ego + params.politeness * ((a_n_new - a_n) + (a_o_new - a_o))
    new_follower = math.inf if target_follower is None else a_n_new
    return MobilDecision(incentive > params.delta_a_th, True, incentive, new_follower)


@dataclass
class World:
    """One running scenario: per-agent list columns in spawn order, clock, collision log.

    ``law`` holds each agent's ``idm_law``; ``follows`` the positions of
    the car-following (IDM) agents, ascending, each with its ``idm_law``;
    ``mobil`` whether lane-change decisions are its own (an IDM agent
    with MOBIL on), taken every ``period`` frames. ``begun`` holds the
    frame each agent's last lane change began (-inf before any) and
    ``begun_at`` that change's start, a lateral position in lane units (a
    float lane index). ``ramp`` is a change's progress at each frame after
    it begins and ``blend`` its half-cosine blend, so an agent is
    mid-change while ``frame - begun <= len(ramp)``; its ``lane`` is
    already the target lane, which car-following commits to at once.
    ``_run_columns`` makes ``lane`` an int64 and ``begun`` a float array.
    ``changes`` logs every change as (frame, position, start, target
    lane). ``scripts`` maps a frame to
    its scripted changes, {position: target lane}. ``kept`` is the last
    step's lane order while it may serve the next (see ``_kept_lanes``):
    (ps, leaders, the length of ``changes``, behind, ahead), each agent of
    ``behind`` next behind its partner of ``ahead`` in their lane.
    """

    config: ScenarioConfig
    ids: list[str]
    x: list[float]
    speed: list[float]
    lane: list[int]
    params: list[DriverParams]
    law: list[tuple[float, ...]]
    follows: list[tuple[int, tuple[float, ...]]]
    mobil: list[bool]
    period: int
    scripts: dict[int, dict[int, int]]
    ramp: list[float]
    blend: list[float]
    begun: list[float]
    begun_at: list[float]
    kept: tuple | None = None
    changes: list[tuple[int, int, float, int]] = field(default_factory=list)
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


def _kept_lanes(world: World, with_xs: bool):
    """The kept lanes, (xs if ``with_xs`` else None, ps), or None after forgetting them.

    The order serves while no lane change has begun since it was kept and
    every lane's x increases strictly along it (no pass, no tie): then the
    stable sort gives that order, and each leader is the next agent in its lane.
    """
    if world.kept is not None:
        ps, _, changes, behind, ahead = world.kept
        get = world.x.__getitem__
        if changes == len(world.changes) and all(map(lt, map(get, behind), map(get, ahead))):
            return [list(map(get, members)) for members in ps] if with_xs else None, ps
    world.kept = None
    return None


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


def _mobil_pass(world: World, lanes) -> None:
    """Lane-change decisions in agent order; an approval rebuilds ``lanes`` in place."""
    x, speed, lane, law = world.x, world.speed, world.lane, world.law
    xs, ps = lanes
    lane_count, frame, last = world.config.lane_count, world.frame, len(world.ramp)

    def car(pos):
        return None if pos is None else (x[pos], speed[pos], law[pos])

    for pos, decides in enumerate(world.mobil):
        if not decides or frame - world.begun[pos] <= last:
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
            xs[:], ps[:] = _lanes(lane, x, lane_count)


def step(world: World) -> World:
    """Advance the world one timestep of its scenario, in place.

    Order per frame: scripted lane changes, lane-change decisions at the
    decision period, one batch of accelerations from the pre-step state
    (collisions logged in agent order), then the Euler position/speed
    update. Only car-following agents read a leader or decide on lane
    changes, so a world without one (cruisers only) builds no lane lists;
    cruisers keep an acceleration of 0.
    The last step's lane lists and leaders serve while ``_kept_lanes`` keeps them.
    """
    dt = world.config.timestep_s
    _scripted_changes(world)

    x, speed, ids = world.x, world.speed, world.ids
    accels = [0.0] * len(x)
    if world.follows:
        decides = world.frame % world.period == 0
        lanes = _kept_lanes(world, decides) or _lanes(world.lane, x, world.config.lane_count)
        if decides:
            _mobil_pass(world, lanes)
        if world.kept is not None and world.kept[2] == len(world.changes):
            leaders = world.kept[1]
        else:
            leaders, ps = _leaders(lanes, len(x)), lanes[1]
            behind = [pos for members in ps for pos in members[:-1]]
            ahead = [pos for members in ps for pos in members[1:]]
            world.kept = ps, leaders, len(world.changes), behind, ahead
            _kept_lanes(world, False)  # forgets a tie: leaders walked on one differ
        for pos, law in world.follows:
            leader = leaders[pos]
            if leader is None:
                accels[pos] = idm_acceleration(law, speed[pos])
                continue
            gap = x[leader] - x[pos] - VEHICLE_LENGTH_M
            if gap <= 0.0:
                world.collisions.append(CollisionEvent(world.frame, ids[pos], ids[leader]))
            accels[pos] = idm_acceleration(law, speed[pos], gap, speed[leader])

    world.x = [xi + v * dt for xi, v in zip(x, speed)]
    # max(0.0, w), which is w only where w > 0.0
    world.speed = [w if (w := v + a * dt) > 0.0 else 0.0 for v, a in zip(speed, accels)]
    world.frame += 1
    return world


# ---------------------------------------------------------------------------
# the step on numpy columns
#
# A world of many car-following agents steps as arrays, in ``step``'s order
# and with its arithmetic, operation for operation: elementwise float
# operations round as Python's do, and ``np.float_power`` calls libm's
# ``pow`` as ``**`` does, so every output byte is the list step's. Column
# ``n`` is a car at x = inf and column ``n + 1`` one at x = -inf, both at
# rest: a missing leader is the first, so the law reads an infinite gap
# and gives the free-road value, and a missing follower the second, whose
# gain from any change is 0 and which never brakes. (An agent's x stays
# finite: it starts on the road, and validated speeds are bounded.)


def _idm_columns(law, speed, gap, lead_speed):
    """``idm_acceleration`` of each column: ``law`` rows (v0, a_max, -b_comf, s0, T, root)."""
    v0, a_max, brake, s0, t_gap, root = law
    free = 1.0 - np.float_power(speed / v0, 4.0)
    s_star = s0 + speed * t_gap + speed * (speed - lead_speed) / root
    return np.where(gap <= 0.0, brake, a_max * (free - np.float_power(s_star / gap, 2.0)))


class _Filed(NamedTuple):
    """The agents filed by (lane, x, position in the agent list), as ``_lanes`` files them.

    ``place`` is each agent's lane + x·i: a complex number sorts by its
    real part, then its imaginary part, so a stable sort of ``place``
    gives the filing ``order`` and ``searchsorted`` on ``key`` (``place``
    filed) finds a (lane, x). ``first[i]`` is the index of the first
    agent of ``key[i]``, the earliest in list order. ``place``, ``order``
    and ``key`` have one more entry, past every other and read at n and
    at -1: column n, no agent, in lane inf. ``leader`` is each agent's
    leader in its lane, the first agent of the next larger x (column n
    where there is none). ``behind`` and ``ahead`` pair each agent with
    the next in its lane: while no change begins and x increases strictly
    along every pair, the filing stays the same and so do the leaders, if
    ``strict`` (no tie when filed).
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
    """File the agents of columns ``x`` and ``lane``, after ``changes`` lane changes."""
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
    """Whether ``filed`` still files the agents at ``x`` (see ``_kept_lanes``)."""
    return (filed is not None and filed.strict and filed.changes == changes
            and bool((x[filed.behind] < x[filed.ahead]).all()))


class _Drivers(NamedTuple):
    """A run's per-agent constants as columns; ``law`` also covers columns n and n + 1."""

    law: np.ndarray  # rows v0, a_max, -b_comf, s0, T, 2 sqrt(a_max b_comf)
    politeness: np.ndarray
    delta_a_th: np.ndarray
    brake_safe: np.ndarray  # -b_safe
    mobil: np.ndarray
    cruisers: np.ndarray  # the positions of the agents that do not follow


def _drivers(world: World) -> _Drivers:
    n, params = len(world.ids), world.params
    law = np.array([*world.law] + [idm_law(CONSERVATIVE_PARAMS)] * 2).T.copy()
    law[2] = -law[2]
    follows = np.zeros(n, dtype=bool)
    follows[[pos for pos, _ in world.follows]] = True
    return _Drivers(
        law=law,
        politeness=np.array([p.politeness for p in params]),
        delta_a_th=np.array([p.delta_a_th for p in params]),
        brake_safe=-np.array([p.b_safe for p in params]),
        mobil=np.array(world.mobil, dtype=bool),
        cruisers=np.flatnonzero(~follows),
    )


def _first_approval(drivers: _Drivers, x, v, filed: _Filed, egos, lane_count: int):
    """(position, target lane) of the first of ``egos`` whose lane change is approved, or None.

    ``mobil_decision`` for every ego and both neighbouring lanes at once,
    with ``_leader``/``_follower``'s neighbours: every term is evaluated,
    and an unsafe change, a non-positive insertion gap included, is then
    refused, as its incentive would not have been scored. Of two approved
    targets the one to the left wins unless the right one scores more.
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
    acc = _idm_columns(drivers.law[:, back], v[back], gap, v[front])
    now, old_follower, old_follower_after = acc[:3 * m].reshape(3, m)
    gain, new_follower, new_follower_before = acc[3 * m:].reshape(3, 2, m)
    incentive = (gain - now) + drivers.politeness[egos] * (
        (new_follower - new_follower_before) + (old_follower_after - old_follower))
    gap_ahead, gap_behind = gap[3 * m:7 * m].reshape(2, 2, m)
    approved = ((gap_ahead > 0.0) & (gap_behind > 0.0)
                & (new_follower >= drivers.brake_safe[egos])
                & (incentive > drivers.delta_a_th[egos]) & (target >= 0) & (target < lane_count))
    chosen = approved[0] | approved[1]
    if not chosen.any():
        return None
    k = int(np.argmax(chosen))
    right = approved[1, k] and not (approved[0, k] and incentive[1, k] <= incentive[0, k])
    return int(egos[k]), int(target[int(right), k])


def _mobil_columns(world: World, drivers: _Drivers, x, v, filed: _Filed) -> _Filed:
    """``_mobil_pass`` on columns: an approval refiles and decides again for the agents after it."""
    changing = world.frame - world.begun <= len(world.ramp)
    egos = np.flatnonzero(drivers.mobil & ~changing)
    while egos.size:
        found = _first_approval(drivers, x, v, filed, egos, world.config.lane_count)
        if found is None:
            break
        pos, target = found
        _begin_lane_change(world, pos, target)
        filed = _file(x[:len(world.lane)], world.lane, len(world.changes))
        egos = egos[egos > pos]
    return filed


def _run_columns(world: World, frames: int):
    """x and speed as (frames, agents) arrays, from ``step`` taken on numpy columns.

    Row k holds frame k. The lanes are filed anew on decision frames and
    wherever the last filing does not hold (``_kept``). ``world`` keeps
    its lanes, as an int64 column, its changes and its collision log as
    ``step`` does; its x and speed lists stay the spawn's.
    """
    n, dt = len(world.ids), world.config.timestep_s
    x = np.empty((frames + 1, n + 2))
    v = np.zeros_like(x)
    x[0, :n], v[0, :n] = world.x, world.speed
    x[:, n], x[:, n + 1] = math.inf, -math.inf
    drivers = _drivers(world)
    law = drivers.law[:, :n]
    world.lane, world.begun = np.array(world.lane, dtype=np.int64), np.array(world.begun)
    filed = None
    # a gap of 0 divides by 0: the law answers every gap <= 0 with -b_comf
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(frames):
            world.frame, xk, vk = k, x[k], v[k]
            _scripted_changes(world)
            decides = k % world.period == 0
            if decides or not _kept(filed, xk, len(world.changes)):
                filed = _file(xk[:n], world.lane, len(world.changes))
            if decides:
                filed = _mobil_columns(world, drivers, xk, vk, filed)
            lead = filed.leader
            gap = xk[lead] - xk[:n] - VEHICLE_LENGTH_M
            acc = _idm_columns(law, vk[:n], gap, vk[lead])
            acc[drivers.cruisers] = 0.0
            if gap.min() <= 0.0:
                crashed = (gap <= 0.0)
                crashed[drivers.cruisers] = False
                world.collisions += [CollisionEvent(k, world.ids[pos], world.ids[lead[pos]])
                                     for pos in np.flatnonzero(crashed).tolist()]
            np.add(xk[:n], vk[:n] * dt, out=x[k + 1, :n])
            w = vk[:n] + acc * dt
            v[k + 1, :n] = np.where(w > 0.0, w, 0.0)
    return x[:frames, :n], v[:frames, :n]


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
        law=(law := list(map(idm_law, params))),
        follows=[(pos, law[pos]) for pos, s in enumerate(spawns) if s.longitudinal == MODE_IDM],
        mobil=[s.longitudinal == MODE_IDM and s.mobil_enabled for s in spawns],
        # a period of the whole run or longer decides at frame 0 alone
        period=max(1, round(min(config.mobil_period_s / config.timestep_s,
                                max(config.frame_count(), 1)))),
        scripts=scripts,
        ramp=(ramp := _ramp(config)),
        blend=[0.5 * (1.0 - math.cos(math.pi * p)) for p in ramp],
        begun=[-math.inf] * len(spawns),
        begun_at=[0.0] * len(spawns),
    )


def _ramp(config: ScenarioConfig) -> list[float]:
    """Progress of a change at each frame after it begins, summed a frame at a time."""
    steps = repeat(config.timestep_s / config.lane_change_duration_s, config.frame_count())
    return list(takewhile(lambda progress: progress < 1.0 - 1e-12, accumulate(steps)))


def run_scenario(config: ScenarioConfig) -> SimResult:
    """Run a scenario and emit an ingest-compatible table plus labels.

    Every agent has a row at every frame, in spawn order; step k is frame
    k, at ``k * timestep_s``. Where no agent follows, only scripts change
    lanes, and x and speed are ``step``'s sums, taken with no frame loop.
    Where at least ``ARRAY_STEP_MIN_FOLLOWERS`` agents follow, the world
    steps on numpy columns (``_run_columns``), to the same bytes.
    """
    world = build_world(config)
    n, frames = len(world.ids), config.frame_count()
    if world.follows and len(world.follows) >= ARRAY_STEP_MIN_FOLLOWERS:
        x, vx = _run_columns(world, frames)
    elif world.follows:
        x, vx = [], []
        for _ in range(frames):
            x += world.x
            vx += world.speed
            step(world)
    else:
        for world.frame in sorted(world.scripts):
            _scripted_changes(world)
        dt, v = config.timestep_s, np.array(world.speed)
        vx = np.empty((frames, n))  # the spawn speed, then v + 0 dt clamped at 0
        vx[:1], vx[1:] = v, np.where((w := v + 0.0 * dt) > 0.0, w, 0.0)
        x = np.empty_like(vx)
        x[:1], x[1:] = world.x, vx[:-1] * dt
        np.cumsum(x, axis=0, out=x)  # row after row: ``xi + v * dt``, in step's order
    y, vy = _lateral(world, frames)
    table = TrajectoryTable(
        frame=np.repeat(np.arange(frames, dtype=np.int64), n),
        timestamp=np.repeat(np.arange(frames) * config.timestep_s, n),
        x=np.asarray(x, dtype=float).ravel(),
        y=y,
        vx=np.asarray(vx, dtype=float).ravel(),
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
