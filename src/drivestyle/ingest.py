"""Trajectory file parsing into a canonical in-memory table.

Input format: UTF-8 CSV with header ``timestamp,agent_id,agent_type,x,y``
and an optional trailing ``vx,vy`` pair. Lines starting with ``#`` are
comments. Extra columns are accepted and ignored. Velocities are derived
by finite differences when the file does not carry them.

A parsed :class:`TrajectoryTable` is immutable by convention: nothing in
this package mutates it after construction, so it is safe to share across
threads.
"""

from __future__ import annotations

import inspect
import math
import os
from dataclasses import dataclass, field

import yaml

from .errors import (
    ContractViolationError,
    TrajectoryParseError,
    ValidationError,
    require_positive,
)

AGENT_TYPES = frozenset(
    {"car", "bus", "truck", "two_wheeler", "three_wheeler", "pedestrian", "other"}
)

_REQUIRED_COLUMNS = ("timestamp", "agent_id", "agent_type", "x", "y")

# Guard against float products like 0.7 * 10 == 6.999... landing one frame
# early; timestamps are only trusted to well above this resolution.
_FLOOR_GUARD = 1e-9


def frame_index(timestamp: float, frame_rate_hz: float) -> int:
    """Discrete frame index of a timestamp: floor(timestamp * rate)."""
    return int(math.floor(timestamp * frame_rate_hz + _FLOOR_GUARD))


@dataclass(frozen=True)
class AgentFrame:
    """One agent's state at one sample: the graph-vertex source record."""

    timestamp: float
    agent_id: str
    agent_type: str
    position: tuple[float, float]
    velocity: tuple[float, float]

    @property
    def speed(self) -> float:
        return math.hypot(self.velocity[0], self.velocity[1])


@dataclass
class TrajectoryTable:
    """Frames keyed by discrete index, plus the rate that produced them.

    Invariants enforced at construction: each agent occupies a contiguous
    run of frame indices (an agent that disappears may not reappear under
    the same id), and per-agent timestamps strictly increase.
    """

    frames: dict[int, list[AgentFrame]] = field(default_factory=dict)
    frame_rate_hz: float = 1.0

    def frame_indices(self) -> list[int]:
        return sorted(self.frames)

    def span(self) -> tuple[int, int]:
        idxs = self.frame_indices()
        if not idxs:
            raise ValidationError("empty trajectory table has no frame span")
        return idxs[0], idxs[-1]


def read_source(source, text, what: str) -> str:
    """The content a loader parses: a file path, or content given as ``text=``.

    A ``str``/``PathLike`` source is always a path, never content. Passing
    both or neither is a ContractViolationError; a missing or unreadable
    file raises a one-line ValidationError naming the path.
    """
    if (source is None) == (text is None):
        raise ContractViolationError(f"pass exactly one of a {what} path or text=")
    if text is not None:
        return text
    if not isinstance(source, (str, os.PathLike)):
        raise ContractViolationError(
            f"{what} source must be a path, got {type(source).__name__}"
        )
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(
            f"cannot read {what} {os.fspath(source)!r}: {reason}"
        ) from None


def write_text(dest, text: str, what: str) -> str:
    """Write ``text`` to the file ``dest``, unless it is None; return ``text``.

    The mirror of ``read_source``: a file that cannot be written (a
    missing parent, a directory in the way, no permission) raises a
    one-line ValidationError naming the path.
    """
    if dest is not None:
        try:
            with open(dest, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            reason = exc.strerror or exc
            raise ValidationError(
                f"cannot write {what} {os.fspath(dest)!r}: {reason}"
            ) from None
    return text


def read_yaml(path, what: str, build):
    """``build(mapping)`` for the YAML mapping in file ``path``.

    The one reader of the package's YAML files (scenarios, run configs,
    thresholds); an empty file is an empty mapping. An unreadable file,
    malformed YAML, a document that is not a mapping, a missing key, a
    field of the wrong type (a KeyError, TypeError, ValueError or, for an
    integer too large for a float, OverflowError from ``build``) and a
    ValidationError from ``build`` (an unknown key, a value out of range)
    raise a one-line ValidationError naming the file.
    """
    text = read_source(path, None, what)
    where = f"{what} {os.fspath(path)!r}"
    try:
        document = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or exc
        raise ValidationError(f"{where} is not valid YAML{at}: {problem}") from None
    if document is None:
        document = {}
    if not isinstance(document, dict):
        raise ValidationError(f"{where} is not a mapping")
    try:
        return build(document)
    except KeyError as exc:
        raise ValidationError(f"{where} is missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where} has a bad field: {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


# The yaml_* readers check one YAML value of a field named ``name``. A value
# of the wrong type raises ValueError (``read_yaml`` reports it): a YAML
# bool, string or octal-looking number is never coerced into another type.


def yaml_int(value, name: str) -> int:
    """``value`` of an integer field: an int or an integral finite float.

    So ``256.7`` or ``true`` is never truncated to 256 or 1.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (isinstance(value, float) and not value.is_integer())
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def yaml_float(value, name: str) -> float:
    """``value`` of a real field: an int or a float, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def yaml_bool(value, name: str) -> bool:
    """``value`` of a boolean field: ``true`` or ``false``, not ``"no"``."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def yaml_str(value, name: str) -> str:
    """``value`` of a text field: a string, so ``id: 010`` is not agent "8"."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def yaml_record(cls, mapping, keys: dict, what: str):
    """``cls(**arguments)`` read from the YAML mapping ``mapping``.

    ``keys`` maps each YAML key ``cls`` takes to ``(argument name,
    reader)``, where ``reader(value, key)`` is a ``yaml_*`` check. A key
    outside ``keys`` raises ValidationError and a missing key of an
    argument without default KeyError; an absent key takes ``cls``'s own
    default, so no default is written twice.
    """
    if not isinstance(mapping, dict):
        raise ValidationError(f"{what} must be a mapping, got {mapping!r}")
    unknown = set(mapping) - set(keys)
    if unknown:
        raise ValidationError(f"unknown {what} keys: {sorted(unknown, key=str)}")
    arguments = {}
    for key, (name, read) in keys.items():
        if key in mapping:
            arguments[name] = read(mapping[key], key)
        elif inspect.signature(cls).parameters[name].default is inspect.Parameter.empty:
            raise KeyError(key)
    return cls(**arguments)


def parse_trajectories(
    source=None, frame_rate_hz: float | None = None, *, text=None
) -> TrajectoryTable:
    """Parse a trajectory file (or CSV ``text=``) into a TrajectoryTable.

    Agents lacking velocity columns get forward-difference velocities
    (the final sample reuses the last difference); an agent with a single
    sample and no velocity columns gets (0, 0).

    Raises TrajectoryParseError for malformed rows (with line number) and
    ValidationError for duplicate/non-monotone timestamps, non-contiguous
    frame runs, or an empty stream.
    """
    require_positive(frame_rate_hz, "frame_rate_hz")
    lines = read_source(source, text, "trajectories").splitlines()

    header: list[str] | None = None
    columns: dict[str, int] = {}
    has_velocity = False
    # raw per-agent rows in file order: (line_no, ts, type, x, y, vx, vy)
    rows_by_agent: dict[str, list[tuple]] = {}

    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if header is None:
            header = parts
            for name in _REQUIRED_COLUMNS:
                if name not in header:
                    raise TrajectoryParseError(
                        f"missing required column {name!r} in header", line_no
                    )
            columns = {name: header.index(name) for name in header}
            has_velocity = "vx" in columns and "vy" in columns
            if ("vx" in columns) != ("vy" in columns):
                raise TrajectoryParseError(
                    "velocity columns must appear as a vx,vy pair", line_no
                )
            continue
        if len(parts) != len(header):
            raise TrajectoryParseError(
                f"expected {len(header)} fields, got {len(parts)}", line_no
            )
        try:
            ts = float(parts[columns["timestamp"]])
            x = float(parts[columns["x"]])
            y = float(parts[columns["y"]])
            vel = None
            if has_velocity:
                vel = (float(parts[columns["vx"]]), float(parts[columns["vy"]]))
        except ValueError as exc:
            raise TrajectoryParseError(f"non-numeric field: {exc}", line_no) from None
        agent_id = parts[columns["agent_id"]]
        agent_type = parts[columns["agent_type"]]
        if not agent_id:
            raise TrajectoryParseError("empty agent_id", line_no)
        if agent_type not in AGENT_TYPES:
            raise TrajectoryParseError(
                f"unknown agent_type {agent_type!r} (expected one of {sorted(AGENT_TYPES)})",
                line_no,
            )
        if ts < 0:
            raise TrajectoryParseError(f"negative timestamp {ts}", line_no)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise TrajectoryParseError("non-finite position", line_no)
        rows_by_agent.setdefault(agent_id, []).append(
            (line_no, ts, agent_type, x, y, vel)
        )

    if header is None:
        raise ValidationError("empty trajectory stream (no header)")
    if not rows_by_agent:
        raise ValidationError("empty trajectory stream (no data rows)")

    frames: dict[int, list[AgentFrame]] = {}
    for agent_id, rows in rows_by_agent.items():
        prev_ts = None
        indices = []
        for line_no, ts, *_ in rows:
            if prev_ts is not None and ts <= prev_ts:
                raise ValidationError(
                    f"agent {agent_id!r}: timestamps must strictly increase "
                    f"({ts} after {prev_ts}, line {line_no})"
                )
            prev_ts = ts
            indices.append(frame_index(ts, frame_rate_hz))
        for a, b in zip(indices, indices[1:]):
            if b != a + 1:
                raise ValidationError(
                    f"agent {agent_id!r}: frame indices must form a contiguous run "
                    f"(got {a} then {b}); departed agents may not reappear"
                )

        velocities = _resolve_velocities(rows)
        for (line_no, ts, agent_type, x, y, _), idx, vel in zip(
            rows, indices, velocities
        ):
            frames.setdefault(idx, []).append(
                AgentFrame(
                    timestamp=ts,
                    agent_id=agent_id,
                    agent_type=agent_type,
                    position=(x, y),
                    velocity=vel,
                )
            )

    # canonical order: frames ascending, agents within a frame by id
    frames = {
        idx: sorted(frames[idx], key=lambda fr: fr.agent_id) for idx in sorted(frames)
    }
    return TrajectoryTable(frames=frames, frame_rate_hz=frame_rate_hz)


def _resolve_velocities(rows) -> list[tuple[float, float]]:
    """Pass velocities through, or derive them by finite differences."""
    if rows[0][5] is not None:  # per-file: either all rows carry vx,vy or none do
        return [row[5] for row in rows]
    if len(rows) == 1:
        return [(0.0, 0.0)]
    vels = []
    for k in range(len(rows) - 1):
        _, t0, _, x0, y0, _ = rows[k]
        _, t1, _, x1, y1, _ = rows[k + 1]
        dt = t1 - t0
        vels.append(((x1 - x0) / dt, (y1 - y0) / dt))
    vels.append(vels[-1])  # backward difference at the last sample
    return vels


def serialize_trajectories(table: TrajectoryTable, dest=None) -> str:
    """Write a table back to the CSV record format (velocities included).

    Returns the text; when ``dest`` is a path the text is also written
    there. parse(serialize(parse(x))) == parse(x) for all valid x.
    """
    out = ["timestamp,agent_id,agent_type,x,y,vx,vy"]
    for idx in table.frame_indices():
        for fr in table.frames[idx]:
            out.append(
                f"{fr.timestamp!r},{fr.agent_id},{fr.agent_type},"
                f"{fr.position[0]!r},{fr.position[1]!r},"
                f"{fr.velocity[0]!r},{fr.velocity[1]!r}"
            )
    return write_text(dest, "\n".join(out) + "\n", "trajectories")
