"""Trajectory file parsing into a canonical in-memory table.

Input format: UTF-8 CSV with header ``timestamp,agent_id,agent_type,x,y``
and an optional trailing ``vx,vy`` pair. Lines starting with ``#`` are
comments. Extra columns are accepted and ignored. Velocities are derived
by finite differences when the file does not carry them.

A file is read in bulk: its body is split a few thousand lines at a time
into numpy columns, validated, differenced and ordered with array
operations, and those columns are the table. Only a file that fails a
check is read again row by row, to name the first offending line.

A :class:`TrajectoryTable` is immutable by convention: nothing in this
package mutates it after construction, so it is safe to share across
threads.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, repeat
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple, NoReturn

import numpy as np
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

# Frame indices stay below 2**53, where every one is an exact float64 and
# int64 value.
_FRAME_LIMIT = 2.0**53

# libyaml's parser where PyYAML was built with it: the same documents,
# several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# Body lines split into cells at a time: bounds the parser's transient
# memory to one chunk's strings.
_CHUNK_LINES = 4096


def frame_index(timestamp: float, frame_rate_hz: float) -> int:
    """Discrete frame index of a timestamp: floor(timestamp * rate)."""
    return int(math.floor(timestamp * frame_rate_hz + _FLOOR_GUARD))


class AgentFrame(NamedTuple):
    """One agent's state at one sample: a row of a table as a record."""

    timestamp: float
    agent_id: str
    agent_type: str
    position: tuple[float, float]
    velocity: tuple[float, float]

    @property
    def speed(self) -> float:
        return math.hypot(self.velocity[0], self.velocity[1])


@dataclass(frozen=True, eq=False)
class TrajectoryTable:
    """One row per agent per sample, as columns, plus the sampling rate.

    Rows are ordered by frame index, then in the order their producer
    gives them: ingest sorts a frame's rows by id, the simulator keeps
    spawn order. ``frame`` is int64; ``timestamp``, ``x``, ``y``, ``vx``
    and ``vy`` are float64; ``agent`` holds each row's index into
    ``agent_ids``, the distinct ids, each of which has rows; and
    ``agent_type`` holds each row's type.

    Each agent occupies a contiguous run of frame indices (an agent that
    disappears may not reappear under the same id), one row per frame,
    and its timestamps strictly increase. The table does not check this:
    ``parse_trajectories`` rejects a file that breaks it, and
    ``compute_series`` a table whose agent skips a frame.
    """

    frame: np.ndarray
    timestamp: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    agent: np.ndarray
    agent_ids: list[str]
    agent_type: np.ndarray
    frame_rate_hz: float

    @cached_property
    def frames(self) -> Mapping[int, tuple[AgentFrame, ...]]:
        """The rows as records, keyed by frame index: a read-only view.

        Built on first use, for readers that take one frame's records
        (``graph.build_instant_graph``); nothing in this package reads it.
        """
        records = map(
            AgentFrame,
            self.timestamp.tolist(),
            map(self.agent_ids.__getitem__, self.agent.tolist()),
            self.agent_type.tolist(),
            zip(self.x.tolist(), self.y.tolist()),
            zip(self.vx.tolist(), self.vy.tolist()),
        )
        return MappingProxyType({
            index: tuple(map(itemgetter(1), rows))
            for index, rows in groupby(zip(self.frame.tolist(), records), itemgetter(0))
        })

    def span(self) -> tuple[int, int]:
        if not len(self.frame):
            raise ValidationError("empty trajectory table has no frame span")
        return int(self.frame[0]), int(self.frame[-1])


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
        document = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        position = getattr(exc, "position", None)  # a ReaderError's offset
        if mark:
            at = f" at line {mark.line + 1}, column {mark.column + 1}"
        else:
            at = "" if position is None else f" at position {position}"
        # a ReaderError has no problem; its text ends in a second line
        problem = getattr(exc, "problem", None) or str(exc).partition("\n")[0]
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

    Raises TrajectoryParseError for malformed rows (with line number):
    a wrong field count, a non-numeric, non-finite or negative value, an
    unknown agent type, an empty id, or a timestamp whose frame index
    reaches 2**53. Raises ValidationError for duplicate/non-monotone
    timestamps, non-contiguous frame runs, or an empty stream.
    """
    require_positive(frame_rate_hz, "frame_rate_hz")
    lines = read_source(source, text, "trajectories").splitlines()
    table = _bulk_parse(lines, frame_rate_hz)
    if table is None:
        _raise_row_error(lines, frame_rate_hz)
    return table


def _header(line: str, line_no: int) -> tuple[int, dict[str, int], bool]:
    """Field count, first column of each name, and whether vx,vy are given."""
    header = [p.strip() for p in line.split(",")]
    for name in _REQUIRED_COLUMNS:
        if name not in header:
            raise TrajectoryParseError(
                f"missing required column {name!r} in header", line_no
            )
    columns = {name: header.index(name) for name in header}
    if ("vx" in columns) != ("vy" in columns):
        raise TrajectoryParseError(
            "velocity columns must appear as a vx,vy pair", line_no
        )
    return len(header), columns, "vx" in columns


@np.errstate(over="ignore")  # an overflow gives inf, as Python's float does
def _bulk_parse(lines: list[str], frame_rate_hz: float) -> TrajectoryTable | None:
    """The table of a valid file, column by column; None if any check fails.

    Makes every check ``_raise_row_error`` makes, on numpy columns, and
    yields exactly the rows the row-by-row reading would.
    """
    start = next(
        (i for i, raw in enumerate(lines) if (s := raw.strip()) and s[0] != "#"), None
    )
    if start is None:
        return None
    n_fields, columns, has_velocity = _header(lines[start].strip(), start + 1)
    names = ["timestamp", "x", "y"] + (["vx", "vy"] if has_velocity else [])
    numeric = [columns[name] for name in names]
    id_col, type_col = columns["agent_id"], columns["agent_type"]

    values, ids, types = [], [], []
    for lo in range(start + 1, len(lines), _CHUNK_LINES):
        chunk = map(str.strip, lines[lo : lo + _CHUNK_LINES])
        body = [s for s in chunk if s and s[0] != "#"]
        if not body:
            continue
        if set(map(str.count, body, repeat(","))) != {n_fields - 1}:
            return None
        cells = ",".join(body).split(",")
        try:
            values.append(
                [
                    np.fromiter(
                        map(float, map(str.strip, cells[j::n_fields])), float, len(body)
                    )
                    for j in numeric
                ]
            )
        except ValueError:
            return None
        # interned, so the lists hold one string per distinct id and type
        ids += map(sys.intern, map(str.strip, cells[id_col::n_fields]))
        types += map(sys.intern, map(str.strip, cells[type_col::n_fields]))
    if not ids or not set(types) <= AGENT_TYPES:
        return None
    ts, x, y, *vel = (np.concatenate(col) for col in zip(*values))
    del values
    if not all(np.isfinite(col).all() for col in (ts, x, y, *vel)) or (ts < 0).any():
        return None
    frame_float = np.floor(ts * frame_rate_hz + _FLOOR_GUARD)
    if (frame_float >= _FRAME_LIMIT).any():
        return None

    agents = sorted(set(ids))
    if not agents[0]:
        return None  # an empty id sorts first
    code = {agent_id: k for k, agent_id in enumerate(agents)}
    codes = np.fromiter(map(code.__getitem__, ids), np.intp, len(ids))

    # each agent's rows in file order: timestamps strictly increase and
    # frames step by one between consecutive rows of one agent
    order = np.argsort(codes, kind="stable")
    codes, ts, x, y = codes[order], ts[order], x[order], y[order]
    frames = frame_float[order].astype(np.int64)
    same = codes[1:] == codes[:-1]
    k = np.flatnonzero(same)  # rows followed by a row of the same agent
    if (ts[k + 1] <= ts[k]).any() or (frames[k + 1] - frames[k] != 1).any():
        return None

    if vel:
        vx, vy = vel[0][order], vel[1][order]
    else:
        # forward differences; an agent's last row reuses its last one,
        # a one-row agent stays at (0, 0)
        vx, vy = np.zeros(len(ts)), np.zeros(len(ts))
        dt = ts[k + 1] - ts[k]
        vx[k] = (x[k + 1] - x[k]) / dt
        vy[k] = (y[k + 1] - y[k]) / dt
        last = np.flatnonzero(np.append(~same, True) & np.insert(same, 0, False))
        vx[last] = vx[last - 1]
        vy[last] = vy[last - 1]

    # canonical order: frames ascending, agents within a frame by id
    canon = np.lexsort((codes, frames))
    return TrajectoryTable(
        frame=frames[canon],
        timestamp=ts[canon],
        x=x[canon],
        y=y[canon],
        vx=vx[canon],
        vy=vy[canon],
        agent=codes[canon],
        agent_ids=agents,
        agent_type=np.array(types, dtype=object)[order[canon]],
        frame_rate_hz=frame_rate_hz,
    )


def _raise_row_error(lines: list[str], frame_rate_hz: float) -> NoReturn:
    """Raise the first error of a file ``_bulk_parse`` rejected, row by row.

    Checks each row in file order, then each agent's timestamps and frame
    run in order of first appearance, so the message names the first
    offending line. A file that passes every check here broke the
    bulk parser's contract: ContractViolationError.
    """
    header = None
    times_by_agent: dict[str, list[tuple[int, float]]] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = _header(line, line_no)
            n_fields, columns, has_velocity = header
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != n_fields:
            raise TrajectoryParseError(
                f"expected {n_fields} fields, got {len(parts)}", line_no
            )
        try:
            ts = float(parts[columns["timestamp"]])
            x = float(parts[columns["x"]])
            y = float(parts[columns["y"]])
            vel = (0.0, 0.0)
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
        if not math.isfinite(ts):
            raise TrajectoryParseError(f"non-finite timestamp {ts}", line_no)
        if ts < 0:
            raise TrajectoryParseError(f"negative timestamp {ts}", line_no)
        if ts * frame_rate_hz + _FLOOR_GUARD >= _FRAME_LIMIT:
            raise TrajectoryParseError(
                f"timestamp {ts} at {frame_rate_hz} Hz is past frame index 2**53",
                line_no,
            )
        if not (math.isfinite(x) and math.isfinite(y)):
            raise TrajectoryParseError("non-finite position", line_no)
        if not (math.isfinite(vel[0]) and math.isfinite(vel[1])):
            raise TrajectoryParseError("non-finite velocity", line_no)
        times_by_agent.setdefault(agent_id, []).append((line_no, ts))

    if header is None:
        raise ValidationError("empty trajectory stream (no header)")
    if not times_by_agent:
        raise ValidationError("empty trajectory stream (no data rows)")

    for agent_id, rows in times_by_agent.items():
        prev_ts = None
        indices = []
        for line_no, ts in rows:
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
    raise ContractViolationError(
        "bulk trajectory parsing rejected a file that passes every row check"
    )


def serialize_trajectories(table: TrajectoryTable, dest=None) -> str:
    """Write a table back to the CSV record format (velocities included).

    Returns the text; when ``dest`` is a path the text is also written
    there. Floats are written as ``repr`` text, so parsing the text of a
    parsed file gives back the same rows.
    """
    rows = map(
        "{!r},{},{},{!r},{!r},{!r},{!r}".format,
        table.timestamp.tolist(),
        map(table.agent_ids.__getitem__, table.agent.tolist()),
        table.agent_type.tolist(),
        table.x.tolist(),
        table.y.tolist(),
        table.vx.tolist(),
        table.vy.tolist(),
    )
    text = "\n".join(["timestamp,agent_id,agent_type,x,y,vx,vy", *rows]) + "\n"
    return write_text(dest, text, "trajectories")
