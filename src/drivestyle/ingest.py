"""Trajectory file parsing into a canonical in-memory table.

Input format: UTF-8 CSV with header ``timestamp,agent_id,agent_type,x,y``
and an optional trailing ``vx,vy`` pair. Lines starting with ``#`` are
comments. Extra columns are accepted and ignored. Velocities are derived
by finite differences when the file does not carry them.

A file is read in one pass: its body is split a few thousand lines at a
time into numpy columns, validated, differenced and ordered with array
operations, and those columns are the table; it holds no per-row records.
Reading stops at the first row that does not split into its fields and
numbers; each other check is a mask over the columns, and an error names
its line from them.

The label files that ``evaluation`` reads share ``read_rows``, one
reader of small headed CSV files.

A :class:`TrajectoryTable` is immutable by convention: nothing in this
package mutates it after construction, so it is safe to share across
threads.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cache
from itertools import islice, repeat

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

# Guard against float products like 0.29 * 100 == 28.999... landing one frame
# early; timestamps are only trusted to well above this resolution.
_FLOOR_GUARD = 1e-9

# Frame indices, of trajectories and labels alike, stay below 2**53, where
# every one is an exact float64 and int64 value.
FRAME_LIMIT = 2.0**53

# libyaml's parser where PyYAML was built with it: the same documents,
# several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# Lines parsed, or written, at a time: bounds the transient memory of the
# parser and of the CSV writers to one chunk's strings.
_CHUNK_LINES = 4096


@dataclass(frozen=True, eq=False)
class TrajectoryTable:
    """One row per agent per sample, as columns, plus the sampling rate.

    Rows are ordered by frame index, then in the order their producer
    gives them: ingest sorts a frame's rows by id, the simulator keeps
    spawn order. ``frame`` is int64; ``timestamp``, ``x``, ``y``, ``vx``
    and ``vy`` are float64; ``agent`` holds each row's index into
    ``agent_ids``, the distinct ids, each of which has rows; and
    ``agent_type`` holds each row's type. ``frames`` maps each frame index
    to the range of its rows.

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

    @property
    def frames(self) -> dict[int, range]:
        """Each frame index's rows, as a range of row positions, in frame order.

        Built from ``frame`` on each access; read only outside the package.
        """
        n = len(self.frame)
        starts = [0, *(np.flatnonzero(np.diff(self.frame)) + 1).tolist()] if n else []
        return dict(zip(self.frame[starts].tolist(), map(range, starts, [*starts[1:], n])))

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


def read_rows(
    text: str, formats: Mapping[str, tuple[str, ...]]
) -> Iterator[tuple[int, list[str]]]:
    """The line number and stripped fields of each data row of CSV ``text``.

    Blank lines and lines starting with ``#`` are skipped; the first other
    line is the header. ``formats`` maps each format's name to its header:
    the file is read in the format whose header starts with the same
    column, else in the last one. A header other than that format's, or
    a row with another field count, raises TrajectoryParseError at its
    line; text without a header raises ValidationError.
    """
    header, name = None, list(formats)[-1]
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [p.strip() for p in line.split(",")]
        if header is None:
            name = next((n for n, h in formats.items() if h[0] == fields[0]), name)
            header = formats[name]
            if tuple(fields) != header:
                raise TrajectoryParseError(
                    f"{name} header must be {','.join(header)}", line_no
                )
            continue
        if len(fields) != len(header):
            raise TrajectoryParseError(
                f"expected {len(header)} fields, got {len(fields)}", line_no
            )
        yield line_no, fields
    if header is None:
        raise ValidationError(f"empty {name} stream")


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
        elif name in _required_arguments(cls):
            raise KeyError(key)
    return cls(**arguments)


@cache
def _required_arguments(cls) -> frozenset[str]:
    """The names of ``cls``'s arguments without a default."""
    arguments = inspect.signature(cls).parameters.values()
    return frozenset(a.name for a in arguments if a.default is a.empty)


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
def parse_trajectories(
    source=None, frame_rate_hz: float | None = None, *, text=None
) -> TrajectoryTable:
    """Parse a trajectory file (or CSV ``text=``) into a TrajectoryTable.

    Agents lacking velocity columns get forward-difference velocities
    (the final sample reuses the last difference); an agent with a single
    sample and no velocity columns gets (0, 0).

    The error raised is the first one a reading row by row would meet:

    1. a header that lacks a required column or has only one of vx, vy:
       TrajectoryParseError at its line;
    2. the first row, in file order, that fails a check, with the first
       check it fails, in this order: field count, a non-numeric value,
       an empty id, an unknown agent type, a non-finite or negative
       timestamp or one whose frame index reaches 2**53, a non-finite
       position, a non-finite velocity: TrajectoryParseError at its line;
    3. the first agent, in order of first appearance, whose timestamps
       do not strictly increase (naming the line) or, failing that, whose
       frame indices do not form a contiguous run: ValidationError, which
       names the line of the second of two rows on one frame;
    4. a stream without a header or without data rows: ValidationError.
    """
    require_positive(frame_rate_hz, "frame_rate_hz")
    lines = read_source(source, text, "trajectories").splitlines()
    start = next(
        (i for i, raw in enumerate(lines) if (s := raw.strip()) and s[0] != "#"), None
    )
    if start is None:
        raise ValidationError("empty trajectory stream (no header)")
    n_fields, columns, has_velocity = _header(lines[start].strip(), start + 1)
    names = ["timestamp", "x", "y"] + (["vx", "vy"] if has_velocity else [])
    numeric = [columns[name] for name in names]
    id_col, type_col = columns["agent_id"], columns["agent_type"]

    # a first chunk of no rows, so that a file without rows still has columns
    values, ids, types = [[np.empty(0)] * len(numeric)], [], []

    def read(body: list[str]) -> None:
        """Append the rows ``body`` as columns; ValueError if one does not split."""
        if not body:
            return
        if set(map(str.count, body, repeat(","))) != {n_fields - 1}:
            raise ValueError
        cells = ",".join(body).split(",")
        values.append([
            np.fromiter(map(float, map(str.strip, cells[j::n_fields])), float, len(body))
            for j in numeric
        ])
        # interned, so the lists hold one string per distinct id and type
        ids.extend(map(sys.intern, map(str.strip, cells[id_col::n_fields])))
        types.extend(map(sys.intern, map(str.strip, cells[type_col::n_fields])))

    def split_error(row: str) -> str | None:
        """Why ``row`` does not split into its fields and numbers, if it does not."""
        parts = row.split(",")
        if len(parts) != n_fields:
            return f"expected {n_fields} fields, got {len(parts)}"
        try:
            for j in numeric:
                float(parts[j].strip())
        except ValueError as exc:
            return f"non-numeric field: {exc}"
        return None

    error = None
    for lo in range(start + 1, len(lines), _CHUNK_LINES):
        chunk = map(str.strip, lines[lo : lo + _CHUNK_LINES])
        body = [s for s in chunk if s and s[0] != "#"]
        try:
            read(body)
        except ValueError:
            # reading stops at the first row that does not split; the rows
            # before it are still checked, as they come first in the file
            bad, error = next(
                (j, why) for j, row in enumerate(body) if (why := split_error(row))
            )
            read(body[:bad])
            break
    n = len(ids)
    ts, x, y, *vel = (np.concatenate(col) for col in zip(*values))
    del values
    vx, vy = vel or np.zeros((2, n))
    frame_float = np.floor(ts * frame_rate_hz + _FLOOR_GUARD)
    agents = sorted(set(ids))
    code = {agent_id: k for k, agent_id in enumerate(agents)}
    codes = np.fromiter(map(code.__getitem__, ids), np.intp, n)
    kinds = np.array(types, dtype=object)
    unknown = list(set(types) - AGENT_TYPES)

    # each row check once, as a mask, in the order a row-by-row reading
    # makes them; the first row any mask holds for fails its first check
    checks = (
        (codes == code.get("", -1), lambda i: "empty agent_id"),
        (
            np.isin(kinds, unknown),
            lambda i: f"unknown agent_type {kinds[i]!r} "
            f"(expected one of {sorted(AGENT_TYPES)})",
        ),
        (~np.isfinite(ts), lambda i: f"non-finite timestamp {float(ts[i])}"),
        (ts < 0, lambda i: f"negative timestamp {float(ts[i])}"),
        (
            frame_float >= FRAME_LIMIT,
            lambda i: f"timestamp {float(ts[i])} at {frame_rate_hz} Hz "
            "is past frame index 2**53",
        ),
        (~(np.isfinite(x) & np.isfinite(y)), lambda i: "non-finite position"),
        (~(np.isfinite(vx) & np.isfinite(vy)), lambda i: "non-finite velocity"),
    )
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        i = int(failed.argmax())
        message = next(say(i) for mask, say in checks if mask[i])
        raise TrajectoryParseError(message, _line_no(lines, start, i))
    if error is not None:
        raise TrajectoryParseError(error, _line_no(lines, start, n))
    if not n:
        raise ValidationError("empty trajectory stream (no data rows)")

    # each agent's rows in file order: timestamps strictly increase and
    # frames step by one between consecutive rows of one agent
    order = np.argsort(codes, kind="stable")
    codes, ts, x, y, vx, vy = (col[order] for col in (codes, ts, x, y, vx, vy))
    frames = frame_float[order].astype(np.int64)
    same = codes[1:] == codes[:-1]
    k = np.flatnonzero(same)  # rows followed by a row of the same agent
    back = ts[k + 1] <= ts[k]
    skip = frames[k + 1] - frames[k] != 1
    if (back | skip).any():
        # the file row of each agent's first row, by agent code
        first_row = order[np.flatnonzero(np.insert(~same, 0, True))]
        culprits = codes[k[back | skip]]
        agent = culprits[first_row[culprits].argmin()]
        mine = codes[k] == agent
        if (back & mine).any():
            r = k[back & mine][0]
            raise ValidationError(
                f"agent {agents[agent]!r}: timestamps must strictly increase "
                f"({float(ts[r + 1])} after {float(ts[r])}, "
                f"line {_line_no(lines, start, order[r + 1])})"
            )
        r = k[skip & mine][0]
        if frames[r + 1] == frames[r]:
            raise ValidationError(
                f"agent {agents[agent]!r}: timestamps {float(ts[r])} and "
                f"{float(ts[r + 1])} both fall on frame {frames[r]} at {frame_rate_hz} Hz "
                f"(line {_line_no(lines, start, order[r + 1])}); one row per frame"
            )
        raise ValidationError(
            f"agent {agents[agent]!r}: frame indices must form a contiguous run "
            f"(got {frames[r]} then {frames[r + 1]}); departed agents may not reappear"
        )

    if not vel:
        # forward differences; an agent's last row reuses its last one,
        # a one-row agent stays at (0, 0)
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
        agent_type=kinds[order[canon]],
        frame_rate_hz=frame_rate_hz,
    )


def _line_no(lines: list[str], header: int, row: int) -> int:
    """1-based line number of data row ``row`` (0-based) under ``lines[header]``."""
    data = (
        line_no
        for line_no, raw in enumerate(lines[header + 1 :], header + 2)
        if (s := raw.strip()) and s[0] != "#"
    )
    return next(islice(data, int(row), None))


def float_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each float64 value, as ``list(map(repr, values.tolist()))``.

    Where at most half the values are distinct, each distinct bit pattern
    is formatted once: ``repr`` of a 17-digit double is the writers' main
    cost, and columns such as timestamps or degrees repeat. The patterns
    are told apart as int64, so 0.0 and -0.0 stay apart.
    """
    values = np.asarray(values, dtype=np.float64)
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    if 2 * len(bits) > len(values):
        return list(map(repr, values.tolist()))
    texts = list(map(repr, bits.view(np.float64).tolist()))
    return list(map(texts.__getitem__, where.tolist()))


def serialize_trajectories(table: TrajectoryTable, dest=None) -> str:
    """Write a table back to the CSV record format (velocities included).

    Returns the text; when ``dest`` is a path the text is also written
    there. Floats are written as ``repr`` text, so parsing the text of a
    parsed file gives back the same rows. Rows are formatted
    ``_CHUNK_LINES`` at a time, each chunk's floats by ``float_texts``.
    """
    parts = ["timestamp,agent_id,agent_type,x,y,vx,vy\n"]
    for lo in range(0, len(table.frame), _CHUNK_LINES):
        rows = slice(lo, lo + _CHUNK_LINES)
        ts, x, y, vx, vy = (
            float_texts(getattr(table, c)[rows]) for c in ("timestamp", "x", "y", "vx", "vy")
        )
        agents = map(table.agent_ids.__getitem__, table.agent[rows].tolist())
        lines = map(",".join, zip(ts, agents, table.agent_type[rows].tolist(), x, y, vx, vy))
        parts.append("\n".join(lines) + "\n")
    return write_text(dest, "".join(parts), "trajectories")
