"""Trajectory file parsing into a canonical in-memory table.

Input format: UTF-8 CSV with header ``timestamp,agent_id,agent_type,x,y``
and an optional trailing ``vx,vy`` pair. Lines starting with ``#`` are
comments. Extra columns are accepted and ignored. Velocities are derived
by finite differences when the file does not carry them.

A file is read a block at a time (``read_lines``), never whole, each
block ending on a line break: a few thousand lines at a time become
numpy columns, which are validated, differenced and ordered with array
operations, one copy of each at a time; those columns are the table,
which holds no per-row records. A chunk without ``#`` or ``\x1f`` is read
as it is, numbers unstripped; any other, or one that does not split, line
by line.
Reading rows stops at the first one that does not split into its fields
and numbers; each other check is a mask over the columns, and an error
names its line from the line numbers counted while reading.

The label files that ``evaluation`` reads share ``read_rows``, one
reader of small headed CSV files, fed by the same ``read_lines``. The
package's CSV writers hand ``write_csv`` a formatter of a slice of rows,
and it formats and writes ``_CHUNK_LINES`` rows at a time.

A :class:`TrajectoryTable` is immutable by convention: nothing in this
package mutates it after construction, so it is safe to share across
threads.
"""

from __future__ import annotations

import inspect
import os
import sys
from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice

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

# A product like 0.29 * 100 == 28.999... within 1e-9 or 4 ulps (repr(k / rate) scaled back
# falls up to 2 ulps short of k) below a frame moves up to it; the cap keeps times in their frames.
_FLOOR_GUARD, _GUARD_CAP = 1e-9, 1e-3

# Frame indices, of trajectories and labels alike, stay below 2**53, where
# every one is an exact float64 and int64 value.
FRAME_LIMIT = 2.0**53

# libyaml's parser and emitter where PyYAML was built with them: the same
# documents and text, several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# Lines parsed, or formatted and written by ``write_csv``, at a time: bounds
# the transient memory of the parser and of the CSV writers to one chunk's
# strings.
_CHUNK_LINES = 4096

# Characters read from a file at a time, and the rest of the line they end
# in: a block's strings stay a few MB
_BLOCK_CHARS = 1 << 18


@dataclass(frozen=True, eq=False)
class TrajectoryTable:
    """One row per agent per sample, as columns, plus the sampling rate.

    Rows are ordered by frame index, then in the order their producer
    gives them: ingest sorts a frame's rows by id, the simulator keeps
    spawn order. ``frame`` is int64; ``timestamp``, ``x``, ``y``, ``vx``
    and ``vy`` are float64; ``agent`` holds each row's index into
    ``agent_ids``, the distinct ids, each of which has rows, in the order
    their producer gives them (ingest: id order; simulator: spawn order;
    ``compute_series`` orders its result by id either way); and
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


def read_lines(source, text, what: str) -> Iterator[list[str]]:
    """``read_source``'s content, split by ``str.splitlines``, a block of lines at a time.

    A file is read a block at a time, never whole: ``_BLOCK_CHARS``
    characters and the rest of the line they end in, so a block ends on a
    line break (text mode turns ``\\r\\n`` and ``\\r`` into one ``\\n``) or
    at the end of the file; ``text=`` is one block. An unreadable file is
    read again by ``read_source``, for the same error message."""
    if source is None or text is not None or not isinstance(source, (str, os.PathLike)):
        yield read_source(source, text, what).splitlines()  # text=, or an error
        return
    try:
        with open(source, "r", encoding="utf-8") as fh:
            blocks = iter(lambda: fh.read(_BLOCK_CHARS) + fh.readline(), "")
            yield from map(str.splitlines, blocks)  # a block's text is dropped once split
    except (OSError, UnicodeDecodeError):
        read_source(source, None, what)
        raise


@contextmanager
def read_through(blocks: Iterator[list[str]]):
    """The lines of ``blocks``, read to the end as the ``with`` body leaves, even
    by an error: a byte that is not UTF-8 anywhere in the file is reported first."""
    try:
        yield chain.from_iterable(blocks)
    finally:
        deque(blocks, maxlen=0)


def read_rows(
    lines: Iterable[str], formats: Mapping[str, tuple[str, ...]]
) -> Iterator[tuple[int, list[str]]]:
    """The line number and stripped fields of each data row of CSV ``lines``.

    Blank lines and lines starting with ``#`` are skipped; the first other
    line is the header. ``formats`` maps each format's name to its header:
    the file is read in the format whose header starts with the same
    column, else in the last one. A header other than that format's, or
    a row with another field count, raises TrajectoryParseError at its
    line; text without a header raises ValidationError.
    """
    header, name = None, list(formats)[-1]
    for line_no, raw in enumerate(lines, start=1):
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


def write_chunks(dest, chunks: Iterable[str], what: str) -> str:
    """The texts ``chunks`` joined or, given a path ``dest``, ``""`` once they
    are written there one at a time (for ``write_text`` and ``write_csv``).
    A file that cannot be written (a missing parent, a directory in the
    way, no permission) raises a one-line ValidationError naming the path,
    the mirror of ``read_source``.
    """
    if dest is None:
        return "".join(chunks)
    try:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ValidationError(
            f"cannot write {what} {os.fspath(dest)!r}: {reason}"
        ) from None
    return ""


def write_text(dest, text: str, what: str) -> str:
    """Write ``text`` to the file ``dest``, unless it is None; return ``text``."""
    write_chunks(dest, [text], what)
    return text


def write_yaml(dest, mapping: dict, what: str) -> str:
    """``mapping`` as block YAML in key order, written as by ``write_text``."""
    return write_text(dest, yaml.dump(mapping, Dumper=_YAML_DUMPER, sort_keys=False), what)


def read_yaml(path, what: str, build):
    """``build(mapping)`` for the YAML mapping in file ``path``.

    The one reader of the package's YAML files (scenarios, run configs,
    thresholds); an empty file is an empty mapping. An unreadable file,
    malformed YAML, a document that is not a mapping, a missing key, a
    field of the wrong type (a KeyError, TypeError, ValueError or
    OverflowError from ``build``) and a
    ValidationError from ``build`` (an unknown key, a value out of range)
    raise a one-line ValidationError naming the file.
    """
    text = read_source(path, None, what)
    where = f"{what} {os.fspath(path)!r}"
    try:
        document = yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int past Python's digit limit
        mark = getattr(exc, "problem_mark", None)
        position = getattr(exc, "position", None)  # a ReaderError's offset
        if mark:
            at = f" at line {mark.line + 1}, column {mark.column + 1}"
        else:
            at = "" if position is None else f" at position {position}"
        # a ReaderError or ValueError has no problem; a ReaderError's text ends in a second line
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
    try:
        return float(value)
    except OverflowError as exc:  # an int past the float range
        raise ValueError(f"{name}: {exc}") from None


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


def in_frame_order(frames: np.ndarray, codes: np.ndarray) -> bool:
    """Whether rows are ordered by frame, then by agent code within a frame."""
    step = np.diff(frames)
    return bool(np.all((step > 0) | (step == 0) & (np.diff(codes) >= 0)))


def stable_order(keys: np.ndarray, count: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of keys below ``count``, as uint16 (radix) to 2**16."""
    return np.argsort(keys.astype(np.uint16) if count <= 2**16 else keys, kind="stable")


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


@np.errstate(over="ignore", invalid="ignore")  # inf as Python's float; bad ts fail below
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

    Before any of these, a file that cannot be read raises ``read_source``'s.
    Field counts are checked once per chunk of lines, on its cells split at
    once; a chunk that fails is read again row by row for the error.
    """
    require_positive(frame_rate_hz, "frame_rate_hz")
    # per chunk of lines, its first row and its rows' line numbers (a range
    # where the chunk has no blank or comment line)
    firsts, numbers = [], []

    def line_of(row) -> int:
        k = bisect_right(firsts, row) - 1
        return int(numbers[k][row - firsts[k]])

    with read_through(read_lines(source, text, "trajectories")) as lines:
        seen, header = next(((k, s) for k, raw in enumerate(lines, start=1)
                             if (s := raw.strip()) and s[0] != "#"), (0, None))
        if header is None:
            raise ValidationError("empty trajectory stream (no header)")
        n_fields, columns, has_velocity = _header(header, seen)
        names = ["timestamp", "x", "y"] + (["vx", "vy"] if has_velocity else [])
        numeric = [columns[name] for name in names]
        id_col, type_col = columns["agent_id"], columns["agent_type"]

        # a first chunk of no rows, so that a file without rows still has columns
        values, ids, types = [[np.empty(0)] * len(numeric)], [], []

        def read(body: list[str], raw: bool = False) -> None:
            """Append the rows ``body`` as columns; ValueError if one does not split
            or, ``raw`` (lines as read, numbers unstripped), holds ``#`` or ``\\x1f``."""
            if not body:
                return
            # rows joined by a "\n" cell, which no row holds: each row has
            # n_fields fields iff every (n_fields + 1)-th cell is one of them
            text = ",\n,".join(body)
            if raw and ("#" in text or "\x1f" in text):
                raise ValueError
            cells = text.split(",")
            del text  # freed before the conversions: 3 MB off a 60-min recording's peak
            width = n_fields + 1
            if (len(cells) != width * len(body) - 1
                    or cells[n_fields::width].count("\n") != len(body) - 1):
                raise ValueError
            values.append([
                np.fromiter(map(float, cells[j::width] if raw else
                                map(str.strip, cells[j::width])), float, len(body))
                for j in numeric
            ])
            # interned, so the lists hold one string per distinct id and type
            ids.extend(map(sys.intern, map(str.strip, cells[id_col::width])))
            types.extend(map(sys.intern, map(str.strip, cells[type_col::width])))

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
        for chunk in iter(lambda: list(islice(lines, _CHUNK_LINES)), []):
            firsts.append(len(ids))
            numbers.append(range(seen + 1, seen + 1 + len(chunk)))
            seen += len(chunk)
            with suppress(ValueError):
                read(chunk, raw=True)
                continue
            # else line by line, without its blank and comment lines
            body = list(map(str.strip, chunk))
            numbers[-1] = numbers[-1].start + np.flatnonzero([s[:1] not in ("", "#") for s in body])
            body = [s for s in body if s and s[0] != "#"]
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
    # one column at a time, each column's chunks freed once it is joined
    by_column = list(zip(*values))
    del values
    ts, x, y, *vel = (np.concatenate(by_column.pop(0)) for _ in numeric)
    vx, vy = vel or np.zeros((2, n))
    product = ts * frame_rate_hz
    frame_float = np.floor(product)  # the gap to the next frame is exact from 1 up
    frame_float += frame_float + 1 - product <= np.fmin(
        np.fmax(_FLOOR_GUARD, 4 * np.spacing(product)), _GUARD_CAP)
    del product
    agents = sorted(set(ids))
    code = {agent_id: k for k, agent_id in enumerate(agents)}
    codes = np.fromiter(map(code.__getitem__, ids), np.intp, n)
    kinds = np.array(types, dtype=object)
    unknown = list(set(types) - AGENT_TYPES)
    del ids, types

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
        raise TrajectoryParseError(message, line_of(i))
    del checks, failed
    if error is not None:
        raise TrajectoryParseError(error, line_of(n))
    if not n:
        raise ValidationError("empty trajectory stream (no data rows)")

    # each agent's rows in file order: row a[r] is followed by b[r], its
    # agent's next row; timestamps strictly increase and frames step by one
    frames = frame_float.astype(np.int64)
    del frame_float
    order = stable_order(codes, len(agents))
    same = np.diff(codes[order]) == 0
    a, b = order[:-1][same], order[1:][same]
    back = ts[b] <= ts[a]
    skip = frames[b] - frames[a] != 1
    if (back | skip).any():
        # the file row of each agent's first row, by agent code
        first_row = order[np.flatnonzero(np.insert(~same, 0, True))]
        culprits = codes[a[back | skip]]
        agent = culprits[first_row[culprits].argmin()]
        mine = codes[a] == agent
        if (back & mine).any():
            p, q = a[back & mine][0], b[back & mine][0]
            raise ValidationError(
                f"agent {agents[agent]!r}: timestamps must strictly increase "
                f"({float(ts[q])} after {float(ts[p])}, line {line_of(q)})"
            )
        p, q = a[skip & mine][0], b[skip & mine][0]
        if frames[q] == frames[p]:
            raise ValidationError(
                f"agent {agents[agent]!r}: timestamps {float(ts[p])} and "
                f"{float(ts[q])} both fall on frame {frames[p]} at {frame_rate_hz} Hz "
                f"(line {line_of(q)}); one row per frame"
            )
        raise ValidationError(
            f"agent {agents[agent]!r}: frame indices must form a contiguous run "
            f"(got {frames[p]} then {frames[q]}); departed agents may not reappear"
        )

    if not has_velocity:
        # forward differences, scattered back to the file rows; an agent's
        # last row reuses its last one, a one-row agent stays at (0, 0)
        dt = ts[b] - ts[a]
        vx[a] = (x[b] - x[a]) / dt
        vy[a] = (y[b] - y[a]) / dt
        del dt
        last = np.flatnonzero(np.append(~same, True) & np.insert(same, 0, False))
        vx[order[last]] = vx[order[last - 1]]
        vy[order[last]] = vy[order[last - 1]]
    del order, same, a, b

    table = dict(frame=frames, timestamp=ts, x=x, y=y, vx=vx, vy=vy, agent=codes,
                 agent_type=kinds)
    del frames, ts, x, y, vx, vy, vel, codes, kinds
    # canonical order: frames ascending, agents within a frame by id (each
    # pair is one row), applied one column at a time to a file not in it
    if not in_frame_order(table["frame"], table["agent"]):
        canon = np.lexsort((table["agent"], table["frame"]))
        for name, column in table.items():
            table[name] = column[canon]
    return TrajectoryTable(**table, agent_ids=agents, frame_rate_hz=frame_rate_hz)


def float_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each float64 value, as ``list(map(repr, values.tolist()))``.

    Where at most 9/10 of the values are distinct, each distinct bit
    pattern is formatted once: ``repr`` of a 17-digit double is the
    writers' main cost, and columns such as timestamps, degrees or window
    fits repeat. The patterns are told apart as int64, so 0.0 and -0.0
    stay apart.
    """
    values = np.asarray(values, dtype=np.float64)
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    if 10 * len(bits) > 9 * len(values):
        return list(map(repr, values.tolist()))
    texts = list(map(repr, bits.view(np.float64).tolist()))
    return list(map(texts.__getitem__, where.tolist()))


def write_csv(dest, header: str, count: int, texts, what: str) -> str:
    """CSV of ``count`` rows under the line ``header``, as ``write_chunks`` writes it.

    ``texts(rows)`` gives the rows of the slice ``rows`` as equal-length
    columns of field texts; it is called for ``_CHUNK_LINES`` rows at a
    time, and each chunk's lines are written before the next is formatted.
    """
    chunks = ("\n".join(map(",".join, zip(*texts(slice(lo, lo + _CHUNK_LINES))))) + "\n"
              for lo in range(0, count, _CHUNK_LINES))
    return write_chunks(dest, chain([header + "\n"], chunks), what)


def serialize_trajectories(table: TrajectoryTable, dest=None) -> str:
    """Write a table back to the CSV record format (velocities included).

    Returns the text or, when ``dest`` is a path, writes it there and
    returns ``""``. Floats are written as ``repr`` text, so parsing the
    text of a parsed file gives back the same rows. Rows are written by
    ``write_csv``, each chunk's floats formatted by ``float_texts``.
    """
    def texts(rows):
        ts, x, y, vx, vy = (
            float_texts(getattr(table, c)[rows]) for c in ("timestamp", "x", "y", "vx", "vy")
        )
        agents = map(table.agent_ids.__getitem__, table.agent[rows].tolist())
        return ts, agents, table.agent_type[rows].tolist(), x, y, vx, vy

    return write_csv(dest, "timestamp,agent_id,agent_type,x,y,vx,vy", len(table.frame),
                     texts, "trajectories")
