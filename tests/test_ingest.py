import math
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drivestyle.errors import (
    ContractViolationError,
    TrajectoryParseError,
    ValidationError,
)
from drivestyle import ingest
from drivestyle import scenarios as sc
from drivestyle.centrality import CentralitySeries, series_to_csv
from drivestyle.config import save_thresholds
from drivestyle.evaluation import parse_annotations
from drivestyle.ingest import (
    TrajectoryTable,
    float_texts,
    parse_trajectories,
    serialize_trajectories,
    write_text,
)
from drivestyle.sim import _to_yaml, save_scenario
from drivestyle.styles import DEFAULT_THRESHOLDS
from oracles import records, row_loop_parse, row_serialize_trajectories, row_series_to_csv

HEADER = "timestamp,agent_id,agent_type,x,y"
HEADER_V = HEADER + ",vx,vy"


def test_forward_backward_difference_velocity():
    # 2 rows at t=0.0 (0,0) and t=0.5 (5,0) at 2 Hz: forward difference
    # gives (10,0) at the first frame and the last frame reuses it.
    text = f"{HEADER}\n0.0,a,car,0,0\n0.5,a,car,5,0\n"
    frames = records(parse_trajectories(text=text, frame_rate_hz=2.0))
    assert sorted(frames) == [0, 1]
    vels = [fr.velocity for idx in sorted(frames) for fr in frames[idx]]
    assert vels == [(10.0, 0.0), (10.0, 0.0)]


def test_velocity_passthrough_single_frame():
    text = f"{HEADER_V}\n0.0,a,car,1,2,3,4\n"
    frames = records(parse_trajectories(text=text, frame_rate_hz=2.0))
    assert list(frames) == [0]
    (fr,) = frames[0]
    assert fr.velocity == (3.0, 4.0)
    assert fr.position == (1.0, 2.0)


def test_single_sample_without_velocity_gets_zero():
    text = f"{HEADER}\n0.0,a,car,1,2\n"
    (fr,) = records(parse_trajectories(text=text, frame_rate_hz=2.0))[0]
    assert fr.velocity == (0.0, 0.0)


def test_duplicate_timestamp_rejected():
    text = f"{HEADER}\n0.0,a,car,0,0\n0.0,a,car,1,0\n"
    with pytest.raises(ValidationError):
        parse_trajectories(text=text, frame_rate_hz=2.0)


def test_non_monotone_timestamps_rejected():
    text = f"{HEADER}\n1.0,a,car,0,0\n0.5,a,car,1,0\n"
    with pytest.raises(ValidationError):
        parse_trajectories(text=text, frame_rate_hz=1.0)


def test_empty_stream_rejected():
    with pytest.raises(ValidationError):
        parse_trajectories(text="", frame_rate_hz=1.0)
    with pytest.raises(ValidationError):
        parse_trajectories(text=HEADER + "\n# only comments\n", frame_rate_hz=1.0)


def test_comments_and_extra_columns_ignored():
    text = (
        "timestamp,agent_id,agent_type,x,y,location\n"
        "# a comment line\n"
        "0.0,a,car,0,0,downtown\n"
        "1.0,a,car,1,0,downtown\n"
    )
    table = parse_trajectories(text=text, frame_rate_hz=1.0)
    ids = {idx: [fr.agent_id for fr in frame] for idx, frame in records(table).items()}
    assert ids == {0: ["a"], 1: ["a"]}


def test_malformed_row_reports_line_number():
    text = f"{HEADER}\n0.0,a,car,0,0\nnot-a-number,a,car,1,0\n"
    with pytest.raises(TrajectoryParseError, match="line 3"):
        parse_trajectories(text=text, frame_rate_hz=1.0)


def test_wrong_field_count_reports_line_number():
    text = f"{HEADER}\n0.0,a,car,0\n"
    with pytest.raises(TrajectoryParseError, match="line 2"):
        parse_trajectories(text=text, frame_rate_hz=1.0)


def test_field_counts_are_checked_per_line():
    # one field too many, then one too few: the cells would still fill
    # two rows if only their total were counted
    text = (
        "timestamp,agent_id,agent_type,x,y,note\n"
        "0.0,a,car,1,2,n,0.25\n"
        "a,car,1,2,n\n"
    )
    with pytest.raises(TrajectoryParseError, match="^line 2: expected 6 fields, got 7$"):
        parse_trajectories(text=text, frame_rate_hz=4.0)


def test_unknown_agent_type_rejected():
    text = f"{HEADER}\n0.0,a,spaceship,0,0\n"
    with pytest.raises(TrajectoryParseError):
        parse_trajectories(text=text, frame_rate_hz=1.0)


def test_unpaired_velocity_column_rejected():
    text = "timestamp,agent_id,agent_type,x,y,vx\n0.0,a,car,0,0,1\n"
    with pytest.raises(TrajectoryParseError):
        parse_trajectories(text=text, frame_rate_hz=1.0)


def test_gap_in_frame_run_rejected():
    # 1 Hz samples at 2 Hz frame rate leave a hole between indices
    text = f"{HEADER}\n0.0,a,car,0,0\n1.0,a,car,1,0\n"
    with pytest.raises(ValidationError, match="contiguous"):
        parse_trajectories(text=text, frame_rate_hz=2.0)


def test_frame_index_guard_against_float_product():
    # 0.29 * 100 is 28.999999999999996: only the guard lifts it to frame 29;
    # at 2**49 an ulp is 0.125, and 2**49 + 0.625 is 3 ulps short of the
    # next frame but a time inside its own, which the capped guard keeps
    cases = ((0.7, 10.0, 7), (4.1, 10.0, 41), (1.15, 20.0, 23), (0.29, 100.0, 29),
             (2**49 + 0.625, 1.0, 2**49))
    for ts, rate, frame in cases:
        table = parse_trajectories(text=f"{HEADER}\n{ts!r},a,car,0,0\n", frame_rate_hz=rate)
        assert table.frame.tolist() == [frame]


@pytest.mark.parametrize("rate, frames", [
    # repr(k / 25) read back times 25 falls up to 2 ulps short of k, far
    # more than 1e-9 at frame 8.6e8; the guard grows with the product
    (25.0, 860_000_000 + np.arange(200)),
    # 4 ulps of the product are a whole frame or more here: the cap keeps
    # frame k off k + 1, and 2**53 - 1 below the 2**53 limit
    (1.0, 2**50 + np.arange(-1, 1)),
    (1.0, 2**52 + np.arange(-1, 1)),
    (1.0, 2**53 + np.arange(-2, 0)),
])
def test_large_frame_timestamps_round_trip_on_their_frames(rate, frames):
    text = HEADER + "\n" + "".join(
        f"{k / rate!r},a,car,{0.1 * j!r},0\n" for j, k in enumerate(frames.tolist()))
    table = parse_trajectories(text=text, frame_rate_hz=rate)
    assert table.frame.tolist() == frames.tolist()
    assert records(table) == records(row_loop_parse(text, rate))
    again = parse_trajectories(text=serialize_trajectories(table), frame_rate_hz=rate)
    assert again.frame.tolist() == frames.tolist()
    assert again.timestamp.tobytes() == table.timestamp.tobytes()


def test_interior_speeds_match_displacement_rate():
    # synthetic linear motion: derived speed equals |dp| * rate to 1e-9
    f = 4.0
    rows = [f"{k / f!r},a,car,{3.0 * k / f!r},{4.0 * k / f!r}" for k in range(10)]
    table = parse_trajectories(text=HEADER + "\n" + "\n".join(rows), frame_rate_hz=f)
    frames = records(table)
    track = [frames[idx][0] for idx in sorted(frames)]
    assert len(track) == 10
    for fr, nxt in zip(track, track[1:]):
        dp = math.hypot(
            nxt.position[0] - fr.position[0], nxt.position[1] - fr.position[1]
        )
        assert abs(fr.speed - dp * f) <= 1e-9


def test_round_trip_identity():
    text = f"{HEADER_V}\n0.0,a,car,0,0,1,0\n0.5,a,car,5,0,1,0\n0.5,b,bus,9,9,0,0\n"
    table = parse_trajectories(text=text, frame_rate_hz=2.0)
    again = parse_trajectories(text=serialize_trajectories(table), frame_rate_hz=2.0)
    assert records(again) == records(table)


@st.composite
def table_texts(draw):
    f = 4.0
    n_agents = draw(st.integers(1, 3))
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    lines = [HEADER_V]
    for a in range(n_agents):
        start = draw(st.integers(0, 3))
        length = draw(st.integers(1, 5))
        for k in range(start, start + length):
            x, y = draw(finite), draw(finite)
            vx, vy = draw(finite), draw(finite)
            lines.append(f"{k / f!r},agent{a},car,{x!r},{y!r},{vx!r},{vy!r}")
    return "\n".join(lines)


@given(table_texts())
@settings(max_examples=60, deadline=None)
def test_round_trip_property(text):
    table = parse_trajectories(text=text, frame_rate_hz=4.0)
    again = parse_trajectories(text=serialize_trajectories(table), frame_rate_hz=4.0)
    assert records(again) == records(table)


def test_source_is_a_path_and_text_comes_through_text(tmp_path):
    text = f"{HEADER}\n0.0,a,car,0,0\n1.0,a,car,1,0\n"
    path = tmp_path / "t.csv"
    path.write_text(text)
    from_text = parse_trajectories(text=text, frame_rate_hz=1.0)
    assert records(parse_trajectories(path, 1.0)) == records(from_text)
    assert records(parse_trajectories(str(path), 1.0)) == records(from_text)
    with pytest.raises(ValidationError, match="cannot read trajectories"):
        parse_trajectories(text, 1.0)  # a str is always a path
    with pytest.raises(ValidationError, match=r"cannot read trajectories .*missing\.csv"):
        parse_trajectories(tmp_path / "missing.csv", 1.0)
    with pytest.raises(ContractViolationError):
        parse_trajectories(frame_rate_hz=1.0)
    with pytest.raises(ContractViolationError):
        parse_trajectories(path, 1.0, text=text)
    with pytest.raises(ContractViolationError):
        parse_trajectories(text.encode(), 1.0)
    with pytest.raises(ValidationError, match="frame_rate_hz"):
        parse_trajectories(text=text)


def test_table_helpers():
    text = f"{HEADER}\n0.0,a,car,0,0\n1.0,a,car,1,0\n1.0,b,bus,5,5\n"
    table = parse_trajectories(text=text, frame_rate_hz=1.0)
    ids = {idx: [fr.agent_id for fr in frame] for idx, frame in records(table).items()}
    assert ids == {0: ["a"], 1: ["a", "b"]}
    assert table.span() == (0, 1)


def test_write_text_writes_returns_and_names_an_unwritable_path(tmp_path):
    path = tmp_path / "out.csv"
    assert write_text(path, "a,b\n", "table") == "a,b\n"
    assert path.read_text() == "a,b\n"
    assert write_text(None, "x\n", "table") == "x\n"
    for bad in (tmp_path, tmp_path / "missing" / "out.csv"):
        with pytest.raises(ValidationError, match=r"^cannot write table ") as exc:
            write_text(bad, "a,b\n", "table")
        assert repr(str(bad)) in str(exc.value) and "\n" not in str(exc.value)


# Bulk parsing against the row-by-row oracle. Each generated file comes
# from a valid table (agents with contiguous 4 Hz frame runs) written with
# comments, blank lines, CRLF, padded cells, extra and duplicate columns
# and interleaved rows, then optionally broken by one of ERRORS.
PADS = ["", " ", "\t", "　", "\xa0", "\x1f"]
# lines that hold no row: blank, whitespace only, and comments, some indented
FILLER_LINES = ["", "  ", "\t\xa0", "# comment, with a comma", "  # indented", "\x1f#"]
EXTRA_COLUMNS = ["note", "x", "lane", "agent_id"]
IDS = ["a9", "a10", "a1", "a09", "b", "été"]
LONE_ROW_ERRORS = {
    "timestamp_nan": {"timestamp": "nan"},
    "timestamp_inf": {"timestamp": "inf"},
    "negative_timestamp": {"timestamp": "-0.5"},
    "huge_timestamp": {"timestamp": "1e300"},
    "empty_id": {"agent_id": ""},
}
ERRORS = [
    *LONE_ROW_ERRORS, "opposite_field_counts", "non_numeric", "position_inf",
    "velocity_nan", "unknown_type", "gap", "repeat_timestamp", "same_frame", "shuffle",
]


@st.composite
def trajectory_files(draw):
    f = 4.0
    velocity = draw(st.booleans())
    columns = list(HEADER_V.split(",") if velocity else HEADER.split(","))
    columns += draw(st.lists(st.sampled_from(EXTRA_COLUMNS), max_size=2))
    columns = draw(st.permutations(columns))
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    tracks = []
    for agent_id in draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True)):
        start, length = draw(st.integers(0, 6)), draw(st.integers(1, 6))
        offset = draw(st.sampled_from([0.0, 0.1]))
        agent_type = draw(st.sampled_from(["car", "bus", "pedestrian"]))
        tracks.append([
            {"timestamp": repr((k + offset) / f), "agent_id": agent_id,
             "agent_type": agent_type, **{c: repr(draw(finite)) for c in ("x", "y", "vx", "vy")},
             "note": "n", "lane": "1"}
            for k in range(start, start + length)
        ])
    # interleave the agents' rows, each agent's rows in time order
    rows = []
    while any(tracks):
        rows.append(draw(st.sampled_from([t for t in tracks if t])).pop(0))

    error = draw(st.one_of(st.none(), st.sampled_from(ERRORS)))
    target = draw(st.integers(0, len(rows) - 1))
    row = rows[target]
    if error in LONE_ROW_ERRORS:
        # a one-row agent of its own, so no other check can reject it
        row = {**row, "agent_id": "z", **LONE_ROW_ERRORS[error]}
        rows.insert(draw(st.integers(0, len(rows))), row)
    elif error == "non_numeric":
        row[draw(st.sampled_from(["timestamp", "x", "y"]))] = "1.0.0"
    elif error == "position_inf":
        row["y"] = "-inf"
    elif error == "velocity_nan":
        row["vx"] = "nan"
    elif error == "unknown_type":
        row["agent_type"] = "tram"
    elif error == "gap":
        row["timestamp"] = repr(float(row["timestamp"]) + 1.0)
    elif error == "repeat_timestamp":
        rows.insert(target, dict(row))
    elif error == "same_frame":
        # a later row of the same agent on the same frame
        rows.insert(target + 1, {**row, "timestamp": repr(float(row["timestamp"]) + 0.5 / f)})
    elif error == "shuffle":
        rows = draw(st.permutations(rows))

    # a file may hold rows padded with any of PADS, with PADS but "\x1f", or
    # bare, and lines without rows, of which a comment may hold as many
    # commas as a row, or none of them
    pads = draw(st.sampled_from([PADS, PADS[:-1], [""]]))
    filler = draw(st.sampled_from([[*FILLER_LINES, "#" + ",0" * (len(columns) - 1)], []]))
    lines, data = [",".join(columns)], []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(filler), max_size=1)) if filler else []
        data.append(len(lines))
        lines.append(",".join(draw(st.sampled_from(pads)) + row[c] + draw(st.sampled_from(pads))
                              for c in columns))
    if error == "opposite_field_counts" and len(data) > 1:
        a, b = draw(st.permutations(data))[:2]
        lines[a] += ",extra"
        lines[b] = lines[b].rsplit(",", 1)[0]
    # every line end str.splitlines knows, "\r\n" included, mixed in one file
    newlines = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
                                "\x1e", "\x85", "\u2028"])
    ends = [draw(newlines) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(map(str.__add__, lines, ends))


def _outcome(parse):
    try:
        table = parse()
    except (TrajectoryParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return records(table)


@given(trajectory_files(), st.sampled_from([2, 3, ingest._CHUNK_LINES]), st.integers(1, 64))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_bulk_parse_matches_row_loop(tmp_path, text, chunk_lines, block_chars):
    # a chunk of lines without "#" or "\x1f" is read as it is, any other or
    # one that does not split line by line: each gives the row loop's table,
    # or its error, message and line number included
    expected = _outcome(lambda: row_loop_parse(text, 4.0))
    with mock.patch.object(ingest, "_CHUNK_LINES", chunk_lines):
        got = _outcome(lambda: parse_trajectories(text=text, frame_rate_hz=4.0))
        assert got == expected
        # the same file from a path, read a few characters at a time: line
        # ends, blank and comment lines fall on block edges and inside blocks
        path = tmp_path / "drawn.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(ingest, "_BLOCK_CHARS", block_chars):
            assert _outcome(lambda: parse_trajectories(path, 4.0)) == expected


def test_float_strips_what_str_strip_does_but_four_separators():
    # the reader hands float() numbers unstripped only from lines without
    # "\x1f": str.splitlines cuts lines at "\x1c"-"\x1e", so no other
    # str.isspace character makes float() differ from float() after strip
    def value(text):
        try:
            return float(text)
        except ValueError:
            return None

    spaces = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    differ = [c for c in spaces
              if value(c + "1.5") != value((c + "1.5").strip())
              or value("1.5" + c) != value(("1.5" + c).strip())]
    assert differ == ["\x1c", "\x1d", "\x1e", "\x1f"]
    assert all(len(f"a{c}b".splitlines()) == 2 for c in differ[:3])
    assert "a\x1fb".splitlines() == ["a\x1fb"]


def test_files_longer_than_one_chunk():
    n = ingest._CHUNK_LINES
    # agent a<k % 7> is at frame k // 7
    rows = [f"{k // 7}.0,a{k % 7},car,{k * 3.0!r},{k % 7 * 4.0!r}" for k in range(2 * n + 5)]
    text = "\n".join([HEADER, *rows]) + "\n"
    table = parse_trajectories(text=text, frame_rate_hz=1.0)
    assert records(table) == records(row_loop_parse(text, 1.0))

    # line n + 2 is the first line of the second chunk
    for bad, message in ((rows[n] + ",x", f"line {n + 2}: expected 5 fields, got 6"),
                         (rows[n] + "x", f"line {n + 2}: non-numeric field: could not "
                          f"convert string to float: '{4.0 * (n % 7)!r}x'")):
        broken = "\n".join([HEADER, *rows[:n], bad, *rows[n + 1:]])
        with pytest.raises(TrajectoryParseError) as exc:
            parse_trajectories(text=broken, frame_rate_hz=1.0)
        assert str(exc.value) == message


# name -> (row index -> text added, or None for the last field dropped; the
# bad row; its field count), for ``3 * c`` rows read ``c`` lines a chunk
_FIELD_COUNT_CASES = {
    # one field too many, then one too few, in the second chunk: the
    # chunk's cell count is right, its row ends are not
    "too_many_then_too_few": lambda c: ({c: ",x", c + 1: None}, c, 7),
    "too_few_then_too_many": lambda c: ({c: None, c + 1: ",x"}, c, 5),
    "trailing_comma": lambda c: ({c + 1: ","}, c + 1, 7),
    "last_row_of_a_chunk": lambda c: ({2 * c - 1: ",1.0"}, 2 * c - 1, 7),
    "last_row_of_the_file": lambda c: ({3 * c - 1: None}, 3 * c - 1, 5),
}


@pytest.mark.parametrize("chunk_lines", [2, 3])
@pytest.mark.parametrize("case", list(_FIELD_COUNT_CASES))
def test_field_counts_across_chunk_edges(chunk_lines, case):
    # numeric ids and an unread last column: a row one field short followed
    # by one a field long reads as rows of numbers and known types, shifted
    rows = [f"{k // 3}.0,{k * 3.0!r},{k % 3 * 4.0!r},{k % 3},car,car"
            for k in range(3 * chunk_lines)]
    changes, bad, fields = _FIELD_COUNT_CASES[case](chunk_lines)
    for k, end in changes.items():
        rows[k] = rows[k] + end if end is not None else rows[k].rsplit(",", 1)[0]
    # row k is on line k + 2
    text = "\n".join(["timestamp,x,y,agent_id,agent_type,note", *rows]) + "\n"
    with pytest.raises(TrajectoryParseError) as expected:
        row_loop_parse(text, 1.0)
    with mock.patch.object(ingest, "_CHUNK_LINES", chunk_lines), \
            pytest.raises(TrajectoryParseError) as got:
        parse_trajectories(text=text, frame_rate_hz=1.0)
    assert str(got.value) == str(expected.value) == (
        f"line {bad + 2}: expected 6 fields, got {fields}")


def test_a_bad_row_in_the_last_block_of_a_file_names_its_line(tmp_path):
    # agent a<k % 7> is at frame k // 7; the file is several blocks long, and
    # its first block holds a comment and a blank line
    rows = [f"{k // 7}.0,a{k % 7},car,{k * 3.0!r},{k % 7 * 4.0!r}" for k in range(40_000)]
    lines = [HEADER, "# a comment", "", *rows]
    n = len(rows) - 2  # a row of the last block, at line len(lines) - 1
    path = tmp_path / "long.csv"
    for bad, error, message in (
        (rows[n] + ",x", TrajectoryParseError, f"line {len(lines) - 1}: expected 5 fields, got 6"),
        (rows[n].replace("car", "tram"), TrajectoryParseError,
         f"line {len(lines) - 1}: unknown agent_type 'tram' "
         f"(expected one of {sorted(ingest.AGENT_TYPES)})"),
        (rows[n].replace(f"{n // 7}.0,", "0.0,", 1), ValidationError,
         f"agent 'a{n % 7}': timestamps must strictly increase "
         f"(0.0 after {n // 7 - 1}.0, line {len(lines) - 1})"),
    ):
        text = "\n".join([*lines[:-2], bad, lines[-1]]) + "\n"
        path.write_text(text)
        assert path.stat().st_size > 3 * ingest._BLOCK_CHARS
        for parse in (lambda: parse_trajectories(path, 1.0),
                      lambda: parse_trajectories(text=text, frame_rate_hz=1.0)):
            with pytest.raises(error) as exc:
                parse()
            assert str(exc.value) == message


def test_an_undecodable_byte_is_reported_before_an_earlier_bad_row(tmp_path):
    path = tmp_path / "t.csv"
    rows = b"".join(b"%d.0,a,car,%d,0\n" % (k, k) for k in range(1, 60_000))
    # a bad header, a row that does not split and a row of an unknown type,
    # each before a byte that is not UTF-8, several blocks later
    for head in (b"timestamp,x\n", HEADER.encode() + b"\n0.0,a,car,0,0,x\n",
                 HEADER.encode() + b"\n0.0,a,tram,0,0\n"):
        path.write_bytes(head + rows + b"9e9,a,car,\xff,0\n")
        assert path.stat().st_size > 3 * ingest._BLOCK_CHARS
        with pytest.raises(ValidationError) as whole:
            ingest.read_source(path, None, "trajectories")
        with pytest.raises(ValidationError) as exc:
            parse_trajectories(path, 1.0)
        assert str(exc.value) == str(whole.value)
        assert str(exc.value).startswith(f"cannot read trajectories {str(path)!r}: ")
        assert "position" in str(exc.value)
    labels = b"agent_id,style,start_frame,end_frame\na,SLC,0\n" + rows + b"\xff\n"
    path.write_bytes(labels)
    with pytest.raises(ValidationError, match=r"^cannot read annotations .*position"):
        parse_annotations(path, 10.0)


# --- writers ----------------------------------------------------------------

# zeros of both signs, subnormals, the extremes and a few repeating values
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.0, 0.1, 1 / 3, math.inf, -math.inf]
floats_with_repeats = st.one_of(
    # every value distinct (or nearly)
    st.lists(st.floats(allow_nan=False), max_size=60),
    # heavy repeats of a few values
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=60)
    ),
    st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=60),
)


@given(floats_with_repeats)
@settings(max_examples=300, deadline=None)
def test_float_texts_is_repr_of_each_value(values):
    array = np.array(values, dtype=float)
    assert float_texts(array) == list(map(repr, array.tolist()))


@st.composite
def writer_inputs(draw):
    """A table of up to 5 agents over up to 6 frames, and a centrality series."""
    ids = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, unique=True))
    frames = draw(st.integers(1, 6))
    n = frames * len(ids)
    value = st.sampled_from(SPECIAL_FLOATS[:8]) | st.floats(-1e3, 1e3)

    def column():
        return np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=float)

    table = TrajectoryTable(
        frame=np.repeat(np.arange(frames, dtype=np.int64), len(ids)),
        timestamp=np.repeat(np.arange(frames) / 10.0, len(ids)),
        x=column(), y=column(), vx=column(), vy=column(),
        agent=np.tile(np.arange(len(ids)), frames),
        agent_ids=ids,
        agent_type=np.array(
            draw(st.lists(st.sampled_from(["car", "bus"]), min_size=n, max_size=n)), object
        ),
        frame_rate_hz=10.0,
    )
    drawn = {}
    for agent_id in ids:
        length = draw(st.integers(0, 7))
        values = st.lists(value, min_size=length, max_size=length)
        drawn[agent_id] = (draw(st.integers(0, 5)), draw(values), draw(values))
    agents = sorted(drawn)
    firsts, clo, deg = zip(*map(drawn.__getitem__, agents))
    series = CentralitySeries(
        agents, np.array(firsts, dtype=np.int64), np.cumsum([0, *map(len, clo)]),
        np.array(sum(clo, []), dtype=float), np.array(sum(deg, []), dtype=float),
    )
    return table, series


@given(writer_inputs(), st.sampled_from([3, ingest._CHUNK_LINES]))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_writers_match_row_writers(tmp_path, inputs, chunk_lines):
    # at 3 rows a chunk, chunks end mid-frame, and mid-agent in the series;
    # written to a path, each writer writes the text it returns without one
    table, series = inputs
    path = tmp_path / "out.csv"
    with mock.patch.object(ingest, "_CHUNK_LINES", chunk_lines):
        for write, data, row_write in ((serialize_trajectories, table, row_serialize_trajectories),
                                       (series_to_csv, series, row_series_to_csv)):
            text = write(data)
            assert text == row_write(data)
            assert write(data, path) == ""
            assert path.read_bytes() == text.encode()


def test_csv_writers_name_an_unwritable_path(tmp_path):
    table = parse_trajectories(text=f"{HEADER}\n0.0,a,car,0,0\n1.0,a,car,1,0\n",
                               frame_rate_hz=1.0)
    series = CentralitySeries(["a"], np.zeros(1, np.int64), np.array([0, 2]),
                              np.zeros(2), np.zeros(2))
    for write, data, what in ((serialize_trajectories, table, "trajectories"),
                              (series_to_csv, series, "centrality series")):
        for bad in (tmp_path, tmp_path / "missing" / "out.csv"):
            with pytest.raises(ValidationError, match=rf"^cannot write {what} ") as exc:
                write(data, bad)
            assert repr(str(bad)) in str(exc.value) and "\n" not in str(exc.value)


def test_yaml_writer_writes_the_pure_python_dumpers_text(tmp_path):
    # libyaml's emitter, where PyYAML has it, writes SafeDumper's bytes: on
    # every packaged scenario, on agent ids that need quoting or escapes,
    # and on a thresholds file
    def safe_dump(mapping):
        return yaml.dump(mapping, Dumper=yaml.SafeDumper, sort_keys=False)

    packaged = (sc.overspeed_scenario, sc.overtake_scenario, sc.lane_change_scenario,
                sc.weaving_scenario, sc.mixed_behavior_scenario,
                sc.all_conservative_scenario, sc.congested_wave_scenario)
    configs = [make(seed) for make in packaged for seed in range(2)]
    configs += sc.calibration_scenarios()
    ids = ["yes", "#x", "é", "1e3", "a\nb", "x" * 100, "null", "- a", "'q'"]
    configs.append(replace(configs[0], spawns=[
        replace(spawn, agent_id=agent_id) for spawn, agent_id in zip(configs[0].spawns * 9, ids)
    ]))
    assert len(configs[-1].spawns) == len(ids)
    path = tmp_path / "out.yaml"
    for config in configs:
        save_scenario(config, path)
        assert path.read_text(encoding="utf-8") == safe_dump(_to_yaml(config))
    save_thresholds(replace(DEFAULT_THRESHOLDS, tau_closeness=1e-300), path)
    payload = {**vars(DEFAULT_THRESHOLDS), "tau_closeness": 1e-300}
    assert path.read_text(encoding="utf-8") == safe_dump(payload)


@pytest.mark.parametrize("count, dtype", [(2**16, np.uint16), (2**16 + 1, np.intp)])
def test_agent_order_as_uint16_equals_the_intp_order(monkeypatch, count, dtype):
    # the agent-order sort of the parser and of compute_series: keys below
    # 2**16 sort as uint16, by radix; one more agent, and 2**16 is a key
    rng = np.random.default_rng(count)
    keys = rng.integers(0, count, 3 * count)
    keys[:2] = count - 1, 0
    sorted_as = []

    def argsort(a, *args, **kwargs):
        sorted_as.append(a.dtype)
        return real(a, *args, **kwargs)

    real = np.argsort
    monkeypatch.setattr(np, "argsort", argsort)
    got = ingest.stable_order(keys, count)
    monkeypatch.undo()
    assert sorted_as == [dtype]
    assert got.tobytes() == np.argsort(keys, kind="stable").tobytes()
