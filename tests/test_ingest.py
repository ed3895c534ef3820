import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivestyle.errors import (
    ContractViolationError,
    TrajectoryParseError,
    ValidationError,
)
from drivestyle import centrality, ingest
from drivestyle.centrality import AgentSeries, series_to_csv
from drivestyle.ingest import (
    TrajectoryTable,
    float_texts,
    parse_trajectories,
    serialize_trajectories,
    write_text,
)
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
    # 0.29 * 100 is 28.999999999999996: only the guard lifts it to frame 29
    cases = ((0.7, 10.0, 7), (4.1, 10.0, 41), (1.15, 20.0, 23), (0.29, 100.0, 29))
    for ts, rate, frame in cases:
        table = parse_trajectories(text=f"{HEADER}\n{ts!r},a,car,0,0\n", frame_rate_hz=rate)
        assert table.frame.tolist() == [frame]


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

    lines, data = [",".join(columns)], []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(["", "# comment, with a comma", "  "]), max_size=1))
        data.append(len(lines))
        lines.append(",".join(draw(st.sampled_from(PADS)) + row[c] for c in columns))
    if error == "opposite_field_counts" and len(data) > 1:
        a, b = draw(st.permutations(data))[:2]
        lines[a] += ",extra"
        lines[b] = lines[b].rsplit(",", 1)[0]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _outcome(parse):
    try:
        table = parse()
    except (TrajectoryParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return records(table)


@given(trajectory_files(), st.sampled_from([2, 3, ingest._CHUNK_LINES]))
@settings(max_examples=200, deadline=None)
def test_bulk_parse_matches_row_loop(text, chunk_lines):
    expected = _outcome(lambda: row_loop_parse(text, 4.0))
    with mock.patch.object(ingest, "_CHUNK_LINES", chunk_lines):
        got = _outcome(lambda: parse_trajectories(text=text, frame_rate_hz=4.0))
    assert got == expected


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
    """A table of up to 5 agents over up to 6 frames, and a series map."""
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
    series = {}
    for agent_id in ids:
        length = draw(st.integers(0, 7))
        values = st.lists(value, min_size=length, max_size=length)
        series[agent_id] = AgentSeries(
            draw(st.integers(0, 5)),
            np.array(draw(values), dtype=float),
            np.array(draw(values), dtype=float),
        )
    return table, series


@given(writer_inputs(), st.sampled_from([3, ingest._CHUNK_LINES]))
@settings(max_examples=150, deadline=None)
def test_writers_match_row_writers(inputs, chunk_lines):
    # at 3 rows a chunk, chunks end mid-frame and split the series' agents
    # into chunks of one or two
    table, series = inputs
    with mock.patch.object(ingest, "_CHUNK_LINES", chunk_lines), \
            mock.patch.object(centrality, "_CHUNK_LINES", chunk_lines):
        assert serialize_trajectories(table) == row_serialize_trajectories(table)
        assert series_to_csv(series) == row_series_to_csv(series)
