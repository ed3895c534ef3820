import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivestyle.errors import (
    ContractViolationError,
    TrajectoryParseError,
    ValidationError,
)
from drivestyle.ingest import (
    frame_index,
    parse_trajectories,
    serialize_trajectories,
    write_text,
)

HEADER = "timestamp,agent_id,agent_type,x,y"
HEADER_V = HEADER + ",vx,vy"


def test_forward_backward_difference_velocity():
    # 2 rows at t=0.0 (0,0) and t=0.5 (5,0) at 2 Hz: forward difference
    # gives (10,0) at the first frame and the last frame reuses it.
    text = f"{HEADER}\n0.0,a,car,0,0\n0.5,a,car,5,0\n"
    table = parse_trajectories(text=text, frame_rate_hz=2.0)
    assert sorted(table.frames) == [0, 1]
    vels = [fr.velocity for idx in sorted(table.frames) for fr in table.frames[idx]]
    assert vels == [(10.0, 0.0), (10.0, 0.0)]


def test_velocity_passthrough_single_frame():
    text = f"{HEADER_V}\n0.0,a,car,1,2,3,4\n"
    table = parse_trajectories(text=text, frame_rate_hz=2.0)
    assert list(table.frames) == [0]
    (fr,) = table.frames[0]
    assert fr.velocity == (3.0, 4.0)
    assert fr.position == (1.0, 2.0)


def test_single_sample_without_velocity_gets_zero():
    text = f"{HEADER}\n0.0,a,car,1,2\n"
    table = parse_trajectories(text=text, frame_rate_hz=2.0)
    (fr,) = table.frames[0]
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
    ids = {idx: [fr.agent_id for fr in frame] for idx, frame in table.frames.items()}
    assert ids == {0: ["a"], 1: ["a"]}


def test_malformed_row_reports_line_number():
    text = f"{HEADER}\n0.0,a,car,0,0\nnot-a-number,a,car,1,0\n"
    with pytest.raises(TrajectoryParseError, match="line 3"):
        parse_trajectories(text=text, frame_rate_hz=1.0)


def test_wrong_field_count_reports_line_number():
    text = f"{HEADER}\n0.0,a,car,0\n"
    with pytest.raises(TrajectoryParseError, match="line 2"):
        parse_trajectories(text=text, frame_rate_hz=1.0)


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
    assert frame_index(0.7, 10.0) == 7
    assert frame_index(4.1, 10.0) == 41
    assert frame_index(1.15, 20.0) == 23


def test_interior_speeds_match_displacement_rate():
    # synthetic linear motion: derived speed equals |dp| * rate to 1e-9
    f = 4.0
    rows = [f"{k / f!r},a,car,{3.0 * k / f!r},{4.0 * k / f!r}" for k in range(10)]
    table = parse_trajectories(text=HEADER + "\n" + "\n".join(rows), frame_rate_hz=f)
    track = [table.frames[idx][0] for idx in sorted(table.frames)]
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
    assert again == table


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
    assert again == table


def test_source_is_a_path_and_text_comes_through_text(tmp_path):
    text = f"{HEADER}\n0.0,a,car,0,0\n1.0,a,car,1,0\n"
    path = tmp_path / "t.csv"
    path.write_text(text)
    from_text = parse_trajectories(text=text, frame_rate_hz=1.0)
    assert parse_trajectories(path, 1.0) == from_text
    assert parse_trajectories(str(path), 1.0) == from_text
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
    ids = {idx: [fr.agent_id for fr in frame] for idx, frame in table.frames.items()}
    assert ids == {0: ["a"], 1: ["a", "b"]}
    assert table.frame_indices() == [0, 1]
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
