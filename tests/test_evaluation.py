import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivestyle.errors import TrajectoryParseError, ValidationError
from drivestyle.evaluation import (
    AnnotationSet,
    TdeRow,
    TdeTable,
    annotations_from_labels,
    evaluate_run,
    expected_frame,
    parse_annotations,
    tde,
)
from drivestyle.styles import (
    STYLE_CONSERVATIVE,
    STYLE_OVERSPEEDING,
    STYLE_OVERTAKE_LANE_CHANGE,
    STYLE_WEAVING,
    StyleReport,
    StyleSummary,
    WeavingSummary,
)
from oracles import count_expected_frame


def test_single_annotator_interval():
    dist = expected_frame([(10, 12)])
    assert count_expected_frame([(10, 12)])[0] == {10: 1, 11: 1, 12: 1}
    assert dist.expectation == pytest.approx(11.0)
    assert dist.support == (10, 12)


def test_two_overlapping_annotators():
    dist = expected_frame([(10, 12), (12, 14)])
    counts, _ = count_expected_frame([(10, 12), (12, 14)])
    assert counts == {10: 1, 11: 1, 12: 2, 13: 1, 14: 1}
    assert dist.expectation == pytest.approx(12.0)


def test_point_annotation():
    assert expected_frame([(7, 7)]).expectation == 7.0


def test_pmf_normalized():
    dist = expected_frame([(0, 4), (2, 9), (3, 3)])
    # sum of t * c_t over the sum of c_t: (10 + 44 + 3) / (5 + 8 + 1)
    assert dist.expectation == 57 / 14
    assert dist.support == (0, 9)


def test_validation():
    with pytest.raises(ValidationError):
        expected_frame([])
    with pytest.raises(ValidationError):
        expected_frame([(5, 3)])


intervals_strategy = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 60)).map(
        lambda p: (min(p), max(p))
    ),
    min_size=1,
    max_size=6,
)


@given(st.lists(
    st.tuples(st.integers(-2000, 2000), st.integers(0, 2000)).map(
        lambda p: (p[0], p[0] + p[1])
    ),
    min_size=1,
    max_size=4,
) | intervals_strategy)
@settings(max_examples=150, deadline=None)
def test_expected_frame_matches_the_frame_counting_oracle(intervals):
    dist = expected_frame(intervals)
    counts, expectation = count_expected_frame(intervals)
    assert dist.expectation == expectation
    assert dist.support == (min(counts), max(counts))


@given(intervals_strategy, st.randoms())
@settings(max_examples=80, deadline=None)
def test_annotator_permutation_invariance(intervals, rnd):
    shuffled = list(intervals)
    rnd.shuffle(shuffled)
    assert expected_frame(shuffled).expectation == expected_frame(intervals).expectation


@given(st.integers(0, 50), st.integers(0, 50), st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_identical_annotators_collapse(a, b, m):
    interval = (min(a, b), max(a, b))
    one = expected_frame([interval])
    many = expected_frame([interval] * m)
    assert many.expectation == pytest.approx(one.expectation)


def test_tde_paper_anchor():
    # maneuver at frame 5, prediction at frame 7, 30 fps
    assert tde(7, 5, 30.0) == pytest.approx(2.0 / 30.0, abs=1e-12)
    assert round(tde(7, 5, 30.0), 3) == 0.067


def test_tde_zero_and_low_rate():
    assert tde(12, 12, 30.0) == 0.0
    assert tde(20, 10, 2.0) == pytest.approx(5.0)


def test_tde_symmetric_and_homogeneous():
    assert tde(3, 9, 10.0) == tde(9, 3, 10.0)
    assert tde(3, 9, 20.0) == pytest.approx(tde(3, 9, 10.0) / 2.0)
    with pytest.raises(ValidationError):
        tde(1, 2, 0.0)


def _report(agent_id, os_t=None, ot_t=None, w_t=None):
    def summary(t):
        return StyleSummary(
            sle_max=1.0 if t is not None else 0.0,
            t_sle=t,
            sie_max=0.0,
            detected=t is not None,
        )

    return StyleReport(
        agent_id=agent_id,
        window=(0.0, 60.0),
        styles={
            STYLE_OVERSPEEDING: summary(os_t),
            STYLE_OVERTAKE_LANE_CHANGE: summary(ot_t),
            STYLE_WEAVING: WeavingSummary(
                count=1 if w_t is not None else 0,
                t_sle=w_t,
                sie_max=0.0,
                detected=w_t is not None,
            ),
            STYLE_CONSERVATIVE: summary(None),
        },
        global_label="aggressive",
    )


def test_evaluate_run_missing_and_means():
    annotations = AnnotationSet(frame_rate_hz=10.0)
    annotations.add("v", "a", "OS", "gt", 100, 120)  # E[T] = 110
    annotations.add("v", "a", "W", "gt", 200, 240)   # no weaving prediction
    reports = [_report("a", os_t=10.8)]  # frame 108 -> TDE 0.2 s
    table = evaluate_run(reports, annotations)
    os_row = next(r for r in table.rows if r.style == "OS")
    w_row = next(r for r in table.rows if r.style == "W")
    assert os_row.mean_tde_s == pytest.approx(0.2)
    assert os_row.maneuver_count == 1
    assert w_row.mean_tde_s is None
    assert w_row.missing_count == 1
    assert len(table.warnings) == 1


def test_evaluate_run_absent_agent():
    annotations = AnnotationSet(frame_rate_hz=10.0)
    annotations.add("v", "ghost", "OS", "gt", 0, 10)
    table = evaluate_run([_report("a", os_t=1.0)], annotations)
    row = table.rows[0]
    assert row.missing_count == 1
    assert row.maneuver_count == 0


def test_evaluate_run_empty_labels():
    table = evaluate_run([_report("a", os_t=1.0)], AnnotationSet(frame_rate_hz=10.0))
    assert table.rows == []


def test_ot_and_slc_read_the_merged_style():
    annotations = AnnotationSet(frame_rate_hz=10.0)
    annotations.add("v", "a", "OT", "gt", 100, 100)
    annotations.add("v", "a", "SLC", "gt", 100, 100)
    table = evaluate_run([_report("a", ot_t=10.0)], annotations)
    assert table.mean("OT") == pytest.approx(0.0)
    assert table.mean("SLC") == pytest.approx(0.0)


def test_annotations_from_labels_single_annotator():
    class Label:
        def __init__(self, agent_id, style, start_frame, end_frame):
            self.agent_id = agent_id
            self.style = style
            self.start_frame = start_frame
            self.end_frame = end_frame

    ann = annotations_from_labels([Label("a", "OS", 10, 12)], 10.0)
    assert expected_frame(ann.intervals(("sim", "a", "OS"))).expectation == 11.0


def test_annotation_csv_round_trip(tmp_path):
    ann = AnnotationSet(frame_rate_hz=30.0)
    ann.add("vid0", "a", "OS", "p1", 5, 9)
    ann.add("vid0", "a", "OS", "p2", 6, 11)
    ann.add("vid1", "b", "W", "p1", 0, 4)
    path = tmp_path / "ann.csv"
    path.write_text(
        "video_id,agent_id,style,annotator_id,start_frame,end_frame\n"
        "vid0,a,OS,p1,5,9\n"
        "vid0,a,OS,p2,6,11\n"
        "vid1,b,W,p1,0,4\n"
    )
    again = parse_annotations(path, 30.0)
    assert again.entries == ann.entries


def test_annotation_parsing_errors():
    with pytest.raises(TrajectoryParseError):
        parse_annotations(text="bad,header\n", frame_rate_hz=10.0)
    good_header = "video_id,agent_id,style,annotator_id,start_frame,end_frame"
    with pytest.raises(TrajectoryParseError, match="line 2"):
        parse_annotations(text=good_header + "\nv,a,OS,p,xx,3\n", frame_rate_hz=10.0)
    with pytest.raises(TrajectoryParseError):
        parse_annotations(text=good_header + "\nv,a,BADSTYLE,p,1,3\n", frame_rate_hz=10.0)
    with pytest.raises(ValidationError):
        parse_annotations(text="", frame_rate_hz=10.0)


def test_annotation_source_is_a_path(tmp_path):
    text = "video_id,agent_id,style,annotator_id,start_frame,end_frame\nv,a,OS,p,1,3\n"
    path = tmp_path / "ann.csv"
    path.write_text(text)
    assert (parse_annotations(path, 10.0).entries
            == parse_annotations(text=text, frame_rate_hz=10.0).entries)
    with pytest.raises(ValidationError, match="cannot read annotations"):
        parse_annotations(text, 10.0)  # a str is always a path
    with pytest.raises(ValidationError, match="cannot read annotations"):
        parse_annotations(tmp_path / "missing.csv", 10.0)
    with pytest.raises(ValidationError, match="frame_rate_hz"):
        parse_annotations(text=text)


def test_tde_table_formats(tmp_path):
    annotations = AnnotationSet(frame_rate_hz=10.0)
    annotations.add("v", "a", "OS", "gt", 100, 120)
    table = evaluate_run([_report("a", os_t=11.0)], annotations)
    csv_text = table.to_csv(tmp_path / "t.csv")
    json_text = table.to_json(tmp_path / "t.json")
    assert csv_text.splitlines()[0] == "style,mean_tde_s,maneuver_count,missing_count"
    assert (tmp_path / "t.csv").exists() and (tmp_path / "t.json").exists()
    assert '"style": "OS"' in json_text


def test_tde_table_json_refuses_a_non_finite_mean():
    # evaluate_run raises first; the writer still writes no bare Infinity
    table = TdeTable(rows=[TdeRow("OS", float("inf"), 1, 0)])
    with pytest.raises(ValueError, match="not JSON compliant"):
        table.to_json()
