import importlib.util
import json
import tracemalloc
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_frame, make_table
from drivestyle.centrality import compute_series
from drivestyle import pipeline
from drivestyle.errors import ConditioningError, ContractViolationError, ValidationError
from drivestyle.ingest import parse_trajectories
from drivestyle.pipeline import (
    AnalysisParams,
    analyze_table,
    frame_windows,
    report_from_json,
    report_to_json,
)
from drivestyle import regression
from drivestyle.regression import FixedAlpha, GridSearchAlpha, fit_design, fit_solve
from drivestyle.styles import (
    STYLE_CONSERVATIVE,
    STYLE_OVERSPEEDING,
    STYLE_WEAVING,
    Thresholds,
    sle_summaries,
)

from oracles import per_window_analyze, records, records_table

THRESHOLDS = Thresholds(tau_degree=0.5, tau_closeness=0.02,
                        weaving_min_sharpness=0.001)


def test_frame_window_grid():
    assert frame_windows(0, 100, 20, 10) == [
        (0, 20), (10, 30), (20, 40), (30, 50), (40, 60),
        (50, 70), (60, 80), (70, 90), (80, 100),
    ]


def test_frame_windows_clamp_and_oversize():
    assert frame_windows(0, 29, 50, 25) == [(0, 29)]
    assert frame_windows(5, 10, 4, 3) == [(5, 9), (8, 10)]
    with pytest.raises(ValidationError):
        frame_windows(3, 1, 4, 2)


def test_lone_agent_is_conservative_fixed_point():
    table = make_table({"a": [(5.0 * k, 0.0, 5.0, 0.0) for k in range(40)]},
                       frame_rate_hz=2.0)
    report = analyze_table(table, AnalysisParams(window_s=5.0, thresholds=THRESHOLDS))
    (agent,) = report.agents
    assert agent.global_label == "conservative"
    assert agent.styles[STYLE_CONSERVATIVE].detected
    assert agent.styles[STYLE_OVERSPEEDING].sle_max == 0.0
    assert agent.styles[STYLE_WEAVING].count == 0


def test_window_larger_than_run_uses_single_window():
    table = make_table({"a": [(k, 0.0, 1.0, 0.0) for k in range(10)]})
    report = analyze_table(
        table, AnalysisParams(window_s=100.0, thresholds=THRESHOLDS)
    )
    (agent,) = report.agents
    assert len(agent.windows) == 1
    assert agent.windows[0].window == (0.0, 9.0)


def test_short_presence_skipped():
    tracks = {
        "long": [(k, 0.0, 1.0, 0.0) for k in range(10)],
        "blip": [(50.0, 3.0, 1.0, 0.0)],
    }
    table = make_table(tracks)  # blip is present at frame 0 only
    report = analyze_table(table, AnalysisParams(window_s=3.0, thresholds=THRESHOLDS))
    blip = report.agent("blip")
    assert blip.windows == []  # nothing fittable
    assert blip.global_label == "conservative"


def test_params_validation():
    with pytest.raises(ValidationError):
        AnalysisParams(window_s=0.0)
    with pytest.raises(ValidationError):
        AnalysisParams(stride_s=-1.0)
    with pytest.raises(ValidationError):
        AnalysisParams(epsilon_s=0.0)
    assert AnalysisParams(window_s=4.0).effective_stride() == 2.0


def test_report_json_round_trip(tmp_path):
    tracks = {
        "a": [(3.0 * k, 0.0, 3.0, 0.0) for k in range(30)],
        "b": [(50.0 + 1.0 * k, 3.0, 1.0, 0.0) for k in range(30)],
    }
    table = make_table(tracks, frame_rate_hz=2.0)
    report = analyze_table(table, AnalysisParams(window_s=5.0, thresholds=THRESHOLDS))
    path = tmp_path / "report.json"
    report_to_json(report, path)
    loaded = report_from_json(path)
    assert loaded.frame_rate_hz == report.frame_rate_hz
    for orig, back in zip(report.agents, loaded.agents):
        assert back.agent_id == orig.agent_id
        assert back.global_label == orig.global_label
        for name in orig.styles:
            assert back.styles[name].t_sle == orig.styles[name].t_sle
            assert back.styles[name].detected == orig.styles[name].detected


def test_report_schema_guard():
    with pytest.raises(ValidationError):
        report_from_json(text='{"schema_version": "999"}')


@pytest.fixture(scope="module")
def weaving_report():
    from drivestyle.scenarios import suite_analysis_params, weaving_scenario
    from drivestyle.sim import run_scenario

    table = run_scenario(weaving_scenario(0)).table
    return analyze_table(table, suite_analysis_params())


def test_report_v2_round_trip_keeps_evaluated_fields(weaving_report, tmp_path):
    report = weaving_report
    path = tmp_path / "report.json"
    report_to_json(report, path)
    loaded = report_from_json(path)
    assert [a.agent_id for a in loaded.agents] == [a.agent_id for a in report.agents]
    assert any(a.styles[STYLE_WEAVING].critical_points for a in report.agents)
    for orig, back in zip(report.agents, loaded.agents):
        assert back.global_label == orig.global_label
        for name, style in orig.styles.items():
            got = back.styles[name]
            assert (got.t_sle, got.detected, got.sie_max) == (
                style.t_sle, style.detected, style.sie_max
            )
            if name == STYLE_WEAVING:
                assert got.count == style.count
                assert got.critical_points == style.critical_points
            else:
                assert got.sle_max == style.sle_max


def test_report_round_trip_keeps_styles_labels_and_windows(weaving_report):
    loaded = report_from_json(text=report_to_json(weaving_report))
    assert loaded.params.stride_s == weaving_report.params.effective_stride()
    for orig, back in zip(weaving_report.agents, loaded.agents, strict=True):
        assert (back.agent_id, back.window, back.global_label) == (
            orig.agent_id, orig.window, orig.global_label
        )
        assert {name: vars(s) for name, s in back.styles.items()} == {
            name: vars(s) for name, s in orig.styles.items()
        }
        assert back.windows == json.loads(json.dumps(orig.windows))


def test_report_file_is_v3_without_curves(weaving_report, tmp_path):
    path = tmp_path / "report.json"
    report_to_json(weaving_report, path)
    text = path.read_text()
    payload = json.loads(text)
    assert payload["schema_version"] == "3"
    assert "sle_curve" not in text and "sie_curve" not in text
    assert '"domain"' not in text
    assert text.count('"window_fields"') == 1
    assert payload["window_fields"] == [
        "window", "alpha", "condition_number", "degree", "closeness", "weaving_points"
    ]
    assert all(
        isinstance(w, list) and len(w) == 6
        for a in payload["agents"] for w in a["windows"]
    )


@pytest.mark.parametrize("policy", [FixedAlpha(0.5), GridSearchAlpha()],
                         ids=["fixed", "grid"])
def test_report_names_its_alpha_policy(policy):
    table = make_table({"a": [(k, 0.0, 1.0, 0.0) for k in range(10)]})
    params = AnalysisParams(window_s=4.0, thresholds=THRESHOLDS, alpha_policy=policy)
    text = report_to_json(analyze_table(table, params))
    spec = json.loads(text)["params"]["alpha_policy"]
    assert spec == ({"kind": "fixed", "alpha": 0.5} if isinstance(policy, FixedAlpha)
                    else {"kind": "grid", "cap": 1e6})
    back = report_from_json(text=text).params.alpha_policy
    assert type(back) is type(policy) and vars(back) == vars(policy)


def test_report_with_an_unnamed_alpha_policy_is_not_written():
    class Custom(FixedAlpha):
        pass

    table = make_table({"a": [(k, 0.0, 1.0, 0.0) for k in range(10)]})
    report = analyze_table(table, AnalysisParams(thresholds=THRESHOLDS,
                                                 alpha_policy=Custom(0.5)))
    with pytest.raises(ContractViolationError, match="no mapping form"):
        report_to_json(report)


def test_report_from_json_reads_paths_not_text(weaving_report, tmp_path):
    text = report_to_json(weaving_report)
    assert report_from_json(text=text).agents
    with pytest.raises(ContractViolationError):
        report_from_json()
    with pytest.raises(ValidationError, match="cannot read"):
        report_from_json(text)  # a str is always a path
    with pytest.raises(ValidationError, match="cannot read"):
        report_from_json(tmp_path / "missing.json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        report_from_json(text="{not json")
    with pytest.raises(ValidationError, match="unsupported schema '1'"):
        report_from_json(text='{"schema_version": "1", "agents": []}')
    with pytest.raises(ValidationError, match="unsupported schema None"):
        report_from_json(text="[]")
    with pytest.raises(ValidationError, match="unsupported schema '2'"):
        report_from_json(text='{"schema_version": "2", "agents": []}')
    with pytest.raises(ValidationError, match="malformed"):
        report_from_json(text='{"schema_version": "3"}')


# fresh policy objects per run, so neither side reuses the other's selections
POLICIES = {
    "alpha_0": lambda: FixedAlpha(0.0),
    "alpha_1e-3": lambda: FixedAlpha(1e-3),  # the augmented [M; alpha*I] branch
    "grid_capped": lambda: GridSearchAlpha(cap=2.0),  # no alpha = 0 meets the cap
    "grid": GridSearchAlpha,
}

track = st.tuples(
    st.integers(0, 30),  # first frame
    st.integers(1, 40),  # frames present; under 3 gives no fit
    st.sampled_from([0.0, 1.0, 2.5, 4.0]),  # speed; equal speeds add no degree
    st.floats(0.0, 60.0),  # start x
    # road: agents meet only on the same road, so a lone agent's degree
    # stays constant, and a pair on a remote road gives constant non-zero
    # runs and single steps in the degree
    st.integers(0, 3),
)


def table_from_tracks(tracks, frame_rate_hz):
    frames = {}
    for n, (first, length, speed, x0, road) in enumerate(tracks):
        y = 1000.0 * road + 0.37 * n  # distinct lanes: no coincident agents
        for k in range(first, first + length):
            x = x0 + speed * (k - first) / frame_rate_hz
            frames.setdefault(k, []).append(
                make_frame(f"a{n}", x, y, speed, 0.0, t=k / frame_rate_hz)
            )
    return records_table(frames, frame_rate_hz)


@settings(max_examples=60, deadline=None)
@given(
    tracks=st.lists(track, min_size=1, max_size=6),
    frame_rate_hz=st.sampled_from([1.0, 2.0, 10.0]),
    window_s=st.sampled_from([1.0, 2.5, 5.0]),
    stride_s=st.sampled_from([None, 0.5, 1.5]),
    policy=st.sampled_from(sorted(POLICIES)),
)
def test_analyze_table_matches_per_window_oracle_byte_for_byte(
    tracks, frame_rate_hz, window_s, stride_s, policy
):
    table = table_from_tracks(tracks, frame_rate_hz)

    def params():
        return AnalysisParams(mu=25.0, window_s=window_s, stride_s=stride_s,
                              thresholds=THRESHOLDS, alpha_policy=POLICIES[policy]())

    expected = report_to_json(per_window_analyze(table, params()))
    report = analyze_table(table, params())
    assert report_to_json(report) == expected
    if policy in ("alpha_1e-3", "grid_capped"):
        assert all(w.alpha > 0 for a in report.agents for w in a.windows)


def test_constant_degree_windows_match_oracle_exactly():
    # a0 passes the parked a1 in frame 0, so its degree is 1.0 from then
    # on: every degree SLE is rounding noise of the fit, and t_sle its argmax
    tracks = [(0, 80, 4.0, 0.0, 0), (0, 80, 0.0, 3.0, 0)]
    table = table_from_tracks(tracks, 10.0)
    params = AnalysisParams(mu=25.0, window_s=1.0, stride_s=0.5, thresholds=THRESHOLDS)
    report = analyze_table(table, params)
    expected = per_window_analyze(table, params)
    assert report_to_json(report) == report_to_json(expected)
    windows = report.agent("a0").windows
    noise = sle_summaries(
        [w.degree for w in windows], [w.window for w in windows], 10.0
    ).sle_max.tolist()
    assert noise and all(0.0 < v < 1e-12 for v in noise)


def solved_rows(monkeypatch):
    """Patch ``pipeline.fit_solve`` to log each call's rows as (time grid, sample bits).

    A row's grid is its design's centered times, the first T entries of
    the Vandermonde matrix's t column.
    """
    calls = []

    def counted(designs, rows):
        t_count = rows.shape[1]
        calls.append([(a[:t_count, 1].tobytes(), row.tobytes())
                      for a, row in zip(designs, rows)])
        return fit_solve(designs, rows)

    monkeypatch.setattr(pipeline, "fit_solve", counted)
    return calls


def parked_and_movers():
    # five parked agents, each alone on its own road (degree and closeness
    # 0.0 throughout, entering at two different frames), plus three movers
    # that overtake one another on the main road
    parked = [(first, 60, 0.0, 0.0, road)
              for first, road in ((0, 1), (0, 2), (7, 3), (7, 4), (7, 5))]
    movers = [(0, 60, 4.0, 0.0, 0), (0, 60, 1.0, 8.0, 0), (12, 40, 0.0, 20.0, 0)]
    table = table_from_tracks(parked + movers, 10.0)
    params = AnalysisParams(mu=25.0, window_s=1.0, stride_s=0.5, thresholds=THRESHOLDS)
    return table, params


def test_each_distinct_window_fit_is_solved_once(monkeypatch):
    table, params = parked_and_movers()
    expected = report_to_json(per_window_analyze(table, params))

    # what the per-window fits solve, by centered time grid: rows with equal
    # sample bits on one grid are one distinct row, whatever their mean time
    series = compute_series(table, params.mu, capacity=params.capacity)
    lo, hi = table.span()
    distinct, shapes, windows = defaultdict(set), set(), 0
    for f0, clo, deg in series.values():
        for w0, w1 in frame_windows(lo, hi, 10, 5):
            first, last = max(w0, f0), min(w1, f0 + len(deg) - 1)
            if last - first + 1 < 3:
                continue
            t = np.arange(first, last + 1) / 10.0
            tc = t - t.mean()
            shapes.add(fit_design(tc, params.alpha_policy)[2].shape)
            for s in (clo, deg):
                windows += 1
                distinct[tc.tobytes()].add(s[first - f0:last - f0 + 1].tobytes())

    calls = solved_rows(monkeypatch)
    report = analyze_table(table, params)
    assert report_to_json(report) == expected
    solved = defaultdict(list)
    for grid, samples in (row for call in calls for row in call):
        solved[grid].append(samples)
    assert {grid: sorted(rows) for grid, rows in solved.items()} == {
        grid: sorted(rows) for grid, rows in distinct.items()}
    # one call per design shape at the default block sizes
    assert len(calls) == len(shapes) and sum(map(len, calls)) < windows / 2


def test_solve_blocks_split_a_grid_without_changing_a_bit(monkeypatch):
    table, params = parked_and_movers()
    expected = report_to_json(analyze_table(table, params))
    calls, gufunc = [], regression._umath_linalg
    names = [name for name in ("lstsq", "lstsq_m", "lstsq_n") if hasattr(gufunc, name)]

    def logged(name):
        def call(a, b, *args, **kwargs):
            calls.append(a.shape)
            return getattr(gufunc, name)(a, b, *args, **kwargs)
        return call

    monkeypatch.setattr(regression, "_umath_linalg",
                        SimpleNamespace(**{name: logged(name) for name in names}))
    monkeypatch.setattr(regression, "_SOLVE_ROWS", 3)
    assert report_to_json(analyze_table(table, params)) == expected
    # every gufunc call solves at most 3 systems of one shape, and some
    # fit_solve call of one shape needs several gufunc calls
    assert calls and all(1 <= shape[0] <= 3 for shape in calls)
    assert sum(shape[0] == 3 for shape in calls) > 2
    # windows cut into blocks of 4: rows shared across blocks are solved
    # again, and no bit changes
    monkeypatch.setattr(pipeline, "_BLOCK_WINDOWS", 4)
    assert report_to_json(analyze_table(table, params)) == expected


@settings(max_examples=100, deadline=None)
@given(
    firsts=st.lists(st.integers(0, 2**40), min_size=1, max_size=6),
    count=st.integers(3, 300) | st.sampled_from([8192, 8193, 10_000]),
    rate=st.sampled_from([1.0, 3.0, 10.0, 29.97, 1e4]) | st.floats(0.01, 1e5),
)
def test_row_mean_times_equal_per_slice_mean_bit_for_bit(firsts, count, rate):
    t_bar, tc, t0, t1 = pipeline.slice_times(np.array(firsts), count, rate)
    for r, first in enumerate(firsts):
        t = np.arange(first, first + count) / rate
        mean = float(t.mean())
        assert (t_bar[r], t0[r], t1[r]) == (mean, float(t[0]), float(t[-1]))
        assert tc[r].tobytes() == (t - mean).tobytes()


def test_run_mixing_alpha_0_and_alpha_above_0_designs_matches_oracle():
    # capped at 1000, 10 Hz grids of 7 or more samples fit at alpha = 0 and
    # shorter ones need alpha > 0; 5 samples at alpha > 0 and 8 at alpha = 0
    # make systems of 8 rows each
    tracks = [(0, 60, 4.0, 0.0, 0), (3, 50, 1.0, 8.0, 0), (6, 40, 0.0, 20.0, 0),
              (0, 60, 0.0, 0.0, 1), (2, 21, 0.0, 0.0, 2)]
    table = table_from_tracks(tracks, 10.0)
    params = AnalysisParams(mu=25.0, window_s=1.0, stride_s=0.5, thresholds=THRESHOLDS,
                            alpha_policy=GridSearchAlpha(cap=1000.0))
    report = analyze_table(table, params)
    assert report_to_json(report) == report_to_json(per_window_analyze(table, params))
    kinds = {(round((w.window[1] - w.window[0]) * 10) + 1, w.alpha > 0)
             for a in report.agents for w in a.windows}
    assert {(5, True), (8, False), (11, False)} <= kinds


def test_gap_in_an_agents_frames_is_a_contract_violation():
    table = table_from_tracks([(0, 12, 1.0, 0.0, 0), (0, 12, 0.0, 5.0, 1)], 1.0)
    frames = records(table)
    for k in (5, 6):
        frames[k] = [fr for fr in frames[k] if fr.agent_id != "a0"]
    with pytest.raises(ContractViolationError, match="'a0' has a gap"):
        analyze_table(
            records_table(frames), AnalysisParams(mu=25.0, thresholds=THRESHOLDS)
        )


def test_sparse_span_matches_oracle():
    # two groups 20,000 frames apart: nothing is analysed in between
    tracks = [(0, 30, 4.0, 0.0, 0), (0, 30, 1.0, 6.0, 0), (0, 30, 0.0, 0.0, 1),
              (20_000, 25, 2.5, 0.0, 0), (20_003, 20, 0.0, 9.0, 0)]
    table = table_from_tracks(tracks, 2.0)
    params = AnalysisParams(mu=25.0, window_s=5.0, thresholds=THRESHOLDS)
    report = analyze_table(table, params)
    assert report_to_json(report) == report_to_json(per_window_analyze(table, params))
    assert all(a.windows for a in report.agents)


def test_analysis_memory_follows_rows_not_frame_span():
    # 60 rows over 2e6 frames at 10 Hz: the run spans about 400,000 window
    # positions, and only the 12 that meet an agent may cost anything
    table = table_from_tracks([(0, 30, 4.0, 0.0, 0), (2_000_000, 30, 2.0, 0.0, 0)], 10.0)
    params = AnalysisParams(mu=25.0, window_s=1.0, stride_s=0.5, thresholds=THRESHOLDS)
    tracemalloc.start()
    try:
        report = analyze_table(table, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert report_to_json(report) == report_to_json(per_window_analyze(table, params))
    assert [len(a.windows) for a in report.agents] == [6, 6]


def test_rank_deficient_alpha_0_design_raises():
    # at 10 kHz three samples span 0.2 ms: the centered Gram matrix is singular
    table = make_table({"a": [(0.1 * k, 0.0, 1.0, 0.0) for k in range(10)]},
                       frame_rate_hz=1e4)
    params = AnalysisParams(window_s=2e-4, alpha_policy=FixedAlpha(0.0),
                            thresholds=THRESHOLDS)
    with pytest.raises(ConditioningError):
        analyze_table(table, params)
    with pytest.raises(ConditioningError):
        per_window_analyze(table, params)


def _tracer():
    """perfbench/tracer.py, which times layers by wrapping module attributes."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_name_resolves():
    for module_name, attr, *_ in _tracer().TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), attr


def _simulated_table():
    from drivestyle.scenarios import lane_change_scenario
    from drivestyle.sim import run_scenario

    return run_scenario(lane_change_scenario(0)).table


def _parsed_table():
    # agents that come and go: frames of one, two and three rows
    rows = [
        f"{k / 10!r},{agent},car,{3.0 * k!r},{y!r}"
        for agent, y, frames in (("b", 0.0, range(6)), ("a", 4.0, range(3, 9)),
                                 ("c", 8.0, range(4, 5)))
        for k in frames
    ]
    text = "\n".join(["timestamp,agent_id,agent_type,x,y", *rows])
    return parse_trajectories(text=text, frame_rate_hz=10.0)


@pytest.mark.parametrize("build", [_simulated_table, _parsed_table])
def test_frames_index_is_each_frames_row_range(build):
    # the tracer counts a table's rows through table.frames
    table = build()
    frames = table.frames
    assert list(frames) == sorted(set(table.frame.tolist()))
    assert sum(len(rows) for rows in frames.values()) == len(table.frame)
    for frame, rows in frames.items():
        assert rows and (table.frame[rows.start:rows.stop] == frame).all()
    assert _tracer()._rows(table) == len(table.frame)
