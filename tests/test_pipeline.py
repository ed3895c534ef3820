import importlib.util
import json
import math
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_frame, make_table
from drivestyle.centrality import compute_series
from drivestyle import ingest, pipeline
from drivestyle.errors import ConditioningError, ContractViolationError, ValidationError
from drivestyle.ingest import parse_trajectories
from drivestyle.pipeline import (
    AnalysisParams,
    analyze_table,
    frame_windows,
    report_from_json,
    report_to_json,
    windows_to_csv,
)
from drivestyle import regression
from drivestyle.regression import FixedAlpha, GridSearchAlpha, fit_solve
from drivestyle.styles import (
    STYLE_CONSERVATIVE,
    STYLE_OVERSPEEDING,
    STYLE_WEAVING,
    Thresholds,
    WindowFits,
    classify,
    label,
    sle_summaries,
    style_reports,
)

from oracles import by_agent, per_window_analyze, records, records_table, scalar_windows_csv

THRESHOLDS = Thresholds(tau_degree=0.5, tau_closeness=0.02,
                        weaving_min_sharpness=0.001)


def assert_equals_oracle(report, expected):
    """``report`` writes what the per-window oracle's ``expected`` does, byte for byte.

    The summaries as ``report.json`` text and every window fit as
    ``windows.csv`` text, against the oracle's one-``repr``-per-value writer.
    """
    assert report_to_json(report) == report_to_json(expected)
    assert windows_to_csv(report) == scalar_windows_csv(expected)


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
    assert agent.windows == range(1)
    assert (report.fits.first_frame.tolist(), report.fits.last_frame.tolist()) == ([0], [9])


def test_short_presence_skipped():
    tracks = {
        "long": [(k, 0.0, 1.0, 0.0) for k in range(10)],
        "blip": [(50.0, 3.0, 1.0, 0.0)],
    }
    table = make_table(tracks)  # blip is present at frame 0 only
    report = analyze_table(table, AnalysisParams(window_s=3.0, thresholds=THRESHOLDS))
    blip = report.agent("blip")
    assert len(blip.windows) == 0  # nothing fittable
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
    from drivestyle.scenarios import suite_analysis_params

    return analyze_table(weaving_report_table(), suite_analysis_params())


def weaving_report_table():
    from drivestyle.scenarios import weaving_scenario
    from drivestyle.sim import run_scenario

    return run_scenario(weaving_scenario(0)).table


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
        assert back.windows == range(0)  # the window fits go to windows.csv
    assert windows_to_csv(weaving_report) == scalar_windows_csv(
        per_window_analyze(weaving_report_table(), weaving_report.params))


@pytest.mark.parametrize("chunk_lines", [3, ingest._CHUNK_LINES])
def test_windows_csv_written_to_a_path_is_the_text_it_returns(
    weaving_report, chunk_lines, tmp_path, monkeypatch
):
    # at 3 rows a chunk the weaving run's fits span many chunks; a run of
    # two frames has no window and writes the header alone
    monkeypatch.setattr(ingest, "_CHUNK_LINES", chunk_lines)
    two_frames = make_table({"a": [(0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 1.0, 0.0)]})
    empty = analyze_table(two_frames, AnalysisParams(thresholds=THRESHOLDS))
    path = tmp_path / "windows.csv"
    for report in (weaving_report, empty):
        text = windows_to_csv(report)
        assert windows_to_csv(report, path) == ""
        assert path.read_bytes() == text.encode()
    assert len(weaving_report.fits.agent) > 6  # several chunks of 3 rows
    assert text == ",".join(pipeline.WINDOW_COLUMNS) + "\n"
    for bad in (tmp_path, tmp_path / "missing" / "windows.csv"):
        with pytest.raises(ValidationError, match=r"^cannot write windows ") as exc:
            windows_to_csv(weaving_report, bad)
        assert repr(str(bad)) in str(exc.value) and "\n" not in str(exc.value)


def test_report_file_is_v4_summaries_only(weaving_report, tmp_path):
    path = tmp_path / "report.json"
    report_to_json(weaving_report, path)
    text = path.read_text()
    payload = json.loads(text)
    assert payload["schema_version"] == "4"
    assert "sle_curve" not in text and "sie_curve" not in text
    assert '"domain"' not in text
    assert '"window_fields"' not in text and '"windows"' not in text
    assert set(payload) == {"schema_version", "frame_rate_hz", "params", "agents"}
    assert all(set(a) == {"agent_id", "window", "global_label", "styles"}
               for a in payload["agents"])


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
    with pytest.raises(ValidationError, match="unsupported schema '3'"):
        report_from_json(text='{"schema_version": "3", "window_fields": [], "agents": []}')
    with pytest.raises(ValidationError, match="malformed"):
        report_from_json(text='{"schema_version": "4"}')


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

    expected = per_window_analyze(table, params())
    report = analyze_table(table, params())
    assert_equals_oracle(report, expected)
    if policy in ("alpha_1e-3", "grid_capped"):
        assert (report.fits.alpha > 0).all()


def test_constant_degree_windows_match_oracle_exactly():
    # a0 passes the parked a1 in frame 0, so its degree is 1.0 from then
    # on: every degree SLE is rounding noise of the fit, and t_sle its argmax
    tracks = [(0, 80, 4.0, 0.0, 0), (0, 80, 0.0, 3.0, 0)]
    table = table_from_tracks(tracks, 10.0)
    params = AnalysisParams(mu=25.0, window_s=1.0, stride_s=0.5, thresholds=THRESHOLDS)
    report = analyze_table(table, params)
    assert_equals_oracle(report, per_window_analyze(table, params))
    rows = report.agent("a0").windows
    fits = report.fits
    frames = np.column_stack([fits.first_frame, fits.last_frame])[rows]
    noise = sle_summaries(fits.degree[rows], frames, 10.0).sle_max.tolist()
    assert noise and all(0.0 < v < 1e-12 for v in noise)


def solved_rows(monkeypatch):
    """Patch ``pipeline.fit_solve`` to log each call's rows as (time grid, sample bits).

    A row's grid is its design's centered times, the t column of its
    Vandermonde matrix.
    """
    calls = []

    def counted(m, alpha, rows):
        calls.append([(design[:, 1].tobytes(), row.tobytes()) for design, row in zip(m, rows)])
        return fit_solve(m, alpha, rows)

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
    expected = per_window_analyze(table, params)

    # what the per-window fits solve, by centered time grid: rows with equal
    # sample bits on one grid are one distinct row, whatever their mean time
    series = compute_series(table, params.mu, capacity=params.capacity)
    lo, hi = table.span()
    distinct, counts, windows = defaultdict(set), set(), 0
    for f0, clo, deg in by_agent(series).values():
        for w0, w1 in frame_windows(lo, hi, 10, 5):
            first, last = max(w0, f0), min(w1, f0 + len(deg) - 1)
            if last - first + 1 < 3:
                continue
            t = np.arange(first, last + 1) / 10.0
            tc = t - t.mean()
            counts.add(len(tc))
            for s in (clo, deg):
                windows += 1
                distinct[tc.tobytes()].add(s[first - f0:last - f0 + 1].tobytes())

    calls = solved_rows(monkeypatch)
    report = analyze_table(table, params)
    assert_equals_oracle(report, expected)
    solved = defaultdict(list)
    for grid, samples in (row for call in calls for row in call):
        solved[grid].append(samples)
    assert {grid: sorted(rows) for grid, rows in solved.items()} == {
        grid: sorted(rows) for grid, rows in distinct.items()}
    # one call per sample count at the default block sizes
    assert len(calls) == len(counts) and sum(map(len, calls)) < windows / 2


def test_solve_blocks_split_a_grid_without_changing_a_bit(monkeypatch):
    table, params = parked_and_movers()
    report = analyze_table(table, params)
    expected = (report_to_json(report), windows_to_csv(report))
    calls, gufunc = [], regression._umath_linalg
    names = [name for name in ("lstsq", "lstsq_m", "lstsq_n") if hasattr(gufunc, name)]

    def logged(name):
        def call(a, b, *args, **kwargs):
            calls.append(a.shape)
            return getattr(gufunc, name)(a, b, *args, **kwargs)
        return call

    monkeypatch.setattr(regression, "_umath_linalg",
                        SimpleNamespace(**{name: logged(name) for name in names}))
    # windows cut into blocks of 4: each gufunc call solves the degree and
    # closeness rows of one block, at most 8 systems of one shape, some
    # shape takes several calls, rows shared across blocks are solved
    # again, and no bit changes
    monkeypatch.setattr(pipeline, "_BLOCK_WINDOWS", 4)
    report = analyze_table(table, params)
    assert (report_to_json(report), windows_to_csv(report)) == expected
    assert calls and all(1 <= shape[0] <= 8 for shape in calls)
    assert max(Counter(shape[1:] for shape in calls).values()) > 2


@settings(max_examples=100, deadline=None)
@given(
    firsts=st.lists(st.integers(0, 2**40), min_size=1, max_size=6),
    count=st.integers(3, 300) | st.sampled_from([8192, 8193, 10_000]),
    rate=st.sampled_from([1.0, 3.0, 10.0, 29.97, 1e4]) | st.floats(0.01, 1e5),
)
def test_row_mean_times_equal_per_slice_mean_bit_for_bit(firsts, count, rate):
    t_bar, tc = pipeline.slice_times(np.array(firsts), count, rate)
    spans = np.column_stack([firsts, np.array(firsts) + count - 1]) / rate
    for r, first in enumerate(firsts):
        t = np.arange(first, first + count) / rate
        mean = float(t.mean())
        # a window's span in seconds is its frame range over the rate
        assert (t_bar[r], *spans[r]) == (mean, float(t[0]), float(t[-1]))
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
    assert_equals_oracle(report, per_window_analyze(table, params))
    fits = report.fits
    kinds = {(last - first + 1, alpha > 0) for first, last, alpha
             in zip(fits.first_frame.tolist(), fits.last_frame.tolist(), fits.alpha.tolist())}
    assert {(5, True), (8, False), (11, False)} <= kinds


def test_windows_at_large_frame_indices_keep_their_frames():
    # a 25 Hz recording from frame 8.6e8, timestamps mid-frame: there
    # (k / 25) * 25 is not always k, so a window read back from its span in
    # seconds can lose a frame at either end; the SLE samples its own frames
    f, base = 25.0, 860_000_000
    rows = ["timestamp,agent_id,agent_type,x,y"]
    for n in range(12):
        first, speed, y = 7 * n, 4.0 + 3.0 * (n % 4), 3.0 * (n % 3)
        for k in range(first, first + 150 - 5 * n):
            x = 10.0 * n + speed * (k - first) / f + 2.0 * math.sin(0.05 * k + n)
            rows.append(f"{(base + k + 0.5) / f!r},v{n:02d},car,{x!r},{y!r}")
    table = parse_trajectories(text="\n".join(rows) + "\n", frame_rate_hz=f)
    assert table.span() == (base, base + 171)
    params = AnalysisParams(mu=25.0, window_s=1.0, stride_s=0.5, thresholds=THRESHOLDS)
    assert_equals_oracle(analyze_table(table, params), per_window_analyze(table, params))


def assert_classify_equals_analyze(table, params):
    """``classify`` of each agent's own rows of ``report.fits`` is its ``analyze_table`` report."""
    report = analyze_table(table, params)
    for agent in report.agents:
        rows = slice(agent.windows.start, agent.windows.stop)
        fits = WindowFits(*(column[rows] for column in report.fits))
        got = classify(agent.agent_id, fits, table.frame_rate_hz, params.thresholds,
                       params.epsilon_s)
        assert (got.styles, got.window, got.global_label) == \
            (agent.styles, agent.window, agent.global_label), agent.agent_id
    return report


def test_classify_of_a_runs_fits_near_frame_2_52_is_its_report():
    # a0 meets the parked a1 in frame 0, so its degree is 1.0 throughout and
    # its overspeeding SLE is fit noise: a window read back from seconds at
    # 25 Hz there moves that noise's argmax by a frame
    base = 2**52 - 10**6
    table = table_from_tracks([(base, 200, 4.0, 0.0, 0), (base, 200, 0.0, 3.0, 0)], 25.0)
    report = assert_classify_equals_analyze(table, AnalysisParams(mu=25.0, thresholds=THRESHOLDS))
    over = report.agent("a0").styles[STYLE_OVERSPEEDING]
    assert 0.0 < over.sle_max < 1e-12 and over.t_sle * 25.0 > base


@settings(max_examples=60, deadline=None)
@given(tracks=st.lists(track, min_size=1, max_size=4),
       # drawn down from the top, where (k / rate) * rate misses k most
       base=st.integers(0, 2**52 - 10**6).map(lambda k: 2**52 - 10**6 - k),
       frame_rate_hz=st.sampled_from([10.0, 25.0, 30000 / 1001]),
       window_s=st.sampled_from([1.0, 2.5]))
def test_classify_of_an_agents_fits_is_its_report(tracks, base, frame_rate_hz, window_s):
    table = table_from_tracks([(base + first, *rest) for first, *rest in tracks], frame_rate_hz)
    assert_classify_equals_analyze(
        table, AnalysisParams(mu=25.0, window_s=window_s, thresholds=THRESHOLDS))


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
    assert_equals_oracle(report, per_window_analyze(table, params))
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
    assert_equals_oracle(report, per_window_analyze(table, params))
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


@pytest.fixture(scope="module")
def analysed_tables():
    """(table, params, report) of small tables, each analysed once."""
    from drivestyle.scenarios import overtake_scenario, suite_analysis_params, weaving_scenario
    from drivestyle.sim import run_scenario

    runs = [(run_scenario(build(0)).table, suite_analysis_params())
            for build in (weaving_scenario, overtake_scenario)]
    # agent "c" of the parsed table has no window
    runs.append((_parsed_table(), AnalysisParams(window_s=0.3, stride_s=0.1)))
    return [(table, params, analyze_table(table, params)) for table, params in runs]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_label_relabels_without_analysing_again(analysed_tables, data):
    # thresholds from any positive range, or equal to a score of the run,
    # where the strict comparisons decide
    for table, params, report in analysed_tables:
        scores = report.scores
        taus = [st.sampled_from(c.tolist() + [1.0]).filter(lambda v: v > 0)
                | st.floats(1e-6, 10.0) for c in (scores.degree.sle_max, scores.closeness.sle_max)]
        th = Thresholds(
            tau_degree=data.draw(taus[0]), tau_closeness=data.draw(taus[1]),
            weaving_min_sharpness=data.draw(st.sampled_from(scores.sharpness.tolist() + [0.0])
                                            | st.floats(0.0, 1.0)),
        )
        relabelled = style_reports([a.agent_id for a in report.agents], scores,
                                   label(scores, th))
        params_th = replace(params, thresholds=th)
        expected = analyze_table(table, params_th)
        assert relabelled == expected.agents
        assert report_to_json(replace(report, params=params_th, agents=relabelled)) \
            == report_to_json(expected)


def _churn_table():
    # agents enter and leave mid-run on one road, so an agent's first or
    # last frame cuts many of its windows short
    tracks = [(first, length, speed, 6.0 * n, 0) for n, (first, length, speed) in enumerate(
        [(0, 23, 4.0), (3, 31, 1.0), (9, 17, 2.5), (14, 40, 0.0), (20, 7, 4.0), (27, 26, 1.0)])]
    return table_from_tracks(tracks, 10.0)


def _window_fit_runs():
    from drivestyle.scenarios import suite_analysis_params

    return {
        "weaving": (weaving_report_table, suite_analysis_params),
        "parsed": (_parsed_table, lambda: AnalysisParams(window_s=0.3, stride_s=0.1)),
        "churn": (_churn_table, lambda: AnalysisParams(mu=25.0, window_s=1.0, stride_s=0.5,
                                                       thresholds=THRESHOLDS)),
    }


@pytest.mark.parametrize("run", ["weaving", "parsed", "churn"])
def test_windows_csv_fields_read_back_bit_equal_to_the_oracle(run):
    table, params = (build() for build in _window_fit_runs()[run])
    lines = windows_to_csv(analyze_table(table, params)).splitlines()
    expected = [(agent.agent_id, w) for agent in per_window_analyze(table, params).agents
                for w in agent.windows]
    assert lines[0] == ",".join(pipeline.WINDOW_COLUMNS)
    assert len(lines) == 1 + len(expected)
    for line, (agent_id, w) in zip(lines[1:], expected):
        name, *fields = line.split(",")
        assert name == agent_id
        if not w.weaving_points:
            assert fields[-2:] == ["", ""]
            fields = fields[:-2]
        values = (*w.window, w.alpha, w.condition_number, *w.degree, *w.closeness,
                  *(v for point in w.weaving_points for v in point))
        # .hex() tells -0.0 from 0.0
        assert [float(text).hex() for text in fields] == [float(v).hex() for v in values]
    spans = {(w.window[1] - w.window[0]) for _, w in expected}
    if run == "weaving":
        assert any(w.weaving_points for _, w in expected)
    elif run == "parsed":
        assert "c" in table.agent_ids and "c" not in {a for a, _ in expected}
    else:
        assert len({round(10 * s) for s in spans}) > 2  # full and partial windows
        # no fit of these runs is -0.0, so one column is set to it
        report = analyze_table(table, params)
        fits = report.fits._replace(alpha=np.full(len(expected), -0.0))
        lines = windows_to_csv(replace(report, fits=fits)).splitlines()
        assert {line.split(",")[3] for line in lines[1:]} == {"-0.0"}
