import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drivestyle.errors import ValidationError
from drivestyle.regression import CentralityPolynomial, FixedAlpha, fit_samples
from drivestyle.styles import (
    STYLE_CONSERVATIVE,
    STYLE_OVERSPEEDING,
    STYLE_OVERTAKE_LANE_CHANGE,
    STYLE_WEAVING,
    SleArrays,
    SleSummary,
    Thresholds,
    WindowFits,
    classify,
    critical_points,
    detect_weaving,
    label,
    score_agents,
    sle_sie,
    sle_summaries,
    style_reports,
)
from oracles import (
    WindowAnalysis,
    merge_critical_points,
    sample_sle_sie,
    sampled_sle,
    scalar_classify,
    scalar_detect_weaving,
)

THRESHOLDS = Thresholds(tau_degree=0.5, tau_closeness=0.02, weaving_min_sharpness=0.01)


def poly(b0, b1, b2):
    return CentralityPolynomial(coefficients=(b0, b1, b2), domain=(0.0, 2.0))


def test_constant_polynomial_zero_sle_sie():
    p = poly(5.0, 0.0, 0.0)
    _, sle, sie = sample_sle_sie(p, (0, 2), 1.0)
    assert not sle.any() and not sie.any()
    assert sle_sie(p, (0, 2), 1.0).sle_max == 0.0


def test_linear_polynomial_ties_break_earliest():
    s = sle_sie(poly(0.0, 3.0, 0.0), (0, 2), 1.0)
    assert s.sle_max == 3.0
    assert s.t_sle == 0.0
    assert s.sie_max == 0.0


def test_quadratic_polynomial_endpoint_max():
    p = poly(0.0, 0.0, 1.0)
    s = sle_sie(p, (0, 2), 1.0)
    assert s.sle_max == 4.0
    assert s.t_sle == 2.0
    assert (sample_sle_sie(p, (0, 2), 1.0)[2] == 2.0).all()


@pytest.mark.parametrize(
    "coefficients", [(0.0, 3.0, 0.0), (0.0, 0.0, 1.0), (1.0, 2.0, -1.5), (5.0, 0.0, 0.0)]
)
def test_derived_sle_curve_peaks_at_t_sle(coefficients):
    s = sle_sie(poly(*coefficients), (0, 8), 4.0)
    times, sle, sie = sample_sle_sie(poly(*coefficients), (0, 8), 4.0)
    assert len(times) == len(sle) == len(sie) == 9
    assert sle.max() == s.sle_max
    assert times[sle == s.sle_max][0] == s.t_sle
    assert sie.max() == s.sie_max


def summary_tuple(s):
    return (s.sle_max, s.t_sle, s.sie_max)


def summary_rows(arrays):
    """``sle_summaries``' arrays as one (sle_max, t_sle, sie_max) tuple per row."""
    return list(zip(*(a.tolist() for a in arrays)))


coefficient = st.floats(-50, 50, allow_nan=False)


def sle_row(kind, b0, x, y, k, n, f):
    """(polynomial, frame range) of one row; see the test below for the kinds."""
    if kind == "near_linear":
        b1, b2 = x, x * y * 1e-18
    elif kind == "symmetric":
        b2 = float(round(y))
        b1 = -2.0 * b2 * ((2 * k + n) / (2.0 * f))  # vertex at the window centre
    else:
        b1, b2 = x, y
    return poly(b0, b1, b2), (k, k + n)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(["general", "near_linear", "symmetric"]),
                  coefficient, coefficient, coefficient,
                  st.integers(-3000, 3000), st.integers(0, 60)),
        min_size=1, max_size=8,
    ),
    f=st.sampled_from([1.0, 2.0, 4.0, 10.0, 25.0, 30.0]),
)
def test_batched_rows_equal_one_window_sampling(rows, f):
    # the closed form against the per-frame oracle, on unequal frame ranges.
    # Near-linear rows (|b2| ~ 1e-18 |b1|) move d(k) = b1 + 2 b2 k / f by a
    # few ulps across the window, so the right end often wins on a rounding
    # plateau that starts before it; symmetric rows tie |d| at both ends
    # exactly at 1, 2 and 4 Hz, where the earlier end must win
    pairs = [sle_row(*row, f) for row in rows]
    polys = [p for p, _ in pairs]
    frames = [k for _, k in pairs]
    coefficients = [p.coefficients for p in polys]
    for s, (p, k) in zip(summary_rows(sle_summaries(coefficients, frames, f)), pairs):
        assert s == summary_tuple(sle_sie(p, k, f)) == (
            summary_tuple(sampled_sle(p, k, f))
        )


def test_unequal_windows_in_one_batch_and_earliest_tie_wins():
    # the rising row spans 21 samples, the flat and linear rows 4; the V
    # row's |d| ties at its two ends, where the earlier one wins; the
    # plateau row's d(k) = 1 + 2e-17 k / 10 rounds to 1.0 below t = 5.6
    # and to 1 + 2**-52 from there to t = 10, so its right end wins and
    # t_sle is the plateau's first sample
    polys = [poly(0.0, 1.0, 0.5), poly(7.0, 0.0, 0.0), poly(0.0, -2.0, 0.0),
             poly(0.0, -2.0, 0.5), poly(0.0, 1.0, 1e-17)]
    frames = [(0, 20), (5, 8), (10, 13), (10, 30), (0, 100)]
    summaries = summary_rows(sle_summaries([p.coefficients for p in polys], frames, 10.0))
    rising, flat, linear, vee, plateau = summaries
    assert flat == (0.0, 0.5, 0.0)
    assert linear[:2] == (2.0, 1.0)
    assert rising[:2] == (3.0, 2.0)
    assert vee == (1.0, 1.0, 1.0)
    assert plateau[:2] == (1.0 + 2.0**-52, 5.6)
    for (sle_max, t_sle, _), p, (k0, k1) in zip(summaries, polys, frames):
        times, sle, _ = sample_sle_sie(p, (k0, k1), 10.0)
        assert (times[0], times[-1]) == (k0 / 10.0, k1 / 10.0)
        assert sle.max() == sle_max
        assert times[sle == sle_max][0] == t_sle


def test_batched_sampling_rejects_windows_without_samples():
    rows = [(0.0, 1.0, 0.0)] * 2
    with pytest.raises(ValidationError, match=r"empty frame range \(20, 10\)"):
        sle_summaries(rows, [(0, 10), (20, 10)], 10.0)
    # a window in seconds is not a frame range
    with pytest.raises(TypeError, match="safe"):
        sle_summaries(rows, [(0.0, 1.0), (0.01, 0.09)], 10.0)
    for rate in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="frame_rate_hz"):
            sle_sie(poly(*rows[0]), (0, 10), rate)


def test_weaving_vertex_and_sharpness():
    points = detect_weaving((0.0, 0.0, 1.0), (-1.0, 1.0), 0.1)
    assert len(points) == 1
    t_c, sharpness = points[0]
    assert t_c == 0.0
    assert sharpness == pytest.approx(0.2)


def test_weaving_flat_polynomial_excluded():
    for eps in (0.1, 0.5, 2.0):
        assert detect_weaving((7.0, 0.0, 0.0), (0.0, 2.0), eps) == []


def test_weaving_linear_no_zero():
    assert detect_weaving((0.0, 1.0, 0.0), (0.0, 2.0), 0.5) == []


def test_weaving_vertex_must_be_strictly_inside():
    p = (0.0, -4.0, 1.0)  # vertex at t = 2
    assert detect_weaving(p, (0.0, 2.0), 0.5) == []
    assert detect_weaving(p, (0.0, 2.5), 0.5) != []


def test_weaving_epsilon_validation():
    with pytest.raises(ValidationError):
        detect_weaving((0, 0, 1), (0.0, 2.0), 0.0)


@given(
    b0=st.floats(-5, 5),
    b1=st.floats(-5, 5, allow_nan=False),
    b2=st.floats(-5, 5, allow_nan=False),
    w0=st.floats(-3, 3),
    width=st.floats(0.1, 4.0),
)
@settings(max_examples=150, deadline=None)
def test_weaving_empty_iff_no_interior_sign_change(b0, b1, b2, w0, width):
    window = (w0, w0 + width)
    g0 = b1 + 2.0 * b2 * window[0]
    g1 = b1 + 2.0 * b2 * window[1]
    assume(abs(g0) > 1e-9 and abs(g1) > 1e-9)  # keep the vertex off the boundary
    detected = detect_weaving((b0, b1, b2), window, 0.25)
    crosses_inside = g0 * g1 < 0.0
    assert bool(detected) == crosses_inside


def test_merge_critical_points_clusters_and_picks_sharpest():
    points = [(1.0, 0.2), (1.2, 0.5), (3.0, 0.1), (3.1, 0.1)]
    merged = merge_critical_points(points, tolerance=0.5)
    assert merged == [(1.2, 0.5), (3.0, 0.1)]
    assert merge_critical_points([], 0.5) == []


def _bits(points):
    """The float64 bit patterns of (t_c, sharpness) pairs: -0.0 is not 0.0."""
    return np.array(points, dtype=float).reshape(-1, 2).view(np.int64).tolist()


# critical points on a 1/8 s grid, so gaps of exactly epsilon and chains of
# points each within epsilon of the previous one are common, plus tied t_c
# (both zeros among them) and a few sharpness values so ties meet
point = st.tuples(
    st.integers(0, 24).map(lambda k: k * 0.125) | st.just(-0.0)
    | st.floats(0.0, 3.0, allow_nan=False),
    st.sampled_from([0.0, 0.01, 0.5]) | st.floats(0.0, 1.0, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(agents=st.lists(st.lists(point, max_size=8), min_size=1, max_size=5),
       epsilon=st.sampled_from([0.125, 0.25, 0.5]))
def test_array_merge_equals_scalar_merge(agents, epsilon):
    # one window per point, in drawing order; the window scores do not matter
    counts = [len(points) for points in agents]
    flat = [p for points in agents for p in points]
    zeros = SleArrays(*(np.zeros(len(flat)) for _ in range(3)))
    scores = score_agents(
        counts, [(0.0, 3.0)] * len(flat), zeros, zeros,
        np.array([p[0] for p in flat], dtype=float),
        np.array([p[1] for p in flat], dtype=float),
        epsilon,
    )
    for n, points in enumerate(agents):
        mine = scores.owner == n
        assert _bits(list(zip(scores.t_c[mine], scores.sharpness[mine]))) == _bits(
            merge_critical_points(points, epsilon))
    assert (np.diff(scores.owner) >= 0).all()


def _window(deg_poly, clo_poly, frames, f=1.0, epsilon=0.5):
    """(frame range, degree, closeness, weaving point or NaNs) of one window at ``f`` Hz."""
    closeness = clo_poly.coefficients
    span = (frames[0] / f, frames[1] / f)
    (point,) = detect_weaving(closeness, span, epsilon) or [(math.nan, math.nan)]
    return frames, deg_poly.coefficients, closeness, point


def _fits(windows):
    """One agent's ``WindowFits`` columns from ``_window`` rows."""
    n = len(windows)
    frames = np.array([w[0] for w in windows], dtype=np.int64).reshape(n, 2)
    degree, closeness, points = (
        np.array([w[i] for w in windows], dtype=float).reshape(n, width)
        for i, width in ((1, 3), (2, 3), (3, 2)))
    return WindowFits(np.zeros(n, dtype=np.int64), *frames.T, np.zeros(n), np.ones(n),
                      degree, closeness, *points.T)


def _classify(windows, f=1.0):
    """``classify`` of agent "a", reading windows built at ``f`` Hz."""
    return classify("a", _fits(windows), f, THRESHOLDS, epsilon=0.5)


def test_flat_agent_is_conservative():
    w = _window(poly(3.0, 0.0, 0.0), poly(0.4, 0.0, 0.0), (0, 2))
    report = _classify([w])
    assert report.global_label == "conservative"
    assert report.styles[STYLE_CONSERVATIVE].detected
    assert report.styles[STYLE_OVERSPEEDING].sle_max == 0.0
    assert report.styles[STYLE_OVERTAKE_LANE_CHANGE].sle_max == 0.0
    assert report.styles[STYLE_WEAVING].count == 0


def test_steep_degree_flags_overspeeding():
    w = _window(poly(0.0, 2.0, 0.0), poly(0.4, 0.0, 0.0), (0, 2))
    report = _classify([w])
    assert report.styles[STYLE_OVERSPEEDING].detected
    assert report.global_label == "aggressive"
    assert not report.styles[STYLE_CONSERVATIVE].detected


def test_weaving_counts_only_sharp_points():
    sharp = poly(0.0, -1.0, 0.5)  # vertex at t=1, sharpness 0.5 at eps=0.5
    report = _classify([_window(poly(0.0, 0.0, 0.0), sharp, (0, 2))])
    assert report.styles[STYLE_WEAVING].count == 1
    assert report.styles[STYLE_WEAVING].t_sle == pytest.approx(1.0)

    dull = poly(0.0, -0.002, 0.001)  # same vertex, sharpness 0.001 < floor
    report = _classify([_window(poly(0.0, 0.0, 0.0), dull, (0, 2))])
    assert report.styles[STYLE_WEAVING].count == 0
    assert report.styles[STYLE_WEAVING].t_sle is None


def test_global_argmax_picks_strongest_window():
    w1 = _window(poly(0.0, 1.0, 0.0), poly(0.0, 0.0, 0.0), (0, 2))
    w2 = _window(poly(0.0, 4.0, 0.0), poly(0.0, 0.0, 0.0), (2, 4))
    report = _classify([w1, w2])
    over = report.styles[STYLE_OVERSPEEDING]
    assert over.sle_max == 4.0
    assert over.t_sle == 2.0  # earliest sample of the winning window


def test_weaving_time_is_center_of_critical_span():
    w1 = _window(poly(0, 0, 0), poly(0.0, -2.0, 1.0), (0, 2))   # vertex 1.0
    w2 = _window(poly(0, 0, 0), poly(0.0, -6.0, 1.0), (2, 4))   # vertex 3.0
    w3 = _window(poly(0, 0, 0), poly(0.0, -11.0, 1.0), (4, 6))  # vertex 5.5
    report = _classify([w1, w2, w3])
    weaving = report.styles[STYLE_WEAVING]
    assert weaving.count == 3
    assert weaving.t_sle == pytest.approx((1.0 + 5.5) / 2.0)


def test_scaling_leaves_argmax_fixed():
    rng = np.random.default_rng(8)
    t = np.linspace(0.0, 3.0, 16)
    z = 0.2 + 0.05 * t + 0.4 * t * t + rng.normal(0, 0.01, t.size)
    base = fit_samples(t, z, FixedAlpha(0.0))
    scaled = fit_samples(t, 7.5 * z, FixedAlpha(0.0))
    s_base = sle_sie(base, (0, 15), 5.0)
    s_scaled = sle_sie(scaled, (0, 15), 5.0)
    assert s_scaled.t_sle == s_base.t_sle
    assert s_scaled.sle_max == pytest.approx(7.5 * s_base.sle_max, rel=1e-9)
    assert s_scaled.sie_max == pytest.approx(7.5 * s_base.sie_max, rel=1e-9)


def test_threshold_validation():
    with pytest.raises(ValidationError):
        Thresholds(tau_degree=0.0, tau_closeness=1.0)
    with pytest.raises(ValidationError):
        Thresholds(tau_degree=1.0, tau_closeness=-0.1)
    with pytest.raises(ValidationError):
        Thresholds(tau_degree=1.0, tau_closeness=1.0, weaving_min_sharpness=-1.0)


def test_classify_with_no_windows_is_conservative():
    report = classify("ghost", _fits([]), 1.0, THRESHOLDS, epsilon=0.5)
    assert report.global_label == "conservative"
    assert report.styles[STYLE_OVERSPEEDING].t_sle is None


def test_faster_neighbor_accumulation_dominates():
    # an agent collecting slower neighbors at twice the rate never scores
    # a lower overspeeding likelihood
    t = np.linspace(0.0, 4.0, 20)
    slow = fit_samples(t, 1.0 * t, FixedAlpha(0.0))
    fast = fit_samples(t, 2.0 * t, FixedAlpha(0.0))
    s_slow = sle_sie(slow, (0, 20), 5.0)
    s_fast = sle_sie(fast, (0, 20), 5.0)
    assert s_fast.sle_max >= s_slow.sle_max


# weaving rows: b2 of either zero sign, tiny or ordinary; a window edge on
# the vertex; and a flat row, whose sharpness 2 |b2| eps equals the
# rounding residue |b1 + 2 b2 t_c| at its vertex
FLAT = ((0.0, -3.31405702961694, 5.847850858517242), (0.0, 1.0), 3.79702920435512e-17)
weaving_row = st.tuples(
    st.floats(-5, 5, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-300, -2.5e-310]) | st.floats(-5, 5, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
    st.floats(0.0, 4.0, allow_nan=False),
    st.sampled_from(["free", "left_edge", "right_edge"]),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(weaving_row, min_size=1, max_size=8),
       epsilon=st.sampled_from([0.25, 0.5, FLAT[2]]))
def test_array_weaving_equals_scalar_oracle(rows, epsilon):
    closeness, windows = [FLAT[0]], [FLAT[1]]
    for b1, b2, w0, width, edge in rows:
        if edge != "free" and b2 != 0.0:
            t_c = -b1 / (2.0 * b2)
            w0 = t_c if edge == "left_edge" else t_c - width
        closeness.append((0.0, b1, b2))
        windows.append((w0, w0 + width))
    expected = [(r, p) for r, (c, w) in enumerate(zip(closeness, windows))
                for p in scalar_detect_weaving(c, w, epsilon)]
    t_c, sharpness = critical_points(closeness, windows, epsilon)
    rows = np.flatnonzero(~np.isnan(t_c))
    assert np.isnan(sharpness).tolist() == np.isnan(t_c).tolist()
    assert list(zip(rows.tolist(), zip(t_c[rows].tolist(), sharpness[rows].tolist()))) == expected
    assert [detect_weaving(c, w, epsilon) for c, w in zip(closeness, windows)] == [
        scalar_detect_weaving(c, w, epsilon) for c, w in zip(closeness, windows)]


def test_flat_row_is_dropped_only_at_its_own_epsilon():
    closeness, window, epsilon = FLAT
    assert scalar_detect_weaving(closeness, window, epsilon) == []
    assert detect_weaving(closeness, window, epsilon) == []
    assert detect_weaving(closeness, window, 2 * epsilon) != []


# one agent's windows: SLE maxima from a small set, so equal maxima meet
# with t_sle out of order; spans and weaving points as drawn
window_rows = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1.0, 2.5]), st.sampled_from([3.0, 0.5, 1.5]),
        st.sampled_from([0.0, 1.0, 2.5]), st.sampled_from([2.0, 0.0, 1.0]),
        st.floats(0.0, 3.0, allow_nan=False),
        st.floats(0.0, 10.0, allow_nan=False), st.floats(0.1, 3.0, allow_nan=False),
        st.lists(st.tuples(st.floats(0.0, 12.0, allow_nan=False),
                           st.sampled_from([0.005, 0.01, 0.5])), max_size=1),
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(agents=st.lists(window_rows, min_size=1, max_size=5))
def test_per_agent_aggregate_equals_scalar_rule(agents):
    windows, spans, sle, expected = [], [], ([], []), []
    for n, rows in enumerate(agents):
        mine = []
        for d_max, d_t, c_max, c_t, sie, w0, width, points in rows:
            span = (w0, w0 + width)
            mine.append(WindowAnalysis(span, 0.0, 1.0, (0.0,) * 3, (0.0,) * 3, points))
            sle[0].append(SleSummary(d_max, d_t, sie))
            sle[1].append(SleSummary(c_max, c_t, 2.0 * sie))
            spans.append(span)
        k = len(windows)
        expected.append(replace(
            scalar_classify(f"a{n}", mine, sle[0][k:], sle[1][k:], THRESHOLDS, 0.5),
            windows=range(k, k + len(mine))))
        windows += mine
    # at most one point per window: NaN-marked columns
    points = [(w.weaving_points or [(math.nan, math.nan)])[0] for w in windows]
    t_c, sharpness = np.array(points, dtype=float).reshape(-1, 2).T
    scores = score_agents(
        [len(rows) for rows in agents], spans,
        *(SleArrays(*(np.array([getattr(s, name) for s in rows], dtype=float)
                      for name in SleArrays._fields)) for rows in sle),
        t_c, sharpness, 0.5,
    )
    reports = style_reports([f"a{n}" for n in range(len(agents))], scores,
                            label(scores, THRESHOLDS))
    assert reports == expected
