"""Style likelihood/intensity estimation and behavior classification.

The likelihood of a style at time t is the absolute first derivative of
the relevant centrality polynomial, its intensity the absolute second
derivative. Overspeeding reads the degree polynomial, overtaking and
sudden lane-changes read the closeness polynomial (one merged style:
the maneuvers are modeled identically), weaving counts sharp critical
points of the closeness polynomial. An agent is conservative when no
aggressive style crosses its threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, require_non_negative, require_positive
from .regression import CentralityPolynomial

Coefficients = tuple[float, float, float]  # (b0, b1, b2) of b0 + b1 t + b2 t^2

STYLE_OVERSPEEDING = "overspeeding"
STYLE_OVERTAKE_LANE_CHANGE = "overtaking_or_sudden_lane_change"
STYLE_WEAVING = "weaving"
STYLE_CONSERVATIVE = "conservative"

LABEL_AGGRESSIVE = "aggressive"
LABEL_CONSERVATIVE = "conservative"

_GRID_GUARD = 1e-9


@dataclass(frozen=True)
class Thresholds:
    """Classification cut-offs, calibrated on conservative-class traffic.

    ``tau_degree`` and ``tau_closeness`` bound the SLE maxima of benign
    driving; ``weaving_min_sharpness`` is the sharpness floor below which
    a closeness critical point is attributed to drift rather than a lane
    oscillation.
    """

    tau_degree: float
    tau_closeness: float
    weaving_min_sharpness: float = 0.0

    def __post_init__(self):
        require_positive(self.tau_degree, "tau_degree")
        require_positive(self.tau_closeness, "tau_closeness")
        require_non_negative(self.weaving_min_sharpness, "weaving_min_sharpness")


# 90th-percentile SLE maxima of conservative-class agents over the packaged
# calibration scenarios at the benchmark analysis settings (1 s windows,
# 0.5 s stride); regenerate with the `drivestyle calibrate` subcommand.
DEFAULT_THRESHOLDS = Thresholds(
    tau_degree=5.21,
    tau_closeness=0.122,
    weaving_min_sharpness=0.122,
)


@dataclass
class SleSummary:
    """SLE/SIE maxima of one polynomial over one window's frame samples."""

    sle_max: float
    t_sle: float
    sie_max: float


class SleArrays(NamedTuple):
    """``SleSummary`` fields of many (polynomial, window) rows, one array each."""

    sle_max: np.ndarray
    t_sle: np.ndarray
    sie_max: np.ndarray


def sle_summaries(coefficients, windows, frame_rate_hz: float) -> SleArrays:
    """``sle_sie`` for many (coefficients, window) rows in one array pass.

    Row r reads the quadratic ``coefficients[r]`` (an N x 3 array or a
    list of triples) at the frame samples t = k / rate of the closed
    window ``windows[r]``, k0 <= k <= k1. SIE is the constant |2 b2|.
    SLE is |d(k)| with d(k) = b1 + 2 b2 (k / rate); each step of d is
    monotone under round-to-nearest, so the computed d is monotone in k
    and |d| peaks at k0 or k1, ties going to k0. When k1 wins, d may
    have rounded to the same value on earlier samples (a plateau); only
    then is the row sampled, to find the earliest one.
    """
    f = require_positive(frame_rate_hz, "frame_rate_hz")
    w = np.asarray(windows, dtype=float).reshape(-1, 2)
    bad = np.flatnonzero(w[:, 1] < w[:, 0])
    if bad.size:
        raise ValidationError(f"empty window {tuple(w[bad[0]].tolist())}")
    k0 = np.ceil(w[:, 0] * f - _GRID_GUARD).astype(np.int64)
    k1 = np.floor(w[:, 1] * f + _GRID_GUARD).astype(np.int64)
    bad = np.flatnonzero(k1 < k0)
    if bad.size:
        raise ValidationError(f"window {tuple(w[bad[0]].tolist())} holds no frame times")
    b = np.asarray(coefficients, dtype=float).reshape(-1, 3)
    b1, slope = b[:, 1], 2.0 * b[:, 2]
    first = np.abs(b1 + slope * (k0 / f))
    last = np.abs(b1 + slope * (k1 / f))
    right = last > first
    k = np.where(right, k1, k0)
    for r in np.flatnonzero(right & (np.abs(b1 + slope * ((k1 - 1) / f)) == last)):
        ks = np.arange(k0[r], k1[r] + 1)
        k[r] = ks[np.argmax(np.abs(b1[r] + slope[r] * (ks / f)))]
    return SleArrays(np.where(right, last, first), k / f, np.abs(slope))


def sle_sie(
    poly: CentralityPolynomial,
    window: tuple[float, float],
    frame_rate_hz: float,
) -> SleSummary:
    """SLE(t) = |dzeta/dt|, SIE(t) = |d2zeta/dt2| at frame resolution.

    For a quadratic the SLE is the absolute value of an affine function
    of t, so its window maximum sits at an endpoint; ties break toward
    the earliest sample (see ``sle_summaries``).
    """
    arrays = sle_summaries([poly.coefficients], [window], frame_rate_hz)
    return SleSummary(*(float(a[0]) for a in arrays))


def critical_points(closeness, windows, epsilon: float):
    """(rows, t_c, sharpness): the weaving points of many closeness quadratics.

    Row r's candidate is the zero t_c = -b1 / (2 b2) of the first
    derivative of ``closeness[r]``, kept when b2 != 0 and t_c lies
    strictly inside ``windows[r]``. Its sharpness is the largest
    |dzeta/dt| over the epsilon-ball around it, 2 |b2| epsilon; a
    candidate whose sharpness equals |b1 + 2 b2 t_c| there, as a flat
    polynomial's does, is dropped. ``rows`` ascends. Each float step is
    the one a Python-float evaluation of these formulas takes, so the
    points equal the one-window scalar rule bit for bit.
    """
    require_positive(epsilon, "epsilon")
    b = np.asarray(closeness, dtype=float).reshape(-1, 3)
    w = np.asarray(windows, dtype=float).reshape(-1, 2)
    b1, b2 = b[:, 1], b[:, 2]
    # as Python floats: inf and nan where b2 is 0 or tiny, and no warning
    with np.errstate(all="ignore"):
        t_c = -b1 / (2.0 * b2)
        sharpness = 2.0 * np.abs(b2) * epsilon
        keep = (b2 != 0.0) & (w[:, 0] < t_c) & (t_c < w[:, 1])
        keep &= sharpness != np.abs(b1 + 2.0 * b2 * t_c)
    rows = np.flatnonzero(keep)
    return rows, t_c[rows], sharpness[rows]


def detect_weaving(
    closeness: Coefficients,
    window: tuple[float, float],
    epsilon: float,
) -> list[tuple[float, float]]:
    """The critical point of one closeness quadratic with its sharpness, if any.

    The one-window form of ``critical_points``.
    """
    _, t_c, sharpness = critical_points([closeness], [window], epsilon)
    return list(zip(t_c.tolist(), sharpness.tolist()))


class WindowAnalysis(NamedTuple):
    """One agent's degree and closeness fits over one analysis window.

    Both fits use the same sample times, so they share the span (seconds),
    the alpha and the condition number of one design.
    """

    window: tuple[float, float]
    alpha: float
    condition_number: float
    degree: Coefficients
    closeness: Coefficients
    weaving_points: list[tuple[float, float]]


@dataclass
class StyleSummary:
    """Whole-run aggregate for one derivative-based style."""

    sle_max: float
    t_sle: float | None
    sie_max: float
    detected: bool


@dataclass
class WeavingSummary:
    """Whole-run aggregate for the critical-point style."""

    count: int
    t_sle: float | None
    sie_max: float
    detected: bool
    critical_points: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class StyleReport:
    """Per-agent styles, weaving set, and the global behavior label."""

    agent_id: str
    window: tuple[float, float]
    styles: dict
    global_label: str
    windows: list[WindowAnalysis] = field(default_factory=list)


def merge_critical_points(
    points: list[tuple[float, float]], tolerance: float
) -> list[tuple[float, float]]:
    """Collapse near-duplicate critical points from overlapping windows.

    Points within ``tolerance`` seconds of the previous point join its
    cluster; each cluster is represented by its sharpest member.
    """
    if not points:
        return []
    ordered = sorted(points)
    clusters: list[list[tuple[float, float]]] = [[ordered[0]]]
    for p in ordered[1:]:
        if p[0] - clusters[-1][-1][0] <= tolerance:
            clusters[-1].append(p)
        else:
            clusters.append([p])
    return [max(c, key=lambda p: (p[1], -p[0])) for c in clusters]


def classify_agents(
    agent_ids: list[str],
    windows: list[WindowAnalysis],
    counts,
    spans,
    degree_sle: SleArrays,
    closeness_sle: SleArrays,
    points,
    thresholds: Thresholds,
    epsilon: float,
) -> list[StyleReport]:
    """Aggregate the windows of many agents into their style reports.

    Rows are agent-major: agent i owns the next ``counts[i]`` of
    ``windows``, of the (N x 2) ``spans`` and of the two ``SleArrays``;
    ``points`` is ``critical_points``' (rows, t_c, sharpness) over them.
    The whole-run t_SLE of a derivative style is the t_SLE of the window
    attaining the largest SLE maximum (earliest on ties). Weaving points
    from overlapping windows are merged within ``epsilon`` and filtered
    by the sharpness floor; the weaving t_SLE is the center of the span
    the surviving critical points cover. The agent is aggressive iff any
    aggressive style crosses its threshold, conservative otherwise; an
    agent without windows is conservative with empty summaries.
    """
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    spans = np.asarray(spans, dtype=float).reshape(-1, 2)
    owner = np.repeat(np.arange(len(counts)), counts)
    heads = starts[counts > 0]  # reduceat segments: the agents with windows

    def best(sle: SleArrays):
        # per agent the largest SLE, earliest t_sle on ties (t_sle is not
        # monotone over overlapping windows, so the order must be sorted)
        pick = np.lexsort((sle.t_sle, -sle.sle_max, owner))[heads]
        return (sle.sle_max[pick].tolist(), sle.t_sle[pick].tolist(),
                _reduce(np.maximum, sle.sie_max, heads))

    overspeed, overtake = best(degree_sle), best(closeness_sle)
    run_start = _reduce(np.minimum, spans[:, 0], heads)
    run_end = _reduce(np.maximum, spans[:, 1], heads)
    rows, t_c, sharpness = points
    cut = np.searchsorted(rows, ends).tolist()
    t_c, sharpness = t_c.tolist(), sharpness.tolist()

    reports, at, begin = [], 0, 0
    for agent_id, start, end, stop in zip(agent_ids, starts.tolist(), ends.tolist(), cut):
        if start == end:
            summaries = [StyleSummary(0.0, None, 0.0, False) for _ in (0, 1)]
            run_window = (0.0, 0.0)
        else:
            summaries = [StyleSummary(s[0][at], s[1][at], s[2][at], False)
                         for s in (overspeed, overtake)]
            run_window = (run_start[at], run_end[at])
            at += 1
        points_of = list(zip(t_c[begin:stop], sharpness[begin:stop]))
        begin = stop
        reports.append(_report(agent_id, windows[start:end], run_window, *summaries,
                               points_of, thresholds, epsilon))
    return reports


def _reduce(ufunc, values: np.ndarray, heads: np.ndarray) -> list[float]:
    """``ufunc`` over each segment of ``values`` starting at ``heads``."""
    return ufunc.reduceat(values, heads).tolist() if heads.size else []


def _report(agent_id, windows, run_window, overspeed, overtake, points,
            thresholds, epsilon) -> StyleReport:
    """One agent's report from its two SLE aggregates and its weaving points."""
    merged = merge_critical_points(points, tolerance=epsilon)
    significant = [p for p in merged if p[1] > thresholds.weaving_min_sharpness]
    if significant:
        times = [p[0] for p in significant]
        weaving_t = 0.5 * (min(times) + max(times))  # center of the oscillation
    else:
        weaving_t = None
    weaving = WeavingSummary(
        count=len(significant),
        t_sle=weaving_t,
        sie_max=max((p[1] for p in significant), default=0.0),
        detected=len(significant) >= 1,
        critical_points=significant,
    )

    overspeed.detected = overspeed.sle_max > thresholds.tau_degree
    overtake.detected = overtake.sle_max > thresholds.tau_closeness

    conservative = StyleSummary(
        sle_max=max(overspeed.sle_max, overtake.sle_max),
        t_sle=None,
        sie_max=max(overspeed.sie_max, overtake.sie_max),
        detected=not (overspeed.detected or overtake.detected or weaving.detected),
    )

    aggressive = overspeed.detected or overtake.detected or weaving.detected
    return StyleReport(
        agent_id=agent_id,
        window=run_window,
        styles={
            STYLE_OVERSPEEDING: overspeed,
            STYLE_OVERTAKE_LANE_CHANGE: overtake,
            STYLE_WEAVING: weaving,
            STYLE_CONSERVATIVE: conservative,
        },
        global_label=LABEL_AGGRESSIVE if aggressive else LABEL_CONSERVATIVE,
        windows=windows,
    )


def classify(
    agent_id: str,
    windows: list[WindowAnalysis],
    degree_sle: list[SleSummary],
    closeness_sle: list[SleSummary],
    thresholds: Thresholds,
    epsilon: float,
) -> StyleReport:
    """The style report of one agent: the one-agent form of ``classify_agents``.

    ``degree_sle`` and ``closeness_sle`` hold the windows' SLE maxima.
    """
    rows = [(r, p) for r, w in enumerate(windows) for p in w.weaving_points]
    points = (np.array([r for r, _ in rows], dtype=np.int64),
              np.array([p[0] for _, p in rows], dtype=float),
              np.array([p[1] for _, p in rows], dtype=float))
    return classify_agents(
        [agent_id], windows, [len(windows)], [w.window for w in windows],
        _sle_arrays(degree_sle), _sle_arrays(closeness_sle), points, thresholds, epsilon,
    )[0]


def _sle_arrays(summaries: list[SleSummary]) -> SleArrays:
    return SleArrays(*(np.array([getattr(s, name) for s in summaries], dtype=float)
                       for name in SleArrays._fields))
