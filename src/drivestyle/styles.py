"""Style likelihood/intensity estimation and behavior classification.

The likelihood of a style at time t is the absolute first derivative of
the relevant centrality polynomial, its intensity the absolute second
derivative. Overspeeding reads the degree polynomial, overtaking and
sudden lane-changes read the closeness polynomial (one merged style:
the maneuvers are modeled identically), weaving counts sharp critical
points of the closeness polynomial. A window is sampled at its integer
frame range and holds one critical point, NaN when it has none. Scores
come first and carry no threshold (``score_agents``); ``label`` is the
one step that applies thresholds to them, and an agent is conservative
when no aggressive style crosses its threshold.
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
# every agent's report holds exactly these styles
STYLES = (STYLE_OVERSPEEDING, STYLE_OVERTAKE_LANE_CHANGE, STYLE_WEAVING, STYLE_CONSERVATIVE)

LABEL_AGGRESSIVE = "aggressive"
LABEL_CONSERVATIVE = "conservative"


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


def sle_summaries(coefficients, frames, frame_rate_hz: float) -> SleArrays:
    """``sle_sie`` for many (coefficients, frame range) rows in one array pass.

    Row r reads the quadratic ``coefficients[r]`` (an N x 3 array or a
    list of triples) at the frame samples t = k / rate of the closed
    integer range ``frames[r]``, k0 <= k <= k1 (a float range, such as a
    span in seconds, raises TypeError). SIE is the constant |2 b2|.
    SLE is |d(k)| with d(k) = b1 + 2 b2 (k / rate); each step of d is
    monotone under round-to-nearest, so the computed d is monotone in k
    and |d| peaks at k0 or k1, ties going to k0. When k1 wins, d may
    have rounded to the same value on earlier samples (a plateau); only
    then is the row sampled, to find the earliest one.
    """
    f = require_positive(frame_rate_hz, "frame_rate_hz")
    k0, k1 = np.asarray(frames).astype(np.int64, casting="safe").reshape(-1, 2).T
    bad = np.flatnonzero(k1 < k0)
    if bad.size:
        raise ValidationError(f"empty frame range ({k0[bad[0]]}, {k1[bad[0]]})")
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


def sle_sie(poly: CentralityPolynomial, frames: tuple[int, int],
            frame_rate_hz: float) -> SleSummary:
    """SLE(t) = |dzeta/dt|, SIE(t) = |d2zeta/dt2| at the frames k0..k1.

    For a quadratic the SLE is the absolute value of an affine function
    of t, so its window maximum sits at an endpoint; ties break toward
    the earliest sample (see ``sle_summaries``).
    """
    arrays = sle_summaries([poly.coefficients], [frames], frame_rate_hz)
    return SleSummary(*(float(a[0]) for a in arrays))


def critical_points(closeness, windows, epsilon: float):
    """(t_c, sharpness): the weaving point of each closeness quadratic, NaN if none.

    Row r's candidate is the zero t_c = -b1 / (2 b2) of the first
    derivative of ``closeness[r]``, kept when b2 != 0 and t_c lies
    strictly inside ``windows[r]`` (s). Its sharpness is the largest
    |dzeta/dt| over the epsilon-ball around it, 2 |b2| epsilon; a
    candidate whose sharpness equals |b1 + 2 b2 t_c| there, as a flat
    polynomial's does, is dropped. Each float step is the one a
    Python-float evaluation of these formulas takes, so the points
    equal the one-window scalar rule bit for bit.
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
    return np.where(keep, t_c, np.nan), np.where(keep, sharpness, np.nan)


def detect_weaving(
    closeness: Coefficients,
    window: tuple[float, float],
    epsilon: float,
) -> list[tuple[float, float]]:
    """The critical point of one closeness quadratic with its sharpness, if any.

    The one-window form of ``critical_points``.
    """
    (t_c,), (sharpness,) = critical_points([closeness], [window], epsilon)
    return [] if np.isnan(t_c) else [(float(t_c), float(sharpness))]


class WindowFits(NamedTuple):
    """Every agent-window's fits as columns, agent-major.

    A window's degree and closeness fits share its closed frame range (int64),
    alpha and condition number; their coefficients are N x 3 absolute-time (b0, b1, b2).
    """

    agent: np.ndarray  # code into the run's sorted agent ids
    first_frame: np.ndarray
    last_frame: np.ndarray
    alpha: np.ndarray
    condition_number: np.ndarray
    degree: np.ndarray
    closeness: np.ndarray
    t_c: np.ndarray  # the window's critical point (a quadratic has one at most)
    sharpness: np.ndarray  # NaN, as t_c, where the window has none


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
    # the agent's rows of the run's WindowFits; empty for a report read from JSON
    windows: range = range(0)


class AgentScores(NamedTuple):
    """Threshold-free scores of many agents, agent-major.

    Per agent: its window count, its run span (N x 2, (0, 0) without
    windows) and per derivative style the SLE maximum and t_SLE of its
    best window with its SIE maximum (0, NaN and 0 without windows). Per
    merged critical point, ascending by (owner, t_c): the owning agent,
    the point's time and its sharpness.
    """

    count: np.ndarray
    span: np.ndarray
    degree: SleArrays
    closeness: SleArrays
    owner: np.ndarray
    t_c: np.ndarray
    sharpness: np.ndarray


class Labels(NamedTuple):
    """``label``'s per-agent columns, then ``kept`` per merged critical point."""

    overspeeding: np.ndarray
    overtaking: np.ndarray
    weaving_count: np.ndarray
    weaving_t_sle: np.ndarray  # NaN without kept points
    weaving_sie_max: np.ndarray
    aggressive: np.ndarray
    kept: np.ndarray


def score_agents(counts, spans, degree_sle: SleArrays, closeness_sle: SleArrays,
                 t_c, sharpness, epsilon: float) -> AgentScores:
    """The threshold-free scores of many agents from their windows' scores.

    Rows are agent-major: agent i owns the next ``counts[i]`` rows of the
    (N x 2) ``spans``, of the two ``SleArrays`` and of ``critical_points``'
    ``t_c`` and ``sharpness``, NaN where a window has no point. A style's best
    window has the largest SLE maximum, earliest t_SLE on ties. Critical
    points from overlapping windows merge: in (agent, t_c) order a point
    within ``epsilon`` of its agent's previous point joins that point's
    cluster, and each cluster keeps its sharpest member, earliest on
    ties.
    """
    counts = np.asarray(counts, dtype=np.int64)
    spans, n = np.asarray(spans, dtype=float).reshape(-1, 2), len(counts)
    owner = np.repeat(np.arange(n), counts)
    has = counts > 0
    heads = (np.cumsum(counts) - counts)[has]  # reduceat segments: the agents with windows

    def best(sle: SleArrays) -> SleArrays:
        # t_sle is not monotone over overlapping windows, so the order must be sorted
        pick = np.lexsort((sle.t_sle, -sle.sle_max, owner))[heads]
        out = SleArrays(np.zeros(n), np.full(n, np.nan), np.zeros(n))
        out.sle_max[has], out.t_sle[has] = sle.sle_max[pick], sle.t_sle[pick]
        out.sie_max[has] = _reduce(np.maximum, sle.sie_max, heads)
        return out

    run = np.zeros((n, 2))
    run[has, 0] = _reduce(np.minimum, spans[:, 0], heads)
    run[has, 1] = _reduce(np.maximum, spans[:, 1], heads)
    rows = np.flatnonzero(~np.isnan(t_c))
    return AgentScores(counts, run, best(degree_sle), best(closeness_sle),
                       *_merge(owner[rows], t_c[rows], sharpness[rows], epsilon))


def _merge(owner, t_c, sharpness, epsilon: float):
    """(owner, t_c, sharpness) of each cluster's sharpest point, by one sort."""
    order = np.lexsort((t_c, owner))  # stable: equal t_c keep row order
    owner, t_c, sharpness = owner[order], t_c[order], sharpness[order]
    new = np.ones(len(order), dtype=bool)  # a point that starts a cluster
    new[1:] = (np.diff(owner) != 0) | (np.diff(t_c) > epsilon)
    cluster = np.cumsum(new) - 1
    hits = np.flatnonzero(sharpness == _reduce(np.maximum, sharpness, np.flatnonzero(new))[cluster])
    pick = hits[np.diff(cluster[hits], prepend=-1) > 0]  # t_c ascends: earliest hit
    return owner[pick], t_c[pick], sharpness[pick]


def _reduce(ufunc, values: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """``ufunc`` over each segment of ``values`` starting at ``heads``."""
    return ufunc.reduceat(values, heads) if heads.size else values[:0]


def label(scores: AgentScores, thresholds: Thresholds) -> Labels:
    """The styles detected at ``thresholds``: the one step that reads them.

    A derivative style is detected when its SLE maximum exceeds its tau.
    Merged critical points sharper than ``weaving_min_sharpness`` are
    kept; weaving is detected when any is, its t_SLE is the center of the
    span the kept points cover and its SIE maximum their largest
    sharpness. An agent is aggressive iff any style is detected.
    """
    n = len(scores.count)
    kept = scores.sharpness > thresholds.weaving_min_sharpness
    count = np.bincount(scores.owner[kept], minlength=n)
    weaving = count > 0
    end = np.cumsum(count)[weaving]
    start = end - count[weaving]
    t_c, sharpness = scores.t_c[kept], scores.sharpness[kept]
    t_sle, sie_max = np.full(n, np.nan), np.zeros(n)
    t_sle[weaving] = 0.5 * (t_c[start] + t_c[end - 1])  # t_c ascends per agent
    sie_max[weaving] = _reduce(np.maximum, sharpness, start)
    overspeeding = scores.degree.sle_max > thresholds.tau_degree
    overtaking = scores.closeness.sle_max > thresholds.tau_closeness
    return Labels(overspeeding, overtaking, count, t_sle, sie_max,
                  overspeeding | overtaking | weaving, kept)


def style_reports(agent_ids: list[str], scores: AgentScores, labels: Labels) -> list[StyleReport]:
    """One ``StyleReport`` per agent from its scores and labels.

    Agent i owns the next ``scores.count[i]`` rows of the window columns;
    an agent without windows is conservative with empty summaries.
    """
    points = list(zip(scores.t_c[labels.kept].tolist(),
                      scores.sharpness[labels.kept].tolist()))
    columns = (c.tolist() for c in (
        *scores.degree, labels.overspeeding, *scores.closeness, labels.overtaking,
        labels.weaving_count, labels.weaving_t_sle, labels.weaving_sie_max, labels.aggressive))
    reports, start, begin = [], 0, 0
    for (agent_id, end, span, d_max, d_t, d_sie, d_hit, c_max, c_t, c_sie, c_hit,
         count, w_t, w_sie, aggressive) in zip(agent_ids, np.cumsum(scores.count).tolist(),
                                               map(tuple, scores.span.tolist()), *columns):
        styles = (
            StyleSummary(d_max, d_t if end > start else None, d_sie, d_hit),
            StyleSummary(c_max, c_t if end > start else None, c_sie, c_hit),
            WeavingSummary(count, w_t if count else None, w_sie, count >= 1,
                           points[begin:begin + count]),
            StyleSummary(max(d_max, c_max), None, max(d_sie, c_sie), not aggressive),
        )
        reports.append(StyleReport(agent_id, span, dict(zip(STYLES, styles)),
                                   LABEL_AGGRESSIVE if aggressive else LABEL_CONSERVATIVE,
                                   range(start, end)))
        start, begin = end, begin + count
    return reports


def score_fits(fits: WindowFits, counts, frame_rate_hz: float, epsilon: float) -> AgentScores:
    """``score_agents`` of the agents owning the next ``counts[i]`` rows of ``fits``:
    each window's span is its frame range over the rate, its SLE/SIE read at its frames."""
    f = require_positive(frame_rate_hz, "frame_rate_hz")
    frames = np.column_stack([fits.first_frame, fits.last_frame])
    return score_agents(counts, frames / f,
                        *(sle_summaries(c, frames, f) for c in (fits.degree, fits.closeness)),
                        fits.t_c, fits.sharpness, epsilon)


def classify(agent_id: str, fits: WindowFits, frame_rate_hz: float,
             thresholds: Thresholds, epsilon: float) -> StyleReport:
    """One agent's style report from its window columns: ``score_fits`` and ``label``."""
    scores = score_fits(fits, [len(fits.agent)], frame_rate_hz, epsilon)
    return style_reports([agent_id], scores, label(scores, thresholds))[0]
