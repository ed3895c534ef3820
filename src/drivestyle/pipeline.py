"""End-to-end analysis: table -> centralities -> fits -> style reports.

The centrality series are computed once over the whole run (the degree
chain is cumulative), then fitted over sliding windows. Windows are laid
out on the frame grid with 50% overlap by default and the final window
is clamped to the run's end; a window longer than the run degenerates to
a single window covering it. Each agent's windows come by arithmetic on
that grid from its own first and last frame, so the cost follows the
rows, not the frame span. Every agent-window of a run, its frame range
throughout, is laid out, fitted and scored as arrays; the threshold-free
per-agent scores (``RunReport.scores``) are labelled last by ``styles.label``.
The window fits stay columns (``RunReport.fits``) up to ``windows.csv``;
only the per-agent summaries (``StyleReport``, ``report.json``) are objects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .centrality import compute_series
from .errors import ValidationError, require_positive
from .graph import DEFAULT_CAPACITY, DEFAULT_MU
from .ingest import FRAME_LIMIT, TrajectoryTable, float_texts, read_source, write_csv
from .ingest import write_text, yaml_float, yaml_int, yaml_record
from .regression import (
    DEFAULT_ALPHA_POLICY,
    POLY_DEGREE,
    alpha_policy_spec,
    fit_designs,
    fit_solve,
    make_alpha_policy,
    uncenter,
)
from .styles import (
    DEFAULT_THRESHOLDS,
    LABEL_AGGRESSIVE,
    LABEL_CONSERVATIVE,
    STYLE_WEAVING,
    STYLES,
    AgentScores,
    StyleReport,
    StyleSummary,
    Thresholds,
    WeavingSummary,
    WindowFits,
    critical_points,
    label,
    score_fits,
    style_reports,
)

# Not called here: the one-window forms of the arrays in ``analyze_table``.
# Their only reader is perfbench/tracer.py, which wraps them under these names.
from .regression import fit  # noqa: F401
from .styles import classify, detect_weaving, sle_sie  # noqa: F401

SCHEMA_VERSION = "4"

# agent-windows per block of gathered samples: bounds the samples, keys,
# designs and systems of one fit_solve call held at once
_BLOCK_WINDOWS = 1024


@dataclass
class AnalysisParams:
    """Tunable knobs of the analysis pipeline."""

    mu: float = DEFAULT_MU
    capacity: int = DEFAULT_CAPACITY
    window_s: float = 5.0
    stride_s: float | None = None  # None: half the window (50% overlap)
    epsilon_s: float = 0.5
    thresholds: Thresholds = field(default_factory=lambda: DEFAULT_THRESHOLDS)
    alpha_policy: object = DEFAULT_ALPHA_POLICY

    def __post_init__(self):
        require_positive(self.mu, "mu")
        require_positive(self.window_s, "window_s")
        if self.stride_s is not None:
            require_positive(self.stride_s, "stride_s")
        require_positive(self.epsilon_s, "epsilon_s")

    def effective_stride(self) -> float:
        return self.stride_s if self.stride_s is not None else self.window_s / 2.0


def thresholds_from_dict(raw, name: str = "thresholds") -> Thresholds:
    """``Thresholds`` from a mapping of its fields, each a number."""
    keys = {f.name: (f.name, yaml_float) for f in fields(Thresholds)}
    return yaml_record(Thresholds, raw, keys, name)


def params_from_dict(raw, what: str) -> AnalysisParams:
    """``AnalysisParams`` from a mapping of its fields: a run config's or a report's.

    A value not of its field's type (``mu: true``, ``capacity: "abc"``, a
    null but for ``stride_s``, whose default it is) raises ValueError or
    ValidationError naming the key. An absent key takes its default.
    """
    readers = {"capacity": yaml_int, "alpha_policy": make_alpha_policy,
               "thresholds": thresholds_from_dict,
               "stride_s": lambda value, key: None if value is None else yaml_float(value, key)}
    keys = {f.name: (f.name, readers.get(f.name, yaml_float)) for f in fields(AnalysisParams)}
    return yaml_record(AnalysisParams, raw, keys, what)


def _first_reaching(lo: int, frame, window_frames: int, stride_frames: int):
    """Least k >= 0 whose window [lo + k * stride, lo + k * stride + W] reaches frame.

    ``frame`` may be an int64 array: one k per frame.
    """
    return np.maximum(0, -((lo + window_frames - frame) // stride_frames))


def frame_windows(
    lo: int, hi: int, window_frames: int, stride_frames: int
) -> list[tuple[int, int]]:
    """Sliding frame-index windows [start, start + W] clamped to the run.

    The list form of the grid ``analyze_table`` lays out per agent; it
    stays for ``tests/oracles.per_window_analyze`` and perfbench's tracer.
    """
    if hi < lo:
        raise ValidationError(f"empty frame range ({lo}, {hi})")
    stop = lo + (_first_reaching(lo, hi, window_frames, stride_frames) + 1) * stride_frames
    return [(start, min(start + window_frames, hi))
            for start in range(lo, stop, stride_frames)]


@dataclass
class RunReport:
    """Analysis output for one trajectory table."""

    frame_rate_hz: float
    params: AnalysisParams
    agents: list[StyleReport]
    # agent-major scores and window fits; a report read back from JSON has neither
    scores: AgentScores | None = field(default=None, compare=False, repr=False)
    fits: WindowFits | None = field(default=None, compare=False, repr=False)

    def agent(self, agent_id: str) -> StyleReport:
        for report in self.agents:
            if report.agent_id == agent_id:
                return report
        raise KeyError(agent_id)


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(inverse, heads) of the rows of ``keys`` (K x C int64): row i equals row heads[inverse[i]].

    One stable sort of the rows' bytes and an adjacent compare (np.unique
    would import numpy.ma); ``heads`` holds each distinct row's first index.
    """
    keys = np.ascontiguousarray(keys)
    order = np.argsort(keys.view(np.dtype((np.void, keys.shape[1] * 8))).ravel(),
                       kind="stable")
    ordered = keys[order]
    new = np.ones(len(order), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return inverse, order[new]


def slice_times(first: np.ndarray, count: int, frame_rate_hz: float):
    """(t_bar, tc) of the window slices of ``count`` frames from each of ``first``.

    Row r samples t = (first[r] + j) / rate, j < count: its mean time and
    the centered times, each bit-equal to the same step on that slice alone.
    """
    t = (first[:, None] + np.arange(count)) / frame_rate_hz
    t_bar = t.mean(axis=1)
    return t_bar, t - t_bar[:, None]


def analyze_table(
    table: TrajectoryTable,
    params: AnalysisParams | None = None,
    series=None,
) -> RunReport:
    """Run the full style-estimation pipeline on a trajectory table.

    ``series`` may carry precomputed centralities (from compute_series
    with the same mu/capacity) to avoid a second pass.

    Every agent-window is laid out as arrays (agent, first frame, sample
    count) from each agent's first and last frame; windows of fewer than
    three samples are dropped. Each distinct slice (first frame, count)
    gets its mean time and centered time grid once. Then one pass per
    sample count: its distinct grids get their designs in one
    ``fit_designs`` call (so the alpha policy runs once per grid), and
    its windows, sorted by grid, are taken in blocks of
    ``_BLOCK_WINDOWS``: their samples are gathered, each distinct (grid,
    sample bits) row solved once, in one ``fit_solve`` call per block
    (which adds the alpha*I rows where alpha > 0), and every row
    uncentered. Weaving points (NaN where none) are taken over all
    windows at once, the per-agent scores by ``styles.score_fits``, then
    labelled at ``params.thresholds``; the fits are returned as
    ``RunReport.fits`` columns. Raises
    ConditioningError when a design is rank deficient at alpha = 0.
    """
    params = params or AnalysisParams()
    f = table.frame_rate_hz

    if series is None:
        series = compute_series(table, params.mu, capacity=params.capacity)
    lo, hi = table.span()
    # clamped at FRAME_LIMIT, which no frame index reaches
    window_frames = max(POLY_DEGREE, int(round(min(params.window_s * f, FRAME_LIMIT))))
    stride_frames = max(1, int(round(min(params.effective_stride() * f, FRAME_LIMIT))))

    agent_ids, f0, bounds = series.agent_ids, series.first, series.bounds
    agent, first, n = _agent_windows(
        f0, f0 + np.diff(bounds) - 1, lo, _first_reaching(lo, hi, window_frames, stride_frames),
        window_frames, stride_frames)

    # distinct slices, then one pass per sample count (grids of two counts differ in length)
    window_slice, heads = _distinct(np.column_stack([n, first]))
    slice_first, slice_n = first[heads], n[heads]
    t_bar = np.empty(len(heads))
    slice_grid = np.empty(len(heads), dtype=np.int64)  # the grid within its count
    # agent a's sample at frame t is row offset[a] + t of the series
    offset = bounds[:-1] - f0
    degree, closeness = series.degree, series.closeness
    alpha, kappa = np.empty(len(agent)), np.empty(len(agent))
    coefficients = np.empty((2, len(agent), 3))  # degree, closeness
    for slices, windows in zip(_by_value(slice_n), _by_value(n)):
        count = int(n[windows[0]])
        t_bar[slices], tc = slice_times(slice_first[slices], count, f)
        slice_grid[slices], grid_heads = _distinct(tc.view(np.int64))
        grid_alpha, grid_kappa, m = fit_designs(tc[grid_heads], params.alpha_policy)
        grid = slice_grid[window_slice[windows]]
        alpha[windows], kappa[windows] = grid_alpha[grid], grid_kappa[grid]
        windows = windows[np.argsort(grid, kind="stable")]
        for b in range(0, len(windows), _BLOCK_WINDOWS):
            block = windows[b:b + _BLOCK_WINDOWS]
            gather = (offset[agent[block]] + first[block])[:, None] + np.arange(count)
            samples = np.concatenate([degree[gather], closeness[gather]])
            row_grid = np.tile(slice_grid[window_slice[block]], 2)
            solved, rows = _distinct(np.column_stack([row_grid, samples.view(np.int64)]))
            grid = row_grid[rows]
            beta = fit_solve(m[grid], grid_alpha[grid], samples[rows])
            absolute = uncenter(beta[solved], np.tile(t_bar[window_slice[block]], 2))
            coefficients[:, block] = absolute.reshape(2, len(block), 3)

    # scores over every window, then labels, then one report per agent
    last = first + n - 1
    t_c, sharpness = critical_points(coefficients[1], np.column_stack([first, last]) / f,
                                     params.epsilon_s)
    fits = WindowFits(agent, first, last, alpha, kappa, *coefficients, t_c, sharpness)
    scores = score_fits(fits, np.bincount(agent, minlength=len(agent_ids)), f, params.epsilon_s)
    reports = style_reports(agent_ids, scores, label(scores, params.thresholds))
    return RunReport(frame_rate_hz=f, params=params, agents=reports, scores=scores, fits=fits)


def _agent_windows(f0, f1, lo: int, last: int, window_frames: int, stride_frames: int):
    """(agent, first frame, sample count) of every window of 3 or more samples.

    Agent i on frames f0[i]..f1[i] meets windows k from the first whose
    end reaches f0 to the last starting at or before f1, at most
    ``last``; rows come agent by agent, k ascending.
    """
    k0 = _first_reaching(lo, f0, window_frames, stride_frames)
    counts = np.maximum(0, np.minimum(last, (f1 - lo) // stride_frames) - k0 + 1)
    agent = np.repeat(np.arange(len(f0)), counts)
    k = np.repeat(k0 - np.cumsum(counts) + counts, counts) + np.arange(len(agent))
    start = lo + k * stride_frames
    first = np.maximum(start, f0[agent])
    n = np.minimum(start + window_frames, f1[agent]) - first + 1
    keep = n >= POLY_DEGREE + 1
    return agent[keep], first[keep], n[keep]


def _by_value(key: np.ndarray) -> list[np.ndarray]:
    """The indices of ``key``, one array per distinct value, values ascending."""
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1) if key.size else []


# ---------------------------------------------------------------------------
# report serialization


def report_to_json(report: RunReport, dest=None) -> str:
    """Schema-4 JSON text of ``report``, also written to ``dest`` when given.

    It holds the parameters and the per-agent summaries; the window fits
    go to ``windows_to_csv``.
    """
    params = report.params
    payload = {
        "schema_version": SCHEMA_VERSION,
        "frame_rate_hz": report.frame_rate_hz,
        # the fields in AnalysisParams order
        "params": {**vars(params), "stride_s": params.effective_stride(),
                   "thresholds": vars(params.thresholds),
                   "alpha_policy": alpha_policy_spec(params.alpha_policy)},
        "agents": [{"agent_id": rep.agent_id, "window": rep.window,
                    "global_label": rep.global_label,
                    "styles": {name: vars(s) for name, s in rep.styles.items()}}
                   for rep in report.agents],
    }
    # compact separators keep CPython on its C encoder; output stays deterministic
    text = json.dumps(payload, separators=(",", ":")) + "\n"
    return write_text(dest, text, "report")


WINDOW_COLUMNS = ("agent_id", "start_s", "end_s", "alpha", "condition_number",
                  *(f"{kind}_b{i}" for kind in ("degree", "closeness") for i in range(3)),
                  "t_c", "sharpness")


def windows_to_csv(report: RunReport, dest=None) -> str:
    """``windows.csv`` text of ``report.fits``, or ``""`` once written to ``dest``.

    One row per window fit, agent-major, under a ``WINDOW_COLUMNS``
    header, written by ``ingest.write_csv``, each column's floats by
    ``float_texts``; empty ``t_c`` and ``sharpness`` fields mean the
    window has no critical point.
    """
    fits = report.fits

    def texts(rows):
        chunk = WindowFits(*(column[rows] for column in fits))
        columns = [[report.agents[k].agent_id for k in chunk.agent.tolist()]]
        # start_s/end_s: the frame range over the rate, the spans the scores read
        columns += map(float_texts, (chunk.first_frame / report.frame_rate_hz,
                                     chunk.last_frame / report.frame_rate_hz, chunk.alpha,
                                     chunk.condition_number, *chunk.degree.T,
                                     *chunk.closeness.T))
        columns += ([t if t != "nan" else "" for t in float_texts(c)]  # NaN: no critical point
                    for c in (chunk.t_c, chunk.sharpness))
        return columns

    return write_csv(dest, ",".join(WINDOW_COLUMNS), len(fits.agent), texts, "windows")


def report_from_json(source=None, *, text=None) -> RunReport:
    """Load the per-agent style summaries back from a report.

    ``source`` is always a file path; JSON text comes in only through
    ``text=``. Reconstructs the parameters and what evaluation needs
    (labels, maxima, t_SLE); the report holds no window fits, so each
    ``StyleReport.windows`` is empty. An unreadable file, malformed JSON, a schema
    other than the current one, or a field ``evaluate`` reads holding what
    ``analyze`` never writes (a frame rate that is not a finite positive
    number, a maximum that is not finite, a t_SLE that is neither null nor
    a finite time below frame 2**53, a ``detected`` that is not a bool, an
    unknown label, an agent id that is not a string, styles other than the
    four ``analyze`` writes) raises ValidationError.
    """
    text = read_source(source, text, "report")
    where = "report text" if source is None else f"report {source}"
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # an int past the digit limit, deep nesting
        raise ValidationError(f"{where} is not valid JSON: {exc}") from None
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"{where} has unsupported schema {version!r} (expected {SCHEMA_VERSION!r})"
        )
    try:
        return _report_from_payload(payload)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, RecursionError,
            ValidationError) as exc:
        raise ValidationError(f"{where} is malformed: {exc!r}") from None


def _finite(value, name: str):
    """``value`` if it is a finite JSON number, not a bool; ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def _check_style(raw: dict, rate: float, name: str) -> None:
    """ValueError unless the fields ``evaluate`` reads hold what analyze writes."""
    for key in ("sle_max", "sie_max"):  # weaving has no sle_max
        if key in raw:
            _finite(raw[key], f"{name} {key}")
    t_sle = raw["t_sle"]
    if t_sle is not None and not abs(_finite(t_sle, f"{name} t_sle") * rate) < FRAME_LIMIT:
        raise ValueError(f"{name} t_sle {t_sle!r} is past frame index 2**53")
    if not isinstance(raw["detected"], bool):
        raise ValueError(f"{name} detected must be true or false, got {raw['detected']!r}")


def _report_from_payload(payload: dict) -> RunReport:
    params = params_from_dict(payload["params"], "report params")
    rate = payload["frame_rate_hz"]
    if not _finite(rate, "frame_rate_hz") > 0:
        raise ValueError(f"frame_rate_hz must be positive, got {rate!r}")
    agents, seen = [], set()
    for entry in payload["agents"]:
        agent_id = entry["agent_id"]
        if not isinstance(agent_id, str):
            raise ValueError(f"agent_id must be a string, got {agent_id!r}")
        if agent_id in seen:
            raise ValueError(f"agent {agent_id!r} has more than one entry")
        seen.add(agent_id)
        if entry["global_label"] not in (LABEL_AGGRESSIVE, LABEL_CONSERVATIVE):
            raise ValueError(f"agent {agent_id!r} has unknown global_label "
                             f"{entry['global_label']!r}")
        if set(entry["styles"]) != set(STYLES):
            raise ValueError(f"agent {agent_id!r} styles must be {list(STYLES)}, "
                             f"got {list(entry['styles'])}")
        styles = {}
        for name, raw in entry["styles"].items():
            _check_style(raw, rate, f"agent {agent_id!r} {name}")
            if name == STYLE_WEAVING:
                points = [tuple(p) for p in raw["critical_points"]]
                styles[name] = WeavingSummary(**{**raw, "critical_points": points})
            else:
                styles[name] = StyleSummary(**raw)
        agents.append(StyleReport(agent_id, tuple(entry["window"]), styles,
                                  entry["global_label"]))
    return RunReport(frame_rate_hz=rate, params=params, agents=agents)
