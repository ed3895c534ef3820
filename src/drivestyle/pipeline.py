"""End-to-end analysis: table -> centralities -> fits -> style reports.

The centrality series are computed once over the whole run (the degree
chain is cumulative), then fitted over sliding windows. Windows are laid
out on the frame grid with 50% overlap by default and the final window
is clamped to the run's end; a window longer than the run degenerates to
a single window covering it. Each agent's windows come by arithmetic on
that grid from its own first and last frame, so the cost follows the
rows, not the frame span. Agents and windows are independent after
the series pass, so this stage is embarrassingly parallel; the
implementation stays single-threaded for determinism.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .centrality import compute_series
from .errors import ValidationError, require_positive
from .graph import DEFAULT_CAPACITY, DEFAULT_MU
from .ingest import FRAME_LIMIT, TrajectoryTable, read_source, write_text
from .regression import (
    DEFAULT_ALPHA_POLICY,
    POLY_DEGREE,
    alpha_policy_spec,
    fit_design,
    fit_solve,
    make_alpha_policy,
)
from .styles import (
    DEFAULT_THRESHOLDS,
    StyleReport,
    StyleSummary,
    Thresholds,
    WeavingSummary,
    WindowAnalysis,
    classify,
    detect_weaving,
    sle_summaries,
)

# Not called here: the one-window forms of the loop in ``analyze_table``.
# perfbench/tracer.py wraps the layer names this module exposes, these two
# among them.
from .regression import fit  # noqa: F401
from .styles import sle_sie  # noqa: F401

SCHEMA_VERSION = "3"

# rows per fit_solve call: bounds the stacked samples held at once
_SOLVE_ROWS = 256


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


def _first_reaching(lo: int, frame: int, window_frames: int, stride_frames: int) -> int:
    """Least k >= 0 whose window [lo + k * stride, lo + k * stride + W] reaches frame."""
    return max(0, -((lo + window_frames - frame) // stride_frames))


def frame_windows(
    lo: int, hi: int, window_frames: int, stride_frames: int
) -> list[tuple[int, int]]:
    """Sliding frame-index windows [start, start + W] clamped to the run.

    The list form of the grid ``analyze_table`` walks per agent; it stays
    for ``tests/oracles.per_window_analyze`` and perfbench's tracer.
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

    def agent(self, agent_id: str) -> StyleReport:
        for report in self.agents:
            if report.agent_id == agent_id:
                return report
        raise KeyError(agent_id)


def analyze_table(
    table: TrajectoryTable,
    params: AnalysisParams | None = None,
    series=None,
) -> RunReport:
    """Run the full style-estimation pipeline on a trajectory table.

    ``series`` may carry precomputed centralities (from compute_series
    with the same mu/capacity) to avoid a second pass.

    Each agent visits only the windows that overlap its frames, found
    from its first and last frame. Every window's degree and closeness
    samples are queued under its centered time grid, whose design is
    built once (so the alpha policy runs once per grid); rows with equal
    mean time and equal sample bits are queued once and share one
    coefficient tuple. Then each grid's rows are solved ``_SOLVE_ROWS``
    at a time by ``fit_solve``, and each agent's SLE/SIE maxima come
    from one ``sle_summaries`` call. Raises ConditioningError when a
    design is rank deficient at alpha = 0.
    """
    params = params or AnalysisParams()
    f = table.frame_rate_hz

    if series is None:
        series = compute_series(table, params.mu, capacity=params.capacity)
    lo, hi = table.span()
    # clamped at FRAME_LIMIT, which no frame index reaches
    window_frames = max(POLY_DEGREE, int(round(min(params.window_s * f, FRAME_LIMIT))))
    stride_frames = max(1, int(round(min(params.effective_stride() * f, FRAME_LIMIT))))
    last = _first_reaching(lo, hi, window_frames, stride_frames)  # the run's last window

    # for this call only: per centered time grid its design, its rows and
    # their index by (mean time, hash of the samples); per window slice
    # (first frame, sample count) its (span, alpha, kappa), grid and mean time
    grids: dict[bytes, tuple] = {}
    slices: dict[tuple[int, int], tuple] = {}
    rows = []  # each queued row's (mean time, samples), then its coefficients
    layout = []  # per agent: id, window heads, degree and closeness row numbers
    for agent_id in sorted(series):
        f0, clo, deg = series[agent_id]
        f1 = f0 + len(deg) - 1
        heads, queued = [], []
        # the windows that meet frames f0..f1: from the first reaching f0
        # to the last starting at or before f1
        k0 = _first_reaching(lo, f0, window_frames, stride_frames)
        for k in range(k0, min(last, (f1 - lo) // stride_frames) + 1):
            start = lo + k * stride_frames
            first = max(start, f0)
            n = min(start + window_frames, f1) - first + 1
            if n < POLY_DEGREE + 1:
                continue
            slice_fit = slices.get((first, n))
            if slice_fit is None:
                # frame / f: the sample times every per-window fit computes
                t = np.arange(first, first + n) / f
                t_bar = float(t.mean())
                tc = t - t_bar
                key = tc.tobytes()
                grid = grids.get(key)
                if grid is None:
                    grid = grids[key] = (fit_design(tc, params.alpha_policy), [], {})
                head = ((float(t[0]), float(t[-1])), *grid[0][:2])
                slice_fit = slices[first, n] = (head, grid, t_bar)
            head, (_, grid_rows, index), t_bar = slice_fit
            heads.append(head)
            i = first - f0
            for values in (deg, clo):
                samples = values[i:i + n]
                data = samples.tobytes()
                row = index.setdefault((t_bar, hash(data)), len(rows))
                # a hash shared by unequal samples only costs a solve
                if row == len(rows) or rows[row][1].tobytes() != data:
                    grid_rows.append(row := len(rows))
                    rows.append((t_bar, samples))
                queued.append(row)
        layout.append((agent_id, heads, queued))

    for design, grid_rows, _ in grids.values():
        for b in range(0, len(grid_rows), _SOLVE_ROWS):
            block = grid_rows[b:b + _SOLVE_ROWS]
            t_bars, samples = zip(*[rows[r] for r in block])
            for r, coefficients in zip(block, fit_solve(design, t_bars, np.stack(samples))):
                rows[r] = coefficients
    del grids, slices  # the row index above all: gone before the reports are built

    reports = []
    for agent_id, heads, queued in layout:
        fits = [rows[r] for r in queued]  # degree, closeness, degree, ...
        sle = sle_summaries(fits, [span for span, _, _ in heads for _ in (0, 1)], f)
        windows = [
            WindowAnalysis(*head, d, c, detect_weaving(c, head[0], params.epsilon_s))
            for head, d, c in zip(heads, fits[0::2], fits[1::2])
        ]
        reports.append(classify(
            agent_id, windows, sle[0::2], sle[1::2], params.thresholds, params.epsilon_s,
        ))
    return RunReport(frame_rate_hz=f, params=params, agents=reports)


# ---------------------------------------------------------------------------
# report serialization


def report_to_json(report: RunReport, dest=None) -> str:
    """Schema-3 JSON text of ``report``, also written to ``dest`` when given.

    Each window is one array; ``window_fields`` names its fields once.
    """
    params = report.params
    payload = {
        "schema_version": SCHEMA_VERSION,
        "frame_rate_hz": report.frame_rate_hz,
        "params": {
            "mu": params.mu,
            "capacity": params.capacity,
            "window_s": params.window_s,
            "stride_s": params.effective_stride(),
            "epsilon_s": params.epsilon_s,
            "thresholds": vars(params.thresholds),
            "alpha_policy": alpha_policy_spec(params.alpha_policy),
        },
        "window_fields": WindowAnalysis._fields,
        "agents": [
            {
                "agent_id": rep.agent_id,
                "window": rep.window,
                "global_label": rep.global_label,
                "styles": {name: vars(s) for name, s in rep.styles.items()},
                "windows": rep.windows,
            }
            for rep in report.agents
        ],
    }
    # compact separators keep CPython on its C encoder; output stays deterministic
    text = json.dumps(payload, separators=(",", ":")) + "\n"
    return write_text(dest, text, "report")


def report_from_json(source=None, *, text=None) -> RunReport:
    """Load the per-agent style summaries back from a report.

    ``source`` is always a file path; JSON text comes in only through
    ``text=``. Reconstructs the parameters and what evaluation needs
    (labels, maxima, t_SLE); the windows stay raw lists in
    ``StyleReport.windows``. An unreadable file, malformed JSON, or a
    schema other than the current one raises ValidationError.
    """
    text = read_source(source, text, "report")
    where = "report text" if source is None else f"report {source}"
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where} is not valid JSON: {exc}") from None
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"{where} has unsupported schema {version!r} (expected {SCHEMA_VERSION!r})"
        )
    try:
        return _report_from_payload(payload)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"{where} is malformed: {exc!r}") from None


def _report_from_payload(payload: dict) -> RunReport:
    given = payload["params"]
    params = AnalysisParams(**{**given, "thresholds": Thresholds(**given["thresholds"]),
                               "alpha_policy": make_alpha_policy(given["alpha_policy"])})
    agents = []
    for entry in payload["agents"]:
        styles = {}
        for name, raw in entry["styles"].items():
            if "count" in raw:
                points = [tuple(p) for p in raw["critical_points"]]
                styles[name] = WeavingSummary(**{**raw, "critical_points": points})
            else:
                styles[name] = StyleSummary(**raw)
        agents.append(
            StyleReport(
                agent_id=entry["agent_id"],
                window=tuple(entry["window"]),
                styles=styles,
                global_label=entry["global_label"],
                windows=entry["windows"],
            )
        )
    return RunReport(
        frame_rate_hz=payload["frame_rate_hz"], params=params, agents=agents
    )
