"""End-to-end analysis: table -> centralities -> fits -> style reports.

The centrality series are computed once over the whole run (the degree
chain is cumulative), then fitted over sliding windows. Windows are laid
out on the frame grid with 50% overlap by default and the final window
is clamped to the run's end; a window longer than the run degenerates to
a single window covering it. Each agent's windows come by arithmetic on
that grid from its own first and last frame, so the cost follows the
rows, not the frame span. Every agent-window of a run is laid out,
fitted and scored as arrays; Python objects are built only for the
report (one ``WindowAnalysis`` per window, one ``StyleReport`` per
agent).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import repeat

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
    uncenter,
)
from .styles import (
    DEFAULT_THRESHOLDS,
    LABEL_AGGRESSIVE,
    LABEL_CONSERVATIVE,
    STYLE_WEAVING,
    STYLES,
    StyleReport,
    StyleSummary,
    Thresholds,
    WeavingSummary,
    WindowAnalysis,
    classify_agents,
    critical_points,
    sle_summaries,
)

# Not called here: the one-window forms of the arrays in ``analyze_table``.
# Their only reader is perfbench/tracer.py, which wraps them under these names.
from .regression import fit  # noqa: F401
from .styles import classify, detect_weaving, sle_sie  # noqa: F401

SCHEMA_VERSION = "3"

# agent-windows per block of gathered samples: bounds the samples, keys
# and stacked designs held at once
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
    """(t_bar, tc, t0, t1) of the window slices of ``count`` frames from each of ``first``.

    Row r samples t = (first[r] + j) / rate, j < count: its mean time,
    the centered times, and the first and last time, each bit-equal to
    the same step on that slice alone.
    """
    t = (first[:, None] + np.arange(count)) / frame_rate_hz
    t_bar = t.mean(axis=1)
    return t_bar, t - t_bar[:, None], t[:, 0], t[:, -1]


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
    gets its mean time, span and centered time grid once, and each grid
    its design once (so the alpha policy runs once per grid). Windows are
    then taken in blocks of ``_BLOCK_WINDOWS`` by design shape: their
    degree and closeness samples are gathered, each distinct (grid,
    sample bits) row is solved once by ``fit_solve``, and each distinct
    (solved row, slice) pair is mapped to absolute time once and shares
    one coefficient tuple. SLE/SIE, weaving points and the per-agent
    aggregates are scored over all windows at once. Raises
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

    agent_ids = sorted(series)
    f0 = np.array([series[a].first for a in agent_ids], dtype=np.int64)
    sizes = np.array([len(series[a].degree) for a in agent_ids], dtype=np.int64)
    agent, first, n = _agent_windows(
        f0, f0 + sizes - 1, lo, _first_reaching(lo, hi, window_frames, stride_frames),
        window_frames, stride_frames)

    # distinct slices: mean time, span and centered time grid; per grid its design
    window_slice, heads = _distinct(np.column_stack([n, first]))
    slice_first, slice_n = first[heads], n[heads]
    t_bar, t0, t1 = (np.empty(len(heads)) for _ in range(3))
    slice_grid = np.empty(len(heads), dtype=np.int64)
    grids: dict[bytes, int] = {}  # centered times -> grid number
    designs, grid_shape = [], []  # per grid: (alpha, kappa, A); (rows of A, samples)
    for rows in _blocks(np.argsort(slice_n, kind="stable"), slice_n):
        count = int(slice_n[rows[0]])
        t_bar[rows], tc, t0[rows], t1[rows] = slice_times(slice_first[rows], count, f)
        same, grid_heads = _distinct(tc.view(np.int64))
        local = []
        for key in map(bytes, tc[grid_heads]):
            if key not in grids:
                grids[key] = len(designs)
                designs.append(fit_design(np.frombuffer(key), params.alpha_policy))
                grid_shape.append((len(designs[-1][2]), count))
            local.append(grids[key])
        slice_grid[rows] = np.array(local, dtype=np.int64)[same]
    del grids

    # solve: windows by design shape, then grid; per block each distinct
    # (grid, samples) row once, each distinct (row, slice) pair uncentered once
    rank, stacks, index = _design_stacks(designs, grid_shape)
    window_grid = slice_grid[window_slice]
    # each agent's samples in one array, from offset[agent]
    offset = np.cumsum(sizes) - sizes - f0
    degree = np.concatenate([series[a].degree for a in agent_ids] or [np.empty(0)])
    closeness = np.concatenate([series[a].closeness for a in agent_ids] or [np.empty(0)])
    coefficients = np.empty((2, len(agent), 3))  # degree, closeness
    tuples = np.empty((2, len(agent)), dtype=object)
    for block in _blocks(np.lexsort((window_grid, rank[window_grid])), rank[window_grid]):
        grid = window_grid[block]
        gather = (offset[agent[block]] + first[block])[:, None] \
            + np.arange(grid_shape[grid[0]][1])
        samples = np.concatenate([degree[gather], closeness[gather]])
        row_grid, row_slice = np.tile(grid, 2), np.tile(window_slice[block], 2)
        solved, rows = _distinct(np.column_stack([row_grid, samples.view(np.int64)]))
        beta = fit_solve(stacks[rank[grid[0]]][index[row_grid[rows]]], samples[rows])
        pair, pairs = _distinct(np.column_stack([solved, row_slice]))
        fits = uncenter(beta[solved[pairs]], t_bar[row_slice[pairs]])
        shared = np.fromiter(map(tuple, fits.tolist()), dtype=object, count=len(pairs))
        coefficients[:, block] = fits[pair].reshape(2, len(block), 3)
        tuples[:, block] = shared[pair].reshape(2, len(block))

    # scores over every window, then one report per agent
    spans = np.column_stack([t0[window_slice], t1[window_slice]])
    points = critical_points(coefficients[1], spans, params.epsilon_s)
    weaving = [[] for _ in range(len(agent))]
    for r, t_c, sharpness in zip(*(a.tolist() for a in points)):
        weaving[r] = [(t_c, sharpness)]  # a quadratic has one critical point
    # one head tuple per slice: (span, alpha, kappa)
    heads = [((s, e), alpha, kappa) for s, e, (alpha, kappa, _)
             in zip(t0.tolist(), t1.tolist(), map(designs.__getitem__, slice_grid.tolist()))]
    windows = list(map(tuple.__new__, repeat(WindowAnalysis), map(
        tuple.__add__, map(heads.__getitem__, window_slice.tolist()),
        zip(*tuples.tolist(), weaving))))
    reports = classify_agents(
        agent_ids, windows, np.bincount(agent, minlength=len(agent_ids)), spans,
        sle_summaries(coefficients[0], spans, f), sle_summaries(coefficients[1], spans, f),
        points, params.thresholds, params.epsilon_s,
    )
    return RunReport(frame_rate_hz=f, params=params, agents=reports)


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


def _blocks(order: np.ndarray, key: np.ndarray):
    """``order`` cut where ``key[order]`` changes, and into ``_BLOCK_WINDOWS`` pieces."""
    for run in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        for b in range(0, len(run), _BLOCK_WINDOWS):
            yield run[b:b + _BLOCK_WINDOWS]


def _design_stacks(designs: list, grid_shape: list):
    """(rank, stacks, index): grid g's matrix is stacks[rank[g]][index[g]].

    One (G, m, 3) stack per distinct (rows of A, samples) shape.
    """
    rank = np.empty(len(designs), dtype=np.int64)
    index = np.empty(len(designs), dtype=np.int64)
    members: dict[tuple[int, int], list[int]] = {}
    for g, shape in enumerate(grid_shape):
        members.setdefault(shape, []).append(g)
    stacks = []
    for r, gs in enumerate(members.values()):
        rank[gs], index[gs] = r, np.arange(len(gs))
        stacks.append(np.stack([designs[g][2] for g in gs]))
    return rank, stacks, index


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
    ``StyleReport.windows``. An unreadable file, malformed JSON, a schema
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
    given = payload["params"]
    params = AnalysisParams(**{**given, "thresholds": Thresholds(**given["thresholds"]),
                               "alpha_policy": make_alpha_policy(given["alpha_policy"])})
    rate = payload["frame_rate_hz"]
    if not _finite(rate, "frame_rate_hz") > 0:
        raise ValueError(f"frame_rate_hz must be positive, got {rate!r}")
    agents = []
    for entry in payload["agents"]:
        agent_id = entry["agent_id"]
        if not isinstance(agent_id, str):
            raise ValueError(f"agent_id must be a string, got {agent_id!r}")
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
        agents.append(
            StyleReport(
                agent_id=agent_id,
                window=tuple(entry["window"]),
                styles=styles,
                global_label=entry["global_label"],
                windows=entry["windows"],
            )
        )
    return RunReport(frame_rate_hz=rate, params=params, agents=agents)
