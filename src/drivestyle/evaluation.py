"""Annotation aggregation into expected maneuver frames, and the TDE.

Each (video, agent, style) carries M annotator intervals [s_m, e_m] in
frame units. The per-frame counter c_t tallies how many annotators cover
frame t within [min S, max E]; normalizing the counts to a probability
mass function gives the expected maneuver frame E[T], which is taken in
closed form. The time deviation error compares E[T] against the model's
maximum-likelihood frame, converted to seconds by the video frame rate.

Style codes used in label files: OS (overspeeding), OT (overtaking),
SLC (sudden lane-change), W (weaving).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import TrajectoryParseError, ValidationError, require_positive
from .ingest import FRAME_LIMIT, read_lines, read_rows, read_through, write_text
from .styles import (
    STYLE_OVERSPEEDING,
    STYLE_OVERTAKE_LANE_CHANGE,
    STYLE_WEAVING,
    StyleReport,
)

STYLE_CODES = ("OS", "OT", "SLC", "W")

# the (video_id, annotator_id) of every ground-truth label: one annotator of one video
GROUND_TRUTH_VIDEO = "sim"
GROUND_TRUTH_ANNOTATOR = "gt"

# the two label file formats: each name with its header
_LABEL_FORMATS = {
    "annotation": (
        "video_id", "agent_id", "style", "annotator_id", "start_frame", "end_frame"
    ),
    "label": ("agent_id", "style", "start_frame", "end_frame"),
}

# label style code -> style entry of the report whose t_SLE answers it
CODE_TO_STYLE = {
    "OS": STYLE_OVERSPEEDING,
    "OT": STYLE_OVERTAKE_LANE_CHANGE,
    "SLC": STYLE_OVERTAKE_LANE_CHANGE,
    "W": STYLE_WEAVING,
}


@dataclass
class AnnotationSet:
    """Annotator intervals grouped by (video_id, agent_id, style code)."""

    entries: dict[tuple[str, str, str], list[tuple[str, int, int]]] = field(
        default_factory=dict
    )
    frame_rate_hz: float = 1.0

    def add(
        self,
        video_id: str,
        agent_id: str,
        style: str,
        annotator_id: str,
        start_frame: int,
        end_frame: int,
    ) -> None:
        if style not in STYLE_CODES:
            raise ValidationError(
                f"unknown style code {style!r} (expected one of {STYLE_CODES})"
            )
        if start_frame < 0:
            raise ValidationError(f"negative start frame {start_frame}")
        if end_frame < start_frame:
            raise ValidationError(
                f"annotation end {end_frame} precedes start {start_frame}"
            )
        if end_frame >= FRAME_LIMIT:  # bounds the start too: it is not later
            raise ValidationError(f"frame {end_frame} is past frame index 2**53")
        key = (video_id, agent_id, style)
        self.entries.setdefault(key, []).append(
            (annotator_id, int(start_frame), int(end_frame))
        )

    def intervals(self, key: tuple[str, str, str]) -> list[tuple[int, int]]:
        return [(s, e) for _, s, e in self.entries[key]]


def parse_annotations(
    source=None, frame_rate_hz: float | None = None, *, text=None
) -> AnnotationSet:
    """Parse a label file (or CSV ``text=``) of either format.

    Annotation format: ``video_id,agent_id,style,annotator_id,start_frame,end_frame``.
    Ground-truth format: ``agent_id,style,start_frame,end_frame``, read as
    ``annotations_from_labels`` wraps labels. Frames are integers in [0, 2**53).
    A bad row raises TrajectoryParseError naming its line.
    """
    require_positive(frame_rate_hz, "frame_rate_hz")
    out = AnnotationSet(frame_rate_hz=frame_rate_hz)
    with read_through(read_lines(source, text, "annotations")) as lines:
        for line_no, fields in read_rows(lines, _LABEL_FORMATS):
            if len(fields) == 4:  # ground truth
                fields = [GROUND_TRUTH_VIDEO, *fields[:2], GROUND_TRUTH_ANNOTATOR, *fields[2:]]
            try:
                out.add(*fields[:4], int(fields[4]), int(fields[5]))
            except ValueError as exc:
                raise TrajectoryParseError(f"non-integer frame: {exc}", line_no) from None
            except ValidationError as exc:
                raise TrajectoryParseError(str(exc), line_no) from None
    return out


def annotations_from_labels(labels, frame_rate_hz: float) -> AnnotationSet:
    """Wrap simulator ground-truth labels as a single-annotator set.

    Accepts any objects carrying agent_id/style/start_frame/end_frame, so
    synthetic labels ride the same evaluation path as human annotations.
    """
    require_positive(frame_rate_hz, "frame_rate_hz")
    out = AnnotationSet(frame_rate_hz=frame_rate_hz)
    for label in labels:
        out.add(
            GROUND_TRUTH_VIDEO,
            label.agent_id,
            label.style,
            GROUND_TRUTH_ANNOTATOR,
            label.start_frame,
            label.end_frame,
        )
    return out


@dataclass
class TemporalDistribution:
    """The support [s*, e*] of annotator coverage and its expectation E[T]."""

    support: tuple[int, int]
    expectation: float


def expected_frame(intervals: list[tuple[int, int]]) -> TemporalDistribution:
    """Aggregate M annotator intervals into the expected maneuver frame.

    c_t counts the annotators covering frame t in [min S, max E]; the
    expectation is taken under the normalized counts. In closed form, as
    each interval [s, e] adds (s + e)(e - s + 1) / 2 to the sum of t * c_t
    and e - s + 1 to the sum of c_t, it is one division of exact integers,
    whatever the length of the intervals.
    """
    if not intervals:
        raise ValidationError("cannot aggregate an empty annotation set")
    for s, e in intervals:
        if e < s:
            raise ValidationError(f"annotation interval ({s}, {e}) is reversed")
    weighted = sum((s + e) * (e - s + 1) // 2 for s, e in intervals)
    covered = sum(e - s + 1 for s, e in intervals)
    return TemporalDistribution(
        support=(min(s for s, _ in intervals), max(e for _, e in intervals)),
        expectation=weighted / covered,
    )


def tde(t_sle_frame: float, expected: float, frame_rate_hz: float) -> float:
    """Time deviation error |t_SLE - E[T]| / frame rate, in seconds."""
    require_positive(frame_rate_hz, "frame_rate_hz")
    return abs((t_sle_frame - expected) / frame_rate_hz)


@dataclass
class TdeRow:
    style: str
    mean_tde_s: float | None
    maneuver_count: int
    missing_count: int


@dataclass
class TdeTable:
    rows: list[TdeRow]
    warnings: list[str] = field(default_factory=list)

    def to_csv(self, dest=None) -> str:
        lines = ["style,mean_tde_s,maneuver_count,missing_count"]
        for row in self.rows:
            mean = "" if row.mean_tde_s is None else repr(row.mean_tde_s)
            lines.append(
                f"{row.style},{mean},{row.maneuver_count},{row.missing_count}"
            )
        return write_text(dest, "\n".join(lines) + "\n", "TDE table")

    def to_json(self, dest=None) -> str:
        payload = {
            "rows": [
                {
                    "style": r.style,
                    "mean_tde_s": r.mean_tde_s,
                    "maneuver_count": r.maneuver_count,
                    "missing_count": r.missing_count,
                }
                for r in self.rows
            ],
            "warnings": self.warnings,
        }
        return write_text(dest, json.dumps(payload, indent=2, allow_nan=False) + "\n", "TDE table")

    def mean(self, style: str) -> float | None:
        for row in self.rows:
            if row.style == style:
                return row.mean_tde_s
        return None


def evaluate_run(reports: list[StyleReport], annotations: AnnotationSet) -> TdeTable:
    """Per-style mean TDE between model t_SLE and annotated E[T].

    Labels whose agent is missing from the reports, or whose style has no
    prediction (e.g. no weaving critical points), are excluded from the
    means and surface in the missing counts and warnings. A TDE or a mean
    that is not finite (a frame rate so small that seconds overflow)
    raises ValidationError naming the style and the rate.
    """
    by_agent = {r.agent_id: r for r in reports}
    f = annotations.frame_rate_hz
    errors: dict[str, list[float]] = {code: [] for code in STYLE_CODES}
    missing: dict[str, int] = {code: 0 for code in STYLE_CODES}
    labeled: set[str] = set()
    warnings: list[str] = []

    for key in sorted(annotations.entries):
        video, agent, code = key
        labeled.add(code)
        report = by_agent.get(agent)
        if report is None:
            missing[code] += 1
            warnings.append(f"{video}/{agent}/{code}: agent missing from reports")
            continue
        summary = report.styles[CODE_TO_STYLE[code]]
        if summary.t_sle is None:
            missing[code] += 1
            warnings.append(f"{video}/{agent}/{code}: no prediction for style")
            continue
        expected = expected_frame(annotations.intervals(key)).expectation
        model_frame = summary.t_sle * f
        errors[code].append(tde(model_frame, expected, f))

    rows = []
    for code in STYLE_CODES:
        if code not in labeled:
            continue
        vals = errors[code]
        mean = sum(vals) / len(vals) if vals else None
        if mean is not None and not math.isfinite(mean):  # a TDE or their sum overflowed
            raise ValidationError(f"{code} TDE is not finite at frame rate {f!r} Hz")
        rows.append(TdeRow(code, mean, len(vals), missing[code]))
    return TdeTable(rows=rows, warnings=warnings)
