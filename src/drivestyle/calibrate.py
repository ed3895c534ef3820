"""Threshold calibration from conservative-class simulator traffic.

The classification cut-offs are the 90th percentiles of the per-agent
SLE maxima (and weaving sharpness maxima) observed for conservative
agents across a calibration scenario set. The calibration set should
include the roughest benign traffic the thresholds are expected to
tolerate; percentiles of a too-gentle set will flag ordinary drivers.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .pipeline import AnalysisParams, analyze_table
from .sim import CLASS_CONSERVATIVE, ScenarioConfig, run_scenario
from .styles import STYLE_OVERSPEEDING, STYLE_OVERTAKE_LANE_CHANGE, Thresholds

_POSITIVE_FLOOR = 1e-9  # thresholds are contractually strictly positive

PERCENTILE = 90.0


def calibrate_thresholds(
    scenarios: list[ScenarioConfig], params: AnalysisParams
) -> Thresholds:
    """Run the pipeline over calibration scenarios and take percentiles.

    Deterministic for a fixed scenario list (scenario seeds drive all
    randomness). Raises ValidationError when the set contains no
    conservative agents.
    """
    if not scenarios:
        raise ValidationError("calibration scenario set is empty")
    degree_maxima: list[float] = []
    closeness_maxima: list[float] = []
    sharpness_maxima: list[float] = []
    for config in scenarios:
        result = run_scenario(config)
        report = analyze_table(result.table, params)
        for agent_report in report.agents:
            if result.agent_classes[agent_report.agent_id] != CLASS_CONSERVATIVE:
                continue
            degree_maxima.append(agent_report.styles[STYLE_OVERSPEEDING].sle_max)
            closeness_maxima.append(
                agent_report.styles[STYLE_OVERTAKE_LANE_CHANGE].sle_max
            )
            # merging near-duplicate points keeps each cluster's sharpest,
            # so the maximum over the raw points is the merged maximum
            sharpness_maxima.append(max(
                (p[1] for w in agent_report.windows for p in w.weaving_points),
                default=0.0,
            ))
    if not degree_maxima:
        raise ValidationError("no conservative agents in the calibration set")
    # 'higher' interpolation returns an actually observed benign value, so
    # a benign agent tied with the threshold never crosses the strict >
    # comparison used by classification
    def pct(values):
        return float(np.percentile(values, PERCENTILE, method="higher"))

    return Thresholds(
        tau_degree=max(pct(degree_maxima), _POSITIVE_FLOOR),
        tau_closeness=max(pct(closeness_maxima), _POSITIVE_FLOOR),
        weaving_min_sharpness=pct(sharpness_maxima),
    )
