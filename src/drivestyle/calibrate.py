"""Threshold calibration from conservative-class simulator traffic.

The classification cut-offs are the 90th percentiles of the per-agent
SLE maxima (and weaving sharpness maxima) observed for conservative
agents across a calibration scenario set, read from the threshold-free
score columns of each run (``RunReport.scores``); merging keeps each
cluster's sharpest point, so an agent's largest merged sharpness is its
largest raw one. The calibration set should include the roughest benign
traffic the thresholds are expected to tolerate; percentiles of a
too-gentle set will flag ordinary drivers.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import ValidationError
from .pipeline import AnalysisParams, analyze_table
from .sim import CLASS_CONSERVATIVE, ScenarioConfig, SimResult, iter_scenarios
from .styles import Thresholds

# Not called here: calibration runs its scenarios together. Its only reader
# is perfbench/tracer.py, which wraps it under this name.
from .sim import run_scenario  # noqa: F401

_POSITIVE_FLOOR = 1e-9  # thresholds are contractually strictly positive

PERCENTILE = 90.0


def calibrate_thresholds(scenarios: list[ScenarioConfig], params: AnalysisParams) -> Thresholds:
    """Run the calibration scenarios and take percentiles (``thresholds_from_runs``).

    The worlds run together (``sim.run_scenarios``), and each table is
    built as its run is analysed, so one is held at a time. Deterministic
    for a fixed scenario list (scenario seeds drive all randomness).
    """
    return thresholds_from_runs(iter_scenarios(scenarios), params)


def thresholds_from_runs(results: Iterable[SimResult], params: AnalysisParams) -> Thresholds:
    """Analyse simulator runs and take percentiles of their conservative agents' maxima.

    Raises ValidationError when there is no run, or no conservative agent.
    """
    pools = []  # per run: its conservative agents' three maxima
    for result in results:
        report = analyze_table(result.table, params)
        scores = report.scores
        sharpest = np.zeros(len(scores.count))  # 0.0 for an agent without points
        np.maximum.at(sharpest, scores.owner, scores.sharpness)
        conservative = np.array([result.agent_classes[a.agent_id] == CLASS_CONSERVATIVE
                                 for a in report.agents], dtype=bool)
        pools.append(np.stack([scores.degree.sle_max, scores.closeness.sle_max,
                               sharpest])[:, conservative])
    if not pools:
        raise ValidationError("calibration scenario set is empty")
    degree_maxima, closeness_maxima, sharpness_maxima = np.concatenate(pools, axis=1)
    if not degree_maxima.size:
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
