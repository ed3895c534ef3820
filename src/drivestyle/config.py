"""Run-configuration files: analysis parameters and thresholds as YAML.

A run config is a flat key-value document: ``frame_rate_hz``,
``calibration_scenarios`` and the fields of ``pipeline.AnalysisParams``,
whose defaults fill every key left out. Any other key is an error, and
every value must have its field's YAML type (``mu: true`` or
``window_s: "5"`` is an error, not 1.0 or 5.0; ``mu: null`` is an error,
not the default, and only ``stride_s`` and ``frame_rate_hz``, whose
default is none, may be null). ``pipeline.params_from_dict`` reads the
parameters, as it reads a report's. ``analyze`` flags
override ``frame_rate_hz``, ``mu``, ``window_s``, ``stride_s``,
``epsilon_s`` and ``thresholds``. Example:

    frame_rate_hz: 10.0
    mu: 100.0
    capacity: 256
    window_s: 5.0
    stride_s: 2.5
    epsilon_s: 0.5
    alpha_policy: {kind: grid, cap: 1.0e6}
    thresholds: {tau_degree: 0.5, tau_closeness: 0.02, weaving_min_sharpness: 0.01}
    calibration_scenarios: [scenarios/calib_a.yaml, scenarios/calib_b.yaml]
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .errors import require_positive
from .ingest import read_yaml, write_yaml, yaml_float
from .pipeline import AnalysisParams, params_from_dict, thresholds_from_dict
from .styles import Thresholds


@dataclass
class RunConfig:
    """A run config: the analysis parameters and what only the CLI reads."""

    frame_rate_hz: float | None = None
    params: AnalysisParams = field(default_factory=AnalysisParams)
    calibration_scenarios: list[str] = field(default_factory=list)


def load_run_config(path) -> RunConfig:
    """Read a run-config YAML file (see ``ingest.read_yaml`` for its errors)."""
    return read_yaml(path, "run config", _run_config_from_dict)


def _run_config_from_dict(payload: dict) -> RunConfig:
    own = ("frame_rate_hz", "calibration_scenarios")
    cfg = RunConfig(params=params_from_dict(
        {key: value for key, value in payload.items() if key not in own}, "run-config"
    ))
    if payload.get("frame_rate_hz") is not None:
        rate = yaml_float(payload["frame_rate_hz"], "frame_rate_hz")
        cfg.frame_rate_hz = require_positive(rate, "frame_rate_hz")
    if "calibration_scenarios" in payload:
        paths = payload["calibration_scenarios"]
        if not isinstance(paths, list) or not all(isinstance(p, str) for p in paths):
            raise ValueError(
                f"calibration_scenarios must be a list of strings, got {paths!r}"
            )
        cfg.calibration_scenarios = paths
    return cfg


def save_thresholds(thresholds: Thresholds, dest) -> None:
    payload = {name: float(value) for name, value in asdict(thresholds).items()}
    write_yaml(dest, payload, "thresholds file")


def load_thresholds(path) -> Thresholds:
    """Read a thresholds YAML file (see ``ingest.read_yaml`` for its errors)."""
    return read_yaml(path, "thresholds file", thresholds_from_dict)
