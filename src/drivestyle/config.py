"""Run-configuration files: analysis parameters and thresholds as YAML.

A run config is a flat key-value document: ``frame_rate_hz``,
``calibration_scenarios`` and the fields of ``pipeline.AnalysisParams``,
whose defaults fill every key left out. Any other key is an error, and
every value must have its field's YAML type (``mu: true`` or
``window_s: "5"`` is an error, not 1.0 or 5.0). ``analyze`` flags
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

from dataclasses import asdict, dataclass, field, fields

import yaml

from .errors import ValidationError, require_positive
from .ingest import read_yaml, write_text, yaml_float, yaml_int, yaml_record
from .pipeline import AnalysisParams
from .regression import make_alpha_policy
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


def _thresholds_from_dict(raw, name: str = "thresholds") -> Thresholds:
    keys = {f.name: (f.name, yaml_float) for f in fields(Thresholds)}
    return yaml_record(Thresholds, raw, keys, name)


# reader of each AnalysisParams field that is not a real number
_PARAM_READERS = {
    "capacity": yaml_int,
    "alpha_policy": make_alpha_policy,
    "thresholds": _thresholds_from_dict,
}


def _run_config_from_dict(payload: dict) -> RunConfig:
    params = {f.name for f in fields(AnalysisParams)}
    unknown = set(payload) - params - {"frame_rate_hz", "calibration_scenarios"}
    if unknown:
        raise ValidationError(f"unknown run-config keys: {sorted(unknown, key=str)}")
    given = {key: value for key, value in payload.items() if value is not None}
    cfg = RunConfig(params=AnalysisParams(**{
        key: _PARAM_READERS.get(key, yaml_float)(value, key)
        for key, value in given.items()
        if key in params
    }))
    if "frame_rate_hz" in given:
        rate = yaml_float(given["frame_rate_hz"], "frame_rate_hz")
        cfg.frame_rate_hz = require_positive(rate, "frame_rate_hz")
    if "calibration_scenarios" in given:
        paths = given["calibration_scenarios"]
        if not isinstance(paths, list) or not all(isinstance(p, str) for p in paths):
            raise ValueError(
                f"calibration_scenarios must be a list of strings, got {paths!r}"
            )
        cfg.calibration_scenarios = paths
    return cfg


def save_thresholds(thresholds: Thresholds, dest) -> None:
    payload = {name: float(value) for name, value in asdict(thresholds).items()}
    write_text(dest, yaml.safe_dump(payload, sort_keys=False), "thresholds file")


def load_thresholds(path) -> Thresholds:
    """Read a thresholds YAML file (see ``ingest.read_yaml`` for its errors)."""
    return read_yaml(path, "thresholds file", _thresholds_from_dict)
