"""Run-configuration files: analysis parameters and thresholds as YAML.

A run config is a flat key-value document; every key has a default and
every key can be overridden by a CLI flag. Example:

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

from dataclasses import dataclass, field

import yaml

from .errors import ValidationError
from .graph import DEFAULT_CAPACITY, DEFAULT_MU
from .ingest import read_yaml, write_text, yaml_int
from .pipeline import DEFAULT_EPSILON_S, DEFAULT_WINDOW_S, AnalysisParams
from .regression import DEFAULT_KAPPA_CAP, FixedAlpha, GridSearchAlpha
from .styles import DEFAULT_THRESHOLDS, Thresholds


@dataclass
class RunConfig:
    frame_rate_hz: float | None = None
    mu: float = DEFAULT_MU
    capacity: int = DEFAULT_CAPACITY
    window_s: float = DEFAULT_WINDOW_S
    stride_s: float | None = None
    epsilon_s: float = DEFAULT_EPSILON_S
    alpha_policy: dict = field(default_factory=lambda: {"kind": "grid"})
    thresholds: Thresholds = field(default_factory=lambda: DEFAULT_THRESHOLDS)
    calibration_scenarios: list[str] = field(default_factory=list)


def make_alpha_policy(spec: dict):
    kind = spec.get("kind", "grid")
    if kind == "grid":
        return GridSearchAlpha(cap=float(spec.get("cap", DEFAULT_KAPPA_CAP)))
    if kind == "fixed":
        if "alpha" not in spec:
            raise ValidationError("fixed alpha policy requires an 'alpha' value")
        return FixedAlpha(float(spec["alpha"]))
    raise ValidationError(f"unknown alpha policy kind {kind!r}")


def load_run_config(path) -> RunConfig:
    """Read a run-config YAML file (see ``ingest.read_yaml`` for its errors)."""
    return read_yaml(path, "run config", _run_config_from_dict)


def _run_config_from_dict(payload: dict) -> RunConfig:
    known = {
        "frame_rate_hz", "mu", "capacity", "window_s", "stride_s", "epsilon_s",
        "alpha_policy", "thresholds", "calibration_scenarios",
    }
    unknown = set(payload) - known
    if unknown:
        raise ValidationError(f"unknown run-config keys: {sorted(unknown)}")
    cfg = RunConfig()
    for key in ("frame_rate_hz", "mu", "window_s", "epsilon_s", "stride_s"):
        if payload.get(key) is not None:
            setattr(cfg, key, float(payload[key]))
    if payload.get("capacity") is not None:
        cfg.capacity = yaml_int(payload["capacity"], "capacity")
    if payload.get("alpha_policy") is not None:
        if not isinstance(payload["alpha_policy"], dict):
            raise ValidationError("alpha_policy must be a mapping")
        make_alpha_policy(payload["alpha_policy"])  # fail while the file is known
        cfg.alpha_policy = payload["alpha_policy"]
    if payload.get("thresholds") is not None:
        cfg.thresholds = _thresholds_from_dict(payload["thresholds"])
    if payload.get("calibration_scenarios") is not None:
        cfg.calibration_scenarios = [str(p) for p in payload["calibration_scenarios"]]
    return cfg


def _thresholds_from_dict(raw: dict) -> Thresholds:
    return Thresholds(
        tau_degree=float(raw["tau_degree"]),
        tau_closeness=float(raw["tau_closeness"]),
        weaving_min_sharpness=float(raw.get("weaving_min_sharpness", 0.0)),
    )


def analysis_params(cfg: RunConfig) -> AnalysisParams:
    return AnalysisParams(
        mu=cfg.mu,
        capacity=cfg.capacity,
        window_s=cfg.window_s,
        stride_s=cfg.stride_s,
        epsilon_s=cfg.epsilon_s,
        thresholds=cfg.thresholds,
        alpha_policy=make_alpha_policy(cfg.alpha_policy),
    )


def save_thresholds(thresholds: Thresholds, dest) -> None:
    payload = {
        "tau_degree": float(thresholds.tau_degree),
        "tau_closeness": float(thresholds.tau_closeness),
        "weaving_min_sharpness": float(thresholds.weaving_min_sharpness),
    }
    write_text(dest, yaml.safe_dump(payload, sort_keys=False), "thresholds file")


def load_thresholds(path) -> Thresholds:
    """Read a thresholds YAML file (see ``ingest.read_yaml`` for its errors)."""
    return read_yaml(path, "thresholds file", _thresholds_from_dict)
