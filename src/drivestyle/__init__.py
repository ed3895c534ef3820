"""Driver-behavior classification from multi-agent vehicle trajectories.

Pipeline: trajectory ingest -> per-frame traffic-graphs -> closeness and
degree centrality series -> windowed quadratic fits -> style likelihood
and intensity estimates -> aggressive/conservative classification. A
bundled highway microsimulator generates labeled scenarios so the
time-deviation evaluation protocol runs end to end at desk scale.
"""

__version__ = "0.1.0"

from .centrality import CentralitySeries, compute_series
from .errors import (
    ConditioningError,
    ContractViolationError,
    DriveStyleError,
    InsufficientDataError,
    TrajectoryParseError,
    ValidationError,
)
from .evaluation import (
    AnnotationSet,
    annotations_from_labels,
    evaluate_run,
    expected_frame,
    tde,
)
from .ingest import TrajectoryTable, parse_trajectories, serialize_trajectories
from .pipeline import AnalysisParams, RunReport, analyze_table
from .regression import (
    CentralityPolynomial,
    FixedAlpha,
    GridSearchAlpha,
    condition_diagnostics,
    derivative,
    fit_samples,
)
from .sim import (
    AGGRESSIVE_PARAMS,
    CONSERVATIVE_PARAMS,
    DriverParams,
    ManeuverLabel,
    ScenarioConfig,
    SpawnSpec,
    idm_law,
    run_scenario,
    run_scenarios,
)
from .styles import StyleReport, Thresholds

__all__ = [name for name in dir() if not name.startswith("_")]
