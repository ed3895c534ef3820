"""Quadratic centrality polynomials fitted by regularized least squares.

The minimizer of ||z - M b||^2 + alpha^2 ||b||^2 over a degree-2
Vandermonde system is solved by LAPACK's SVD solver (gelsd) on the
augmented system [M; alpha*I] rather than by inverting the normal
equations, which is exactly what the raw-Vandermonde condition numbers
punish. Sample times are centered before building M (this changes the
conditioning, not the minimizer) and the coefficients are mapped back to
the absolute-time basis afterwards. A stack of designs of one shape and
their rows of samples go to numpy's lstsq gufunc, ``_SOLVE_ROWS`` rows
per call; it runs gelsd once per row: the call ``np.linalg.lstsq``
makes for a single row, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import (
    ConditioningError,
    ContractViolationError,
    InsufficientDataError,
    ValidationError,
    require_non_negative,
    require_positive,
)
from .ingest import yaml_float, yaml_record, yaml_str

POLY_DEGREE = 2

# Effective singularity cutoff: a raw Gram condition number above this is
# treated as rank deficiency when no regularization is requested.
_SINGULAR_KAPPA = 1e12

DEFAULT_KAPPA_CAP = 1e6
ALPHA_GRID = (0.0,) + tuple(10.0**k for k in range(-6, 1))

# rows per lstsq gufunc call in fit_solve: bounds the stacked systems held at once
_SOLVE_ROWS = 256


def vandermonde(times: np.ndarray) -> np.ndarray:
    """T x 3 design matrix with rows (1, t, t^2)."""
    t = np.asarray(times, dtype=float)
    return np.column_stack([np.ones_like(t), t, t * t])


def gram_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of MᵀM, ascending."""
    return np.linalg.eigvalsh(m.T @ m)


def gram_condition(m: np.ndarray, alpha: float) -> float:
    """Condition number of MᵀM + alpha^2 I (ratio of extreme eigenvalues)."""
    return _condition(gram_eigenvalues(m), alpha)


def _condition(eig: np.ndarray, alpha: float) -> float:
    """``gram_condition`` from the eigenvalues of MᵀM."""
    lo = max(float(eig[0]), 0.0) + alpha * alpha
    hi = float(eig[-1]) + alpha * alpha
    if lo <= 0.0:
        return float("inf")
    return hi / lo


class FixedAlpha:
    """Always use one regularization magnitude."""

    def __init__(self, alpha: float):
        self.alpha = require_non_negative(alpha, "alpha")

    def select(self, times: np.ndarray) -> float:
        return self.alpha

    def alpha_for(self, eig: np.ndarray) -> float:
        return self.alpha


class GridSearchAlpha:
    """Smallest grid alpha whose regularized condition number meets a cap.

    Falls back to the largest grid value when no candidate meets the cap.
    Holds no state: ``analyze_table`` already selects once per time grid.
    ``alpha_for`` reads the eigenvalues of MᵀM that ``fit_design`` also
    takes its condition number from; ``select`` computes them from times.
    """

    def __init__(self, cap: float = DEFAULT_KAPPA_CAP):
        if not (math.isfinite(cap) and cap > 1):
            raise ValidationError(
                f"condition-number cap must be finite and exceed 1, got {cap}"
            )
        self.cap = cap

    def select(self, times: np.ndarray) -> float:
        return self.alpha_for(gram_eigenvalues(vandermonde(times)))

    def alpha_for(self, eig: np.ndarray) -> float:
        for alpha in ALPHA_GRID:
            if _condition(eig, alpha) <= self.cap:
                return alpha
        return ALPHA_GRID[-1]


DEFAULT_ALPHA_POLICY = GridSearchAlpha()

# alpha_policy kind -> (policy class, its mapping keys besides ``kind``);
# each key names the constructor argument and the attribute that holds it
_ALPHA_POLICIES = {
    "grid": (GridSearchAlpha, {"cap": ("cap", yaml_float)}),
    "fixed": (FixedAlpha, {"alpha": ("alpha", yaml_float)}),
}


def make_alpha_policy(spec, name: str = "alpha_policy"):
    """The policy a mapping such as ``{kind: grid, cap: 1e6}`` names."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{name} must be a mapping, got {spec!r}")
    kind = yaml_str(spec.get("kind", "grid"), "kind")
    if kind not in _ALPHA_POLICIES:
        raise ValidationError(f"unknown alpha policy kind {kind!r}")
    cls, keys = _ALPHA_POLICIES[kind]
    settings = {key: value for key, value in spec.items() if key != "kind"}
    return yaml_record(cls, settings, keys, f"{kind} {name}")


def alpha_policy_spec(policy) -> dict:
    """The mapping ``make_alpha_policy`` turns back into ``policy``.

    Raises ContractViolationError for a policy type it cannot name.
    """
    for kind, (cls, keys) in _ALPHA_POLICIES.items():
        if type(policy) is cls:
            return {"kind": kind, **{key: getattr(policy, attr)
                                     for key, (attr, _) in keys.items()}}
    raise ContractViolationError(f"alpha policy {policy!r} has no mapping form")


@dataclass(frozen=True)
class CentralityPolynomial:
    """zeta(t) = b0 + b1*t + b2*t^2 over a closed time domain (seconds)."""

    coefficients: tuple[float, float, float]
    domain: tuple[float, float]
    alpha: float = 0.0
    condition_number: float = 1.0

    def evaluate(self, t):
        b0, b1, b2 = self.coefficients
        t = np.asarray(t, dtype=float)
        out = b0 + b1 * t + b2 * t * t
        return float(out) if out.ndim == 0 else out


def fit_design(tc: np.ndarray, alpha_policy) -> tuple[float, float, np.ndarray]:
    """(alpha, kappa, A): the least-squares system for centered times ``tc``.

    ``A`` is the Vandermonde matrix of ``tc``, stacked over alpha*I when
    the policy selects alpha > 0; kappa is the condition number of its
    Gram matrix. The design depends on the times only, so samples that
    share a time grid share it. Raises ConditioningError when the system
    is rank deficient and the policy selected alpha = 0.
    """
    m = vandermonde(tc)
    eig = gram_eigenvalues(m)  # once per design: the policy and kappa share it
    alpha = float(alpha_policy.alpha_for(eig))
    kappa = _condition(eig, alpha)
    if alpha == 0.0 and kappa > _SINGULAR_KAPPA:
        raise ConditioningError(
            "design matrix is rank deficient with alpha = 0; "
            "select a regularized alpha policy"
        )
    if alpha == 0.0:
        return alpha, kappa, m
    return alpha, kappa, np.vstack([m, alpha * np.eye(POLY_DEGREE + 1)])


def _svd_failed(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def fit_solve(designs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Centered coefficients (K x 3) of row k of ``rows`` (K x T) on ``designs[k]``.

    ``designs`` is a (K, m, 3) stack of ``fit_design`` matrices of one
    shape; each row is solved as ``np.linalg.lstsq(A, row, rcond=None)``
    solves it, bit for bit, ``_SOLVE_ROWS`` rows per gufunc call. An SVD
    that does not converge raises LinAlgError, as it does there.
    """
    k, m, n = designs.shape
    # numpy 1.x has one gufunc per shape and picks it as below
    lstsq = getattr(_umath_linalg, "lstsq", None) or (
        _umath_linalg.lstsq_m if m <= n else _umath_linalg.lstsq_n)
    rcond = np.finfo(float).eps * max(m, n)
    out = np.empty((k, n))
    with np.errstate(call=_svd_failed, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        for b in range(0, k, _SOLVE_ROWS):
            a = designs[b:b + _SOLVE_ROWS]
            rhs = np.zeros((len(a), m, 1))  # zero targets for the alpha*I rows, if any
            rhs[:, :rows.shape[1], 0] = rows[b:b + _SOLVE_ROWS]
            out[b:b + _SOLVE_ROWS] = lstsq(a, rhs, rcond, signature="ddd->ddid")[0][:, :, 0]
    return out


def uncenter(beta_c: np.ndarray, t_bars: np.ndarray) -> np.ndarray:
    """Absolute-time coefficients (K x 3) of centered ones fitted about ``t_bars``."""
    c0, c1, c2 = beta_c.T
    # zeta(t) = c0 + c1*(t - t_bar) + c2*(t - t_bar)^2, expanded in t:
    return np.stack([c0 - c1 * t_bars + c2 * t_bars * t_bars,
                     c1 - 2.0 * c2 * t_bars, c2], axis=1)


def fit_samples(times, values, alpha_policy=None) -> CentralityPolynomial:
    """Fit a quadratic to (time, value) samples: ``fit_design`` then ``fit_solve``.

    ``times`` are absolute seconds. Raises InsufficientDataError below 3
    samples and ConditioningError when the system is rank deficient and
    the policy selected alpha = 0.
    """
    t = np.asarray(times, dtype=float)
    z = np.asarray(values, dtype=float)
    if t.shape != z.shape or t.ndim != 1:
        raise ValidationError("times and values must be 1-D arrays of equal length")
    if t.size < POLY_DEGREE + 1:
        raise InsufficientDataError(
            f"need at least {POLY_DEGREE + 1} samples for a quadratic fit, got {t.size}"
        )
    policy = alpha_policy if alpha_policy is not None else DEFAULT_ALPHA_POLICY

    t_bar = t.mean()
    alpha, kappa, a = fit_design(t - t_bar, policy)
    coefficients = uncenter(fit_solve(a[None], z[None]), t_bar)[0]
    domain = (float(t.min()), float(t.max()))
    return CentralityPolynomial(tuple(coefficients.tolist()), domain, alpha, kappa)


def fit(
    first_frame: int, values, alpha_policy=None, frame_rate_hz: float = 1.0
) -> CentralityPolynomial:
    """Fit a centrality series sampled at consecutive frames from ``first_frame``.

    Sample times are frame / frame_rate_hz seconds.
    """
    require_positive(frame_rate_hz, "frame_rate_hz")
    times = np.arange(first_frame, first_frame + len(values)) / frame_rate_hz
    return fit_samples(times, values, alpha_policy)


def derivative(poly: CentralityPolynomial, order: int) -> CentralityPolynomial:
    """Analytic first or second derivative, same domain and provenance."""
    b0, b1, b2 = poly.coefficients
    if order == 1:
        coeff = (b1, 2.0 * b2, 0.0)
    elif order == 2:
        coeff = (2.0 * b2, 0.0, 0.0)
    else:
        raise ValidationError(f"derivative order must be 1 or 2, got {order}")
    return replace(poly, coefficients=coeff)


def condition_diagnostics(t_count: int, alpha: float) -> tuple[float, float]:
    """(kappa_raw, kappa_regularized) of the uncentered Gram system.

    Uses the canonical sample times t = 0..T-1 that make the raw
    Vandermonde Gram matrix grow ill-conditioned with T.
    """
    if t_count < POLY_DEGREE + 1:
        raise InsufficientDataError(
            f"need at least {POLY_DEGREE + 1} samples, got {t_count}"
        )
    require_non_negative(alpha, "alpha")
    m = vandermonde(np.arange(t_count, dtype=float))
    return gram_condition(m, 0.0), gram_condition(m, alpha)
