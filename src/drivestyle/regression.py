"""Quadratic centrality polynomials fitted by regularized least squares.

The minimizer of ||z - M b||^2 + alpha^2 ||b||^2 over a degree-2
Vandermonde system is solved by LAPACK's SVD solver (gelsd) on the
augmented system [M; alpha*I] rather than by inverting the normal
equations, which is exactly what the raw-Vandermonde condition numbers
punish. Sample times are centered before building M (this changes the
conditioning, not the minimizer) and the coefficients are mapped back to
the absolute-time basis afterwards. ``fit_designs`` gives a stack of time
grids their alphas, condition numbers and Vandermonde matrices as
columns; ``fit_solve``, the one place that adds the alpha*I rows, solves
the rows of each system shape in one call of numpy's lstsq gufunc (its
caller bounds the stack); it runs gelsd once per row: the call
``np.linalg.lstsq`` makes for a single row, bit for bit.
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
_NOT_FINITE = "values, times and squared centered times must be finite"
ALPHA_GRID = (0.0,) + tuple(10.0**k for k in range(-6, 1))


def vandermonde(times: np.ndarray) -> np.ndarray:
    """T x 3 design matrix with rows (1, t, t^2); a (G, T, 3) stack of G grids."""
    t = np.asarray(times, dtype=float)
    with np.errstate(over="ignore"):  # an infinite t^2 is refused by gram_eigenvalues
        return np.stack([np.ones_like(t), t, t * t], axis=-1)


def gram_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a finite MᵀM (else ValidationError), ascending; per matrix of a stack."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.matmul(np.swapaxes(m, -1, -2), m)
    if not np.isfinite(gram).all():
        raise ValidationError(_NOT_FINITE)
    return np.linalg.eigvalsh(gram)


def gram_condition(m: np.ndarray, alpha: float) -> float:
    """Condition number of MᵀM + alpha^2 I (ratio of extreme eigenvalues)."""
    return float(_condition(gram_eigenvalues(m), alpha))


def _condition(eig: np.ndarray, alpha) -> np.ndarray:
    """``gram_condition`` from the (..., 3) eigenvalues of MᵀM, broadcast against alpha."""
    lo = np.maximum(eig[..., 0], 0.0) + alpha * alpha
    hi = eig[..., -1] + alpha * alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lo <= 0.0, np.inf, hi / lo)


class FixedAlpha:
    """Always use one regularization magnitude."""

    def __init__(self, alpha: float):
        self.alpha = require_non_negative(alpha, "alpha")

    def select(self, times: np.ndarray) -> float:
        return self.alpha

    def alpha_for(self, eig: np.ndarray) -> np.ndarray:
        return np.full(eig.shape[:-1], self.alpha, dtype=float)


class GridSearchAlpha:
    """Smallest grid alpha whose regularized condition number meets a cap.

    Falls back to the largest grid value when no candidate meets the cap.
    Holds no state: ``analyze_table`` already selects once per time grid.
    ``alpha_for`` answers a (G, 3) stack of the eigenvalues of MᵀM by one
    (G, 8) comparison; ``select`` computes one grid's from its times.
    """

    def __init__(self, cap: float = DEFAULT_KAPPA_CAP):
        if not (math.isfinite(cap) and cap > 1):
            raise ValidationError(
                f"condition-number cap must be finite and exceed 1, got {cap}"
            )
        self.cap = cap

    def select(self, times: np.ndarray) -> float:
        return float(self.alpha_for(gram_eigenvalues(vandermonde(times))))

    def alpha_for(self, eig: np.ndarray) -> np.ndarray:
        meets = _condition(eig[..., None, :], np.array(ALPHA_GRID)) <= self.cap
        meets[..., -1] = True  # none meets the cap: the largest value
        return np.take(ALPHA_GRID, np.argmax(meets, axis=-1))


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


def fit_designs(tcs: np.ndarray, alpha_policy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, kappa, m) of ``tcs``, a (G, T) stack of centered time grids.

    Per grid, of shape (G,): the policy's alpha and the condition number of
    the regularized Gram matrix; ``m`` is the (G, T, 3) Vandermonde stack.
    A design depends on the times only, so samples that share a time grid
    share it. The Gram matrices and their eigenvalues come from one stacked
    call each, which runs the BLAS/LAPACK routine the one-grid call runs,
    per matrix. Raises ConditioningError if a grid's system is rank
    deficient where the policy selected alpha = 0.
    """
    m = vandermonde(tcs)
    eig = gram_eigenvalues(m)
    alpha = alpha_policy.alpha_for(eig)
    kappa = _condition(eig, alpha)
    if np.any((alpha == 0.0) & (kappa > _SINGULAR_KAPPA)):
        raise ConditioningError(
            "design matrix is rank deficient with alpha = 0; "
            "select a regularized alpha policy"
        )
    return alpha, kappa, m


def _svd_failed(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution (K x n) of each system a[k] (m x n) against b[k], in one gufunc call."""
    _, m, n = a.shape
    # numpy 1.x has one gufunc per shape and picks it as below
    lstsq = getattr(_umath_linalg, "lstsq", None) or (
        _umath_linalg.lstsq_m if m <= n else _umath_linalg.lstsq_n)
    rcond = np.finfo(float).eps * max(m, n)
    with np.errstate(call=_svd_failed, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        return lstsq(a, b[:, :, None], rcond, signature="ddd->ddid")[0][:, :, 0]


def fit_solve(m: np.ndarray, alpha: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Centered coefficients (K x 3) of row k of ``rows`` (K x T) on design k.

    Design k is ``m[k]``, stacked over ``alpha[k] * I`` with zero targets
    where alpha[k] > 0 (``m`` and ``alpha`` as ``fit_designs`` gives them).
    Each row is solved as ``np.linalg.lstsq(A, row, rcond=None)`` solves
    it, bit for bit, the rows of each system shape in one gufunc call:
    ``analyze_table`` hands it the rows of at most ``_BLOCK_WINDOWS``
    windows. An SVD that does not converge raises LinAlgError, as there.
    """
    ridge = alpha > 0.0
    if not ridge.any():
        return _lstsq(m, rows)
    a = np.concatenate([m[ridge], alpha[ridge, None, None] * np.eye(3)], axis=1)
    z = np.concatenate([rows[ridge], np.zeros((len(a), 3))], axis=1)  # zero targets
    beta = np.empty((len(m), 3))
    beta[ridge] = _lstsq(a, z)
    if not ridge.all():
        beta[~ridge] = _lstsq(m[~ridge], rows[~ridge])
    return beta


def uncenter(beta_c: np.ndarray, t_bars: np.ndarray) -> np.ndarray:
    """Absolute-time coefficients (K x 3) of centered ones fitted about ``t_bars``."""
    c0, c1, c2 = beta_c.T
    # zeta(t) = c0 + c1*(t - t_bar) + c2*(t - t_bar)^2, expanded in t:
    return np.stack([c0 - c1 * t_bars + c2 * t_bars * t_bars,
                     c1 - 2.0 * c2 * t_bars, c2], axis=1)


def fit_samples(times, values, alpha_policy=None) -> CentralityPolynomial:
    """Fit a quadratic to (time, value) samples: ``fit_designs`` then ``fit_solve``.

    ``times`` are absolute seconds. Raises InsufficientDataError below 3
    samples, ValidationError for a value that is not finite or a time
    whose design is not (``gram_eigenvalues``), and ConditioningError
    when the system is rank deficient and the policy selected alpha = 0.
    """
    t = np.asarray(times, dtype=float)
    z = np.asarray(values, dtype=float)
    if t.shape != z.shape or t.ndim != 1:
        raise ValidationError("times and values must be 1-D arrays of equal length")
    if t.size < POLY_DEGREE + 1:
        raise InsufficientDataError(
            f"need at least {POLY_DEGREE + 1} samples for a quadratic fit, got {t.size}"
        )
    if not np.isfinite(z).all():
        raise ValidationError(_NOT_FINITE)
    with np.errstate(over="ignore", invalid="ignore"):  # gram_eigenvalues refuses inf and NaN
        t_bar = t.mean()
        tc = t - t_bar
    alpha, kappa, m = fit_designs(tc[None], alpha_policy or DEFAULT_ALPHA_POLICY)
    coefficients = uncenter(fit_solve(m, alpha, z[None]), t_bar)[0]
    return CentralityPolynomial(tuple(coefficients.tolist()), (float(t.min()), float(t.max())),
                                float(alpha[0]), float(kappa[0]))


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
