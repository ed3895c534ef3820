"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: input/validation problems map to 1,
contract violations and broken internal invariants map to 2.
"""

import math


class DriveStyleError(Exception):
    """Base class for all package errors."""


class TrajectoryParseError(DriveStyleError):
    """A trajectory or annotation file could not be parsed.

    Carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(DriveStyleError):
    """Structurally valid input that violates a documented precondition."""


class ContractViolationError(DriveStyleError):
    """A caller broke an API contract (programming error, not bad data)."""


class InsufficientDataError(DriveStyleError):
    """Too few samples for the requested fit."""


class ConditioningError(DriveStyleError):
    """The regression system is numerically singular without regularization."""


def require_positive(value, name: str):
    """Return ``value`` if it is a finite number > 0; ValidationError otherwise."""
    if value is None or not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be finite and positive, got {value}")
    return value


def require_non_negative(value, name: str):
    """Return ``value`` if it is a finite number >= 0; ValidationError otherwise."""
    if value is None or not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"{name} must be finite and non-negative, got {value}")
    return value
