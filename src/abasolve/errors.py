"""Exception types shared across the solver modules."""

import numbers


class SolverError(Exception):
    """Base class for all abasolve errors."""


class ValidationError(SolverError):
    """An instance, scheme, or score definition violates its invariants."""


class NonFiniteScore(SolverError):
    """A score evaluated to -inf (or NaN) where a finite value is required."""


class ZeroProbabilitySignal(SolverError):
    """Conditioning on a signal that is sent with probability zero."""


class ZeroProbabilityPair(SolverError):
    """Conditioning on a (signal, bob-outcome) pair of probability zero."""


class BoundaryTangent(SolverError):
    """Tangent point on the simplex boundary where the gradient diverges."""


class SizeCapExceeded(SolverError):
    """A solver refused an instance that exceeds one of its size caps."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class NumericalFailure(SolverError):
    """LP pivoting did not converge within its iteration cap, or a
    solver's result failed its own certificate check."""


class BayesPlausibilityViolated(SolverError):
    """A posterior decomposition whose mean does not match the prior."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class PreconditionViolated(SolverError):
    """An operation was called outside its documented precondition."""


class ParseError(SolverError):
    """An instance, score, or scheme document is structurally malformed."""


def check_count(name: str, value) -> None:
    """Raise ValidationError unless ``value`` is an int or numpy integer
    (not a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name}={value!r} must be an integer")
    if value < 1:
        raise ValidationError(f"{name}={value} must be at least 1")
