"""Exception types shared across the package."""


class MetricInvError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MetricInvError, ArithmeticError):
    """An elementary function was evaluated outside its domain.

    Typically signals that the metric was evaluated at a chart singularity
    (zero determinant factor, log/sqrt of a non-positive quantity, division
    by a vanishing component).
    """


class ShapeMismatchError(MetricInvError, ValueError):
    """Jets or tensors with incompatible n_vars/order/shape were combined."""


class OrderExceededError(MetricInvError, ValueError):
    """A derivative beyond the jet truncation order was requested."""


class InsufficientOrderError(MetricInvError, ValueError):
    """The operation consumes more derivative orders than the input carries."""


class SingularMetricError(MetricInvError):
    """The metric is degenerate at the evaluation point."""


class UnsupportedDimensionError(MetricInvError, ValueError):
    """The operation is undefined in this dimension (e.g. Weyl for n=2)."""


class SingularFrameError(MetricInvError):
    """The trace invariants do not have independent differentials here.

    For locally homogeneous metrics this is the expected outcome, not a
    crash: `rank` carries the numerical rank of the trace-invariant
    Jacobian so callers can report partial results.
    """

    def __init__(self, rank: int):
        self.rank = rank
        super().__init__(f"invariant Jacobian has rank {rank}")


class AllPointsSingularError(MetricInvError):
    """Every sampled point hit a chart singularity or degenerate metric."""


class PoleAtZeroError(MetricInvError, ArithmeticError):
    """Power-series expansion requested for a function with a pole at z=0."""


class MetricLangError(MetricInvError, ValueError):
    """Base class for metric-definition parsing errors."""


class MetricSyntaxError(MetricLangError):
    """Malformed metric file or expression, with source position."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class UnknownIdentifierError(MetricLangError):
    """An expression references a symbol that is not a coordinate."""

    def __init__(self, name: str, line: int = 0, column: int = 0):
        self.name = name
        loc = f" (line {line}, column {column})" if line else ""
        super().__init__(f"unknown identifier '{name}'{loc}")


class MissingDiagonalError(MetricLangError):
    """A diagonal metric component was left unspecified."""


class DimensionMismatchError(MetricLangError):
    """Declared dimension, coordinates, signature or indices disagree."""
