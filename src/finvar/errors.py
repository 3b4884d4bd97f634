"""Exception hierarchy shared by all finvar modules."""


class FinvarError(Exception):
    """Base class for all errors raised by finvar."""


class ExpressionError(FinvarError):
    """Syntax error, undeclared variable or rejected primitive in an expression.

    `position` is the 0-based character offset where the problem was detected.
    """

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class DomainEvalError(FinvarError):
    """Evaluation left the smooth domain: log/sqrt of a non-positive value,
    division by zero, or a real power of a non-positive base."""


class OrderLimitError(FinvarError):
    """Requested jet order exceeds the supported maximum."""


class SingularMetricError(FinvarError):
    """Metric tensor is singular (or numerically near-singular) at the
    evaluation point."""


class ChartError(FinvarError):
    """A point or trajectory left the coordinate chart, or the fiber
    coordinate fell below the zero-section floor."""


class ConfigError(FinvarError):
    """Invalid run configuration or structure (schema violation, inconsistent
    dimensions, a structure that fails its checks); an expression that does
    not parse raises `ExpressionError`."""


class QuadratureError(FinvarError):
    """Quadrature failure: bounding-radius scan failed or the fiber
    acceptance rate collapsed."""
