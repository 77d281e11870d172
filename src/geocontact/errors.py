"""Exception types shared across the toolkit, and the converter of finite-number flags."""

import math


class GeoContactError(Exception):
    """Base class for all toolkit errors."""


class ExprError(GeoContactError):
    """Base class for expression parsing/evaluation errors."""


class ExprSyntaxError(ExprError):
    """Malformed expression source.

    Carries the byte offset of the failure and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = frozenset(expected)


class UnknownIdentifier(ExprSyntaxError):
    """Identifier that is neither a variable x1..x3 nor a known function."""


class DomainError(ExprError):
    """Evaluation left the domain of a partial function (log, sqrt, /, ^).

    ``subexpression`` is the printed form of the offending AST node; ``point``
    is the first point where it failed, when the batch had one (else None),
    and the message ends with it.
    """

    def __init__(self, message, subexpression, point=None):
        at = "" if point is None else f" at {point}"
        super().__init__(f"{message} in '{subexpression}'{at}")
        self.subexpression, self.point = subexpression, point


class OutOfChart(GeoContactError):
    """Point (or a finite-difference stencil around it) left the chart domain."""


class SingularMetric(GeoContactError):
    """Metric matrix numerically non-invertible."""


class NotPositiveDefinite(GeoContactError):
    """Metric matrix not positive definite at a point of the chart."""


class DegenerateSeed(GeoContactError):
    """Both frame seeds lie (numerically) in the span of the field."""


class DegeneratePlane(GeoContactError):
    """Sectional curvature requested for linearly dependent vectors."""


class NotUnit(GeoContactError):
    """Field fails the unit-norm precondition at the requested point."""


class StepTooLarge(GeoContactError):
    """Transported frame drifted from orthonormality; halve the step."""


class UnknownEntry(GeoContactError):
    """No catalog entry under the requested name."""


class NotConstantCurvature(GeoContactError):
    """Manifold failed the constant-curvature precheck."""


class NoParametrization(GeoContactError):
    """Entry has no integration parametrization for volume quadrature."""


class ConfigError(GeoContactError):
    """Invalid CLI configuration document."""


def finite_number(value):
    """Converter of a finite number for the CLI flags."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("not a finite number")
    return number
