"""Exception types shared across the package.

Everything raised on purpose derives from :class:`AsymspecError`, so callers
(and the CLI) can tell deliberate diagnostics from genuine bugs.
"""

from __future__ import annotations


class AsymspecError(Exception):
    """Base class for all errors raised by this package.

    ``param`` names the parameter whose value is at fault, where the error
    is about one (or about the joint value of a few, named as a group), so
    that a front end can name the option that carried it.
    """

    def __init__(self, *args, param: str | None = None) -> None:
        super().__init__(*args)
        self.param = param


class DimensionMismatch(AsymspecError):
    """Operands or family members do not share the required dimension."""


class BadParameter(AsymspecError):
    """A parameter is outside its documented domain."""


class OutOfRange(AsymspecError):
    """An integer argument (order, index, exponent) exceeds its cap."""


class LengthMismatch(AsymspecError):
    """A per-sample sequence does not line up with the grid."""


class TraceError(AsymspecError):
    """A scalar trace could not be evaluated at some grid sample."""

    def __init__(self, h: float, message: str) -> None:
        super().__init__(f"trace evaluation failed at h={h!r}: {message}")
        self.h = h


class ExprError(AsymspecError):
    """An entry expression failed to evaluate."""


class ParseError(AsymspecError):
    """The expression source does not match the grammar.

    Carries the byte offset of the failure and the set of token descriptions
    that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()) -> None:
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = frozenset(expected)


class UnboundVariable(AsymspecError):
    """An expression referenced a variable missing from the bindings."""


class DivisionNearZero(AsymspecError):
    """A division's denominator magnitude fell below 1e-300."""


class UnresolvedPoint(AsymspecError):
    """The requested point is not numerically resolved for the family."""


class SingularOnContour(AsymspecError):
    """A quadrature node produced a singular shifted matrix."""


class NonEnclosing(AsymspecError):
    """The integration contour does not enclose the flagged spectrum."""


class QuadratureUnresolved(AsymspecError):
    """A contour quadrature's error estimate misses the tolerance at its node cap."""


class SchemaError(AsymspecError):
    """A JSON document does not match the expected schema.

    ``path`` is a JSON-pointer-style location of the offending value.
    """

    def __init__(self, message: str, path: str = "") -> None:
        super().__init__(f"{path or '/'}: {message}")
        self.path = path
