"""Exception hierarchy shared by all fglforge modules."""


class FGLForgeError(Exception):
    """Base class for every error raised by this package."""


class RingMismatch(FGLForgeError):
    """Binary operation applied to elements of different rings."""


class Unsupported(FGLForgeError):
    """The requested operation has no implementation for this ring family."""


class Undecidable(FGLForgeError):
    """The decision routine does not cover this ring family (scope limit)."""


class NonzeroConstantTerm(FGLForgeError):
    """Series substitution requires the inner series to vanish at 0."""


class NonUnitLinearCoefficient(FGLForgeError):
    """Series reversion requires an invertible linear coefficient."""


class InsufficientPrecision(FGLForgeError):
    """The truncation order is too small for the requested coefficient."""


class AxiomsFailed(FGLForgeError):
    """A formal group law fails one of its axioms at the working precision."""


class IncompatibleRing(FGLForgeError):
    """A named formal group law was requested over an unsuitable ring."""


class NotQAlgebra(FGLForgeError):
    """The operation needs exact division by arbitrary integers."""


class BadLogShape(FGLForgeError):
    """A logarithm must satisfy l(0) = 0 and l'(0) = 1."""


class BadCoordinate(FGLForgeError):
    """A coordinate change must satisfy b(0) = 0 and b'(0) = 1."""


class AlgebroidMismatch(FGLForgeError):
    """Dual functionals over different Hopf algebroids cannot be composed."""


class Inconsistent(FGLForgeError):
    """The triangular system has no solution at this precision."""


class IntegralityViolation(FGLForgeError):
    """Integral inputs produced a non-integral coefficient (implementation bug)."""


class NonInvertibleK(FGLForgeError):
    """Adams operation parameter is not invertible in the coefficient ring."""


class WindowMiss(FGLForgeError):
    """Requested index lies outside the sequence window."""


class ModelMismatch(FGLForgeError):
    """Mixed tower-model and sequence-model operands."""


class InsufficientDepth(FGLForgeError):
    """The requested negative window exceeds the tower depth."""


class ExpressionSyntaxError(FGLForgeError):
    """Malformed source for the coefficient expression grammar."""

    def __init__(self, message, line=1, column=0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownVariable(ExpressionSyntaxError):
    """Expression mentions a name that is not a generator of the target ring."""


class NonIntegerExponent(ExpressionSyntaxError):
    """Exponents in the expression grammar must be integer literals."""
