"""Exception types shared across the package."""


class CerticubeError(Exception):
    """Base class for all package errors."""


class DegenerateSimplex(CerticubeError):
    """Vertices are (numerically) affinely dependent."""


class DimensionMismatch(CerticubeError):
    """Operands live in different ambient dimensions."""


class EvaluationFailure(CerticubeError):
    """An integrand returned a non-finite value, or has no Hessian."""


class NegativeGauge(CerticubeError):
    """A curvature constant K < 0 was supplied."""


class UnsupportedDegree(CerticubeError):
    """Moment requested beyond total degree 2."""


class UnsupportedDimension(CerticubeError):
    """Dimension past the exact moment tables, or too large for a sampled
    lattice to fit in memory."""


class UnknownRule(CerticubeError):
    """No built-in cubature rule with that name."""


class InvariantViolation(CerticubeError):
    """A structural invariant of a rule or result is violated."""


class RuleNotApplicable(CerticubeError):
    """Rule fails the positivity / degree-2 exactness preconditions.

    Carries the offending verification report in ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConvexityScreenFailed(CerticubeError):
    """Sampled Hessian screening found a non-convex direction."""


class ParseError(CerticubeError):
    """Malformed expression or rule/simplex file.

    ``position`` is a character offset (expressions) or ``line`` a
    1-based line number (files; None for a file with no line to blame,
    an empty one); ``expected`` lists acceptable tokens.
    """

    def __init__(self, message, position=None, line=None, expected=()):
        super().__init__(message)
        self.position = position
        self.line = line
        self.expected = tuple(expected)


class ArityError(CerticubeError):
    """Expression references a variable beyond x1..xn."""


class BudgetExhausted(CerticubeError):
    """Adaptive refinement hit max_cells/max_depth before the tolerance.

    ``result`` holds the best certified result reached so far.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
