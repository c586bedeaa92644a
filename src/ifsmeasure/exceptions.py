"""Exception types shared across the package.

The command-line runner maps these onto exit codes, so solver code raises
the specific type rather than a bare ValueError where the distinction
matters (precondition violated vs tolerance not reached).
"""

__all__ = ["DimensionMismatch", "FieldMismatch", "PartitionError",
           "NotContractive", "IterationLimit", "RefinementLimit"]


class DimensionMismatch(ValueError):
    """Operands live in coefficient spaces of different dimensions."""


class FieldMismatch(ValueError):
    """Real and complex objects mixed where a single scalar field is required."""


class PartitionError(ValueError):
    """Cells of a simple function do not partition the base space."""


class NotContractive(ValueError):
    """A solver precondition on the contraction factors fails."""


class IterationLimit(RuntimeError):
    """Requested tolerance not certified: the iteration budget ran out, or
    rounding moved the result by more than the bound it would certify."""


class RefinementLimit(RuntimeError):
    """Adaptive quadrature hit its panel budget before meeting the tolerance."""
