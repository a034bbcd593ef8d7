"""Exception and warning types shared across the package.

Every error derives from exactly one of InputError and MathError; the
command line maps the first to exit code 1 and the second to 2.
"""


class MultitileError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MultitileError):
    """The input is malformed or out of range (CLI exit code 1)."""


class MathError(MultitileError):
    """Well-formed input with no mathematical answer (CLI exit code 2)."""


class SingularBasis(InputError):
    """Lattice basis matrix is singular or numerically rank deficient."""


class DimensionMismatch(InputError):
    """Inputs disagree on the ambient dimension."""


class NotATiling(InputError):
    """Cell boxes fail to partition the unit cube up to measure zero."""


class InconsistentK(InputError):
    """Cells carry offset lists of different lengths."""


class DuplicateOffset(InputError):
    """A cell lists the same lattice offset twice."""


class PointOnGap(MathError):
    """Point falls in a measure-zero crack between cell boxes."""


class OutOfDomain(InputError):
    """Point does not belong to the domain."""


class NonUniformShifts(MathError):
    """Operation requires every cell to share one shift index set."""


class SingularCell(MathError):
    """A cell's exponential system matrix is numerically singular."""


class DuplicateNodes(MathError):
    """Vandermonde nodes coincide within tolerance."""


class SingularMatrix(MathError):
    """Dense linear solve hit a numerically singular matrix."""


class NoPairFound(MathError):
    """Admissibility search exhausted its bounds without a certificate."""


class ResidueCollision(MathError):
    """A given (v, q) pair puts two children of one frequency-tree node
    on the same residue, so the spacing is not admissible."""


class SpecFormatError(InputError):
    """Domain or data file violates the documented schema."""


class IllConditionedWarning(UserWarning):
    """Vandermonde system condition number exceeds the safe threshold."""
