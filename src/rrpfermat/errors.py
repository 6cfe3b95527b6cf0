"""Exception types shared across the package.

Domain violations are ValueError subclasses so callers can be as coarse or
as fine as they like.  ConsistencyError is different: it marks an internal
cross-check failing (two independent routes disagreeing, an exact division
leaving a remainder) and always indicates a bug, never bad input.
"""


class NotInertError(ValueError):
    """2 does not stay prime in the field, so the requested local ring at 2
    cannot be built as a single Galois ring."""


class NotCoprimeError(ValueError):
    """Inputs required to be coprime are not."""


class NonUnitError(ValueError):
    """A residue-ring operation that needs a unit received a non-unit."""


class PrecisionError(ValueError):
    """2-adic precision below the level where the square obstructions are
    defined (mod 8)."""


class NotSquarefreeError(ValueError):
    """A squarefree polynomial or integer was required."""


class DegenerateCurveError(ValueError):
    """ABC = 0: the curve model is singular and j is undefined."""


class UnfactoredCofactorError(RuntimeError):
    """Trial division left a cofactor with no prime factor up to the
    smoothness bound and a square root above it, which Miller-Rabin did not
    prove prime, so it is neither split nor proved prime; the caller must
    not treat the partial factorization as complete."""


class TableError(ValueError):
    """Malformed or inconsistent external parity table."""


class ConsistencyError(RuntimeError):
    """Two routes that must agree did not; internal bug, not bad input."""
