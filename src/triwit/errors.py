"""Exception hierarchy shared by all triwit modules."""


class TriwitError(Exception):
    """Base class for all errors raised by this package."""


class DimMismatch(TriwitError):
    """Shapes or subsystem dimensions are inconsistent."""


class NotHermitian(TriwitError):
    """A matrix required to be Hermitian fails the symmetry gate."""


class DegeneratePencil(TriwitError):
    """The right-hand matrix of a generalized eigenproblem is numerically zero."""


class ZeroVector(TriwitError):
    """An operation that needs a nonzero vector received (numerically) zero."""


class NotAdmissible(TriwitError):
    """A rank triplet lies outside the admissible region for the given dimensions."""


class NotPSD(TriwitError):
    """A matrix required to be positive semidefinite has a negative eigenvalue.

    The offending eigenvalue is kept as evidence.
    """

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(f"matrix is not PSD (min eigenvalue {min_eigenvalue:.3e})")


class NonPositive(TriwitError):
    """A parameter required to be strictly positive is not."""


class ConsistencyError(TriwitError):
    """Two computation routes that must agree produced different values."""
