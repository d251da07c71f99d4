"""Exception types shared across the package."""


class CloneBoundError(ValueError):
    """Base class for all validation errors raised by this package."""


class InvalidBlochError(CloneBoundError):
    """Bloch vector is malformed: wrong shape, non-finite, norm out of range."""


class InvalidStateError(CloneBoundError):
    """Density matrix fails validation (hermiticity, trace, or positivity)."""


class NotHermitianError(InvalidStateError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class RequiresPureInputError(CloneBoundError):
    """Operation defined only for pure input states received a mixed one."""


class NotInFamilyError(CloneBoundError):
    """Extracted Pauli coefficients do not fit the constrained cloner family."""


class InvalidResolutionError(CloneBoundError):
    """Grid resolution not an integer, or outside [3, bounds.MAX_RESOLUTION]."""
