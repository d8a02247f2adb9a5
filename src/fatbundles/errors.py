"""Exception types shared across the package."""


class FatBundleError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(FatBundleError, ValueError):
    """Vector or matrix sizes do not match the ambient algebra."""


class DegenerateRestriction(FatBundleError):
    """The Killing form is singular on the requested subalgebra, so no
    reductive splitting exists."""


class NotCompact(FatBundleError):
    """The Killing form is not negative definite on the subalgebra."""


class TorusMismatch(FatBundleError):
    """The joint eigenvalues of the torus action do not match the given
    root system (wrong torus convention or wrong rank)."""


class OddDimension(FatBundleError, ValueError):
    """A symplectic-type operation was asked for on an odd-dimensional
    space."""


class ScaleFailure(FatBundleError):
    """The pinched-tensor generator could not rescale the perturbation
    into the declared curvature bracket."""


class InvolutionInvalid(FatBundleError):
    """The candidate Cartan involution is not an involutive automorphism
    with compact fixed part."""


class CriteriaDisagree(FatBundleError):
    """The independent fatness criteria returned different verdicts.

    This is always an error state (an implementation bug or a tolerance
    failure), never resolved by majority vote.  The partial certificate,
    with all witnesses, is attached as ``certificate``.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate
