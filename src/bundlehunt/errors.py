"""Exception hierarchy shared by all modules."""


class BundleHuntError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(BundleHuntError):
    """Matrix shapes are incompatible with the requested operation."""


class NotABundleError(BundleHuntError):
    """A transition matrix whose determinant is not a unit of the Laurent ring."""


class ProfileError(BundleHuntError):
    """An h^0 profile that cannot come from a splitting type of the stated rank and degree."""


class InvalidCocycleError(BundleHuntError):
    """Cocycle entries violate the normal-form support windows."""


class InvalidRequestError(BundleHuntError):
    """A hunt request that violates the basic preconditions (gamma <= 0, rank < 2, integrality)."""


class UnsupportedCaseError(BundleHuntError):
    """alpha and beta both integral: the open case, deliberately rejected."""


class GenericityExhaustedError(BundleHuntError):
    """No generic extension datum with a natural table found within the resample budget."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class VerificationFailedError(BundleHuntError):
    """A freshly hunted bundle failed its own verification; indicates a bug, never expected."""


class OracleInconclusiveError(BundleHuntError):
    """The Cech oracle's section counts contradict the Euler characteristic; never expected."""
