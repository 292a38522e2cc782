"""Exception types raised across the package.

Everything derives from :class:`EbdynError` so callers can catch the package's
failures with a single except clause while still being able to distinguish
the individual failure modes.
"""

from __future__ import annotations


class EbdynError(Exception):
    """Base class for all package-specific errors."""


class NotHermitianError(EbdynError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class NoConvergenceError(EbdynError):
    """An iterative numerical routine failed to converge."""


class DimensionMismatchError(EbdynError):
    """Array shapes are inconsistent with the declared dimensions."""


class DefectiveMapError(EbdynError):
    """A map's eigenvector matrix is too ill-conditioned to trust."""


class TraceNotOneError(EbdynError):
    """A state argument does not have unit trace."""


class NonHermitianHamiltonianError(EbdynError):
    """A Hamiltonian argument is not Hermitian."""


class CovarianceViolationError(EbdynError):
    """A jump operator fails the required covariance relation."""


class InvalidStateError(EbdynError):
    """A density-matrix argument is not a valid state."""


class InvalidRateMatrixError(EbdynError):
    """A rate-matrix argument violates its positivity constraints."""


class IntegrationFailureError(EbdynError):
    """The ODE or quadrature backend reported failure."""


class SingularMapError(EbdynError):
    """A map that must be inverted is numerically singular."""


class NonConservativeMapError(EbdynError, ValueError):
    """A map is neither trace preserving nor unital, so its powers may grow."""


class NotReachedError(EbdynError):
    """A cone was not entered within the search horizon.

    Attributes
    ----------
    t_max : float
        Horizon of the search that failed.
    witness : float
        Witness value at the horizon (still below threshold).
    """

    def __init__(self, t_max, witness, cone=None):
        self.t_max = float(t_max)
        self.witness = float(witness)
        self.cone = cone
        msg = f"witness still {self.witness:.3e} at horizon t_max={self.t_max:g}"
        if cone:
            msg = f"{cone}: {msg}"
        super().__init__(msg)


class NoLimitError(EbdynError):
    """The map has no asymptotic limit (divergent or oscillatory spectrum)."""


class InvalidIntervalError(EbdynError):
    """Interval endpoints do not satisfy 0 < a < b."""


class NotAProbabilityVectorError(EbdynError):
    """A vector argument is not a probability distribution."""


class ConfigError(EbdynError):
    """A run configuration file is malformed or inconsistent."""
