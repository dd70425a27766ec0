"""Exception types shared across the package.

Every error raised by kuralim itself derives from :class:`KuralimError`,
so callers can catch package failures without swallowing genuine bugs.
Errors that are really argument-contract violations also derive from
``ValueError``.
"""


class KuralimError(Exception):
    """Base class for all kuralim-specific errors."""


class DomainError(KuralimError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class NonNormalized(KuralimError):
    """A density or measure whose total mass is too far from one."""


class NotStrictlyMonotone(KuralimError):
    """Strict quantile inversion requested on a CDF with a flat cell."""


class EmptyMeasure(KuralimError, ValueError):
    """An empirical measure with no atoms."""


class KernelDomain(KuralimError):
    """A tabulated interaction kernel was queried outside its grid."""


class NonFinite(KuralimError):
    """A state component became NaN or infinite during integration."""


class TailBlowup(KuralimError):
    """Spectral truncation stopped being meaningful: the last retained
    mode grew beyond the documented threshold."""


class CflViolation(KuralimError):
    """Finite-volume step size exceeds the advective CFL bound."""


class DriftQuadrature(KuralimError):
    """Stored time resolution is too coarse for the requested accuracy
    of the accumulated drift integral."""


class ParseError(KuralimError, ValueError):
    """A run-configuration document could not be parsed."""


class ValidationError(KuralimError, ValueError):
    """A parsed run configuration violates the schema.  The message
    lists every violation found, not just the first."""
