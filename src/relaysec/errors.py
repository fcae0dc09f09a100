"""Exception hierarchy shared across the package."""


class RelaysecError(Exception):
    """Base class for all package errors."""


class InvalidTopologyError(RelaysecError, ValueError):
    """Geometry that cannot produce finite mean channel powers."""


class DomainError(RelaysecError, ValueError):
    """Argument outside the mathematical domain of a function."""


class DegenerateSampleError(RelaysecError, ValueError):
    """A fading realization that the requested operation cannot handle."""


class NumericError(RelaysecError, RuntimeError):
    """A numerical procedure failed to reach its target, e.g. a non-finite mean."""
