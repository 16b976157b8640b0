"""Exception types shared across the package."""


class KflowError(Exception):
    """Base class for all package errors."""


class ChartDomainError(KflowError):
    """A point lies outside the validity region of its coordinate chart."""


class LogDivergenceError(KflowError):
    """The log map was asked for points at or beyond the injectivity bound."""


class DegenerateImmersionError(KflowError):
    """The immersion Jacobian dropped below the nondegeneracy floor."""


class CalibrationError(KflowError):
    """No admissible kernel radius exists above the grid-resolution floor."""


class RedistributionActiveError(KflowError):
    """A residual check was requested on states produced with tangential
    redistribution enabled, where the Lagrangian time derivative is not the
    flow derivative."""


class CurvedModelError(KflowError):
    """An operation restricted to flat ambient models was called on a curved
    one."""


class ConfigError(KflowError):
    """Run configuration failed validation."""
