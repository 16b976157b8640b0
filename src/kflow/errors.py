"""Exception types shared across the package, and the kind check of the
values a run config supplies."""

import math
import numbers


class KflowError(Exception):
    """Base class for all package errors."""


class LogDivergenceError(KflowError):
    """The log map was asked for points at or beyond the injectivity bound."""


class DegenerateImmersionError(KflowError):
    """The immersion Jacobian dropped below the nondegeneracy floor."""


class CalibrationError(KflowError):
    """No admissible kernel radius exists above the grid-resolution floor."""


class CurvedModelError(KflowError):
    """An operation restricted to flat ambient models was called on a curved
    one."""


class ConfigError(KflowError):
    """Run configuration failed validation."""


def check_kind(where, value, default):
    """Raise ConfigError unless `value` has the JSON kind of `default`: an
    object, a boolean, or a list of as many entries of its entries' kinds;
    an integer for an int default and a finite number for any other (a
    boolean is neither, nor is NaN or an infinity), so a required field with
    no default value asks for a number.  A None default takes anything."""
    if isinstance(default, list):
        if not isinstance(value, list) or len(value) != len(default):
            raise ConfigError(f"{where} must be a list of {len(default)} numbers, not {value!r}")
        for v, d in zip(value, default):
            check_kind(where, v, d)
    elif isinstance(default, (dict, bool)):
        if not isinstance(value, type(default)):
            kind = "an object" if isinstance(default, dict) else "true or false"
            raise ConfigError(f"{where} must be {kind}, not {value!r}")
    elif default is not None:
        kind = numbers.Integral if isinstance(default, int) else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
            noun = "an integer" if kind is numbers.Integral else "a finite number"
            raise ConfigError(f"{where} must be {noun}, not {value!r}")
