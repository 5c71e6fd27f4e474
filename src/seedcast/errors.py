"""Exception types shared across the library.

Each derives from ``SeedcastError`` and from the builtin its kind of fault
belongs to, so callers can catch either.
"""


class SeedcastError(Exception):
    """Base of every seedcast error."""


class ShapeError(SeedcastError, ValueError):
    """Operands have incompatible shapes."""


class ConfigError(SeedcastError, ValueError):
    """A configuration value is invalid or inconsistent."""


class DataError(SeedcastError, ValueError):
    """Input data cannot be ingested or is too short for the task."""


class InputError(SeedcastError, ValueError):
    """An argument is outside the operation's domain."""


class DegenerateInputError(SeedcastError, ValueError):
    """Input carries no usable signal (e.g. zero total spectral power)."""


class NumericError(SeedcastError, ArithmeticError):
    """A computation produced non-finite values."""


class DivergenceError(SeedcastError, RuntimeError):
    """Training produced a non-finite loss."""
