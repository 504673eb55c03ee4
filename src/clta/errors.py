"""Exception types shared across the package."""


class CltaError(Exception):
    """Base class for all package errors."""


class ShapeError(CltaError, ValueError):
    """Operands have incompatible dimensions."""


class ConfigError(CltaError, ValueError):
    """A configuration value is out of its legal range."""


class NumericError(CltaError, ArithmeticError):
    """A computation produced a non-finite value."""


class FormatError(CltaError, ValueError):
    """A file does not match the expected binary/CSV layout."""


class TrainingError(CltaError, RuntimeError):
    """Optimization failed (non-finite loss or gradient)."""


class SamplingError(CltaError, ValueError):
    """An episode cannot be sampled from the given data."""
