"""Exception types shared across the package, and the int and number
checks that raise ConfigError."""

import numbers


class CitevecError(Exception):
    """Base class for all citevec errors."""


class CorpusFormatError(CitevecError):
    """Raised when a corpus stream violates the line format.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ConfigError(CitevecError):
    """Raised when a configuration value or operation parameter is invalid."""


class ModelIOError(CitevecError):
    """Raised when a model file cannot be read or written."""


class QueryError(CitevecError):
    """Raised when a query cannot be built (no usable participants).

    ``unknown_words`` counts input words that were not in the vocabulary.
    """

    def __init__(self, message, unknown_words=0):
        super().__init__(message)
        self.unknown_words = unknown_words


def _check_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an int, got {value!r}")


def _check_float(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
