"""Exception taxonomy shared across the package.

Each class carries the CLI exit code used when it escapes to the top level:
0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""


class TsadaptError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ConfigurationError(TsadaptError):
    """A user-supplied option or spec field is out of its valid range."""

    exit_code = 2


class ContractError(TsadaptError):
    """A caller violated an API precondition (wrong type, empty input, ...)."""

    exit_code = 2


class ConformanceError(TsadaptError):
    """Shapes of the operands do not conform; the message names both."""

    exit_code = 3


class DegenerateBatchError(TsadaptError):
    """A batch is too small for the requested statistic."""

    exit_code = 3


class FormatError(TsadaptError):
    """A binary or CSV container is malformed, truncated or mis-versioned."""

    exit_code = 3


class LabelRangeError(TsadaptError):
    """A class label falls outside 0..C-1."""

    exit_code = 3


class NumericDomainError(TsadaptError):
    """An operation produced (or was fed) non-finite values."""

    exit_code = 4
