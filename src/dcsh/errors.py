"""Exception hierarchy shared by all dcsh modules.

Each type carries the exit code the CLI returns for it: configuration
problems are usage errors (1), data and shape problems are validation
errors (2), and NumericError and StaleCacheError abort a run (3).
"""


class DcshError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ConfigurationError(DcshError):
    """A parameter combination the algorithms cannot work with."""

    exit_code = 1


class DimensionError(DcshError):
    """Array shapes or sizes violate an operation's contract."""


class LabelError(DcshError):
    """A label set is empty, duplicated, or out of range."""


class CoverageError(DcshError):
    """A class has no samples where the operation requires at least one."""


class NumericError(DcshError):
    """A non-finite value appeared where finite numbers are required."""

    exit_code = 3


class StaleCacheError(DcshError):
    """A forward cache is used after the model's parameters changed."""

    exit_code = 3


class ParseError(DcshError):
    """A data file failed validation.  Carries file path and location."""

    def __init__(self, path, message, line=None):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")
