"""Exception hierarchy shared by all dcsh modules.

The CLI maps these onto exit codes: configuration problems are usage
errors (1), data and shape problems are validation errors (2), and
NumericError and StaleCacheError abort a run (3).
"""


class DcshError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(DcshError):
    """A parameter combination the algorithms cannot work with."""


class DimensionError(DcshError):
    """Array shapes or sizes violate an operation's contract."""


class LabelError(DcshError):
    """A label set is empty, duplicated, or out of range."""


class CoverageError(DcshError):
    """A class has no samples where the operation requires at least one."""


class NumericError(DcshError):
    """A non-finite value appeared where finite numbers are required."""


class StaleCacheError(DcshError):
    """A forward cache is used after the model's parameters changed."""


class ParseError(DcshError):
    """A data file failed validation.  Carries file path and location."""

    def __init__(self, path, message, line=None):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")
