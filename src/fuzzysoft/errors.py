"""Exception types shared across the package.

Each type's ``exit_code`` is the code the CLI exits with when it is raised.
"""


class FuzzySoftError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 3


class ConfigError(FuzzySoftError):
    """Invalid configuration: bad flag values, unreadable spec files, unwritable output."""

    exit_code = 1


class DataError(FuzzySoftError):
    """Invalid input data: missing columns, unparseable cells, unknown labels."""

    exit_code = 2


class InternalError(FuzzySoftError):
    """An internal invariant was violated; indicates a bug, not bad input."""
