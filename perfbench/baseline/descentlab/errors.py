"""Exception types shared across the package."""


class DescentLabError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(DescentLabError):
    """An argument violates a documented precondition."""


class NumericalFailure(DescentLabError):
    """An iterative numerical routine failed to converge."""


class ConfigError(DescentLabError):
    """Invalid run configuration (step sizes, config files, schemas)."""


class DivergenceError(DescentLabError):
    """An optimization run was detected to diverge."""


class NotSeparableError(DescentLabError):
    """A dataset admits no separating hyperplane (or none was found)."""


class FormatError(DescentLabError):
    """A data file on disk is malformed."""
