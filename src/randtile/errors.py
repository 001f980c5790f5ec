"""Exception types shared across the package."""


class RandtileError(Exception):
    """Base class for all package errors."""


class StructuralError(RandtileError):
    """Malformed input data: bad references, invalid parameters."""


class UnsupportedOperationError(RandtileError):
    """Operation requires data the family does not carry (e.g. geometry)."""


class ConvergenceError(RandtileError):
    """Iterative numeric procedure failed to converge."""


class InsufficientDataError(RandtileError):
    """Not enough usable data points (scales, entries, recurrences)."""


class DegenerateObservableError(RandtileError):
    """All measured integrals vanish; no slope can be estimated."""


class PartialCoverError(RandtileError):
    """A supertile descent (patch, decomposition or approximant) refused a
    frontier past the tile budget, before building it."""


class IncompletePatternError(RandtileError):
    """Puncture set does not cover the window plus the kernel-range margin."""


class MinimalityError(RandtileError):
    """A vertex of the diagram is unreachable at the requested level."""


class ConfigError(RandtileError):
    """Invalid experiment configuration."""
