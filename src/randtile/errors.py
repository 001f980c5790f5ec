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
    """Tile budget exhausted before the patch or approximant was complete.

    Carries the partial patch in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class IncompletePatternError(RandtileError):
    """Puncture set does not cover the window plus the kernel-range margin."""


class MinimalityError(RandtileError):
    """A vertex of the diagram is unreachable at the requested level."""


class ConfigError(RandtileError):
    """Invalid experiment configuration."""
