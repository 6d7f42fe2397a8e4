"""Exception types raised by the library."""


class KrecError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(KrecError, ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(KrecError):
    """An exactly singular pivot was encountered in a dense solve."""

    def __init__(self, pivot_index, msg=None):
        self.pivot_index = pivot_index
        super().__init__(msg or f"exactly singular pivot at index {pivot_index}")


class EigConvergenceError(KrecError):
    """The dense eigenvalue iteration did not converge."""


class DomainError(KrecError):
    """An eigenvalue lies (numerically) in the forbidden set of the scalar function."""


class RankDeficiencyError(KrecError):
    """A sketched basis is numerically rank-deficient; use the stabilized path."""


class EpochMismatchError(KrecError):
    """Cached recycle-state products refer to a different matrix epoch."""


class MatrixMarketError(KrecError, ValueError):
    """Malformed Matrix Market file."""

    def __init__(self, line_number, msg):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {msg}")


class ConfigError(KrecError, ValueError):
    """Invalid run configuration."""
