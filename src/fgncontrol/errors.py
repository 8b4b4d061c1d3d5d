"""Exception types shared across the package.

Every failure mode gets its own class so callers can tell problems
apart without string matching.  Each class also carries the command
line's exit status in `exit_code`, inherited from its base unless it
sets its own, so a new error type needs no entry anywhere else.
"""


class FgnControlError(Exception):
    """Base class for all package errors.

    `exit_code` is the status `fgncontrol` returns when the error ends a
    command: 3 (numeric failure) here, 2 for configuration and
    specification errors, 5 when an iteration does not converge.
    """

    exit_code = 3


class ConfigError(FgnControlError, ValueError):
    """Malformed or inconsistent configuration input."""
    exit_code = 2


class InvalidSpec(FgnControlError, ValueError):
    """A problem specification violates its own constraints."""
    exit_code = 2


class NotSymmetric(InvalidSpec):
    """A covariance matrix is not symmetric."""


class NotPositiveDefinite(FgnControlError, ValueError):
    """A Cholesky pivot fell below tolerance; matrix is not usable."""


class UnsupportedOrder(FgnControlError, ValueError):
    """Quadrature order outside the supported range."""
    exit_code = 2


class LatticeTooLarge(FgnControlError, ValueError):
    """Requested lattice would exceed the hard path-count cap."""
    exit_code = 2


class IndexOutOfRange(FgnControlError, IndexError):
    """Stage or node index outside the valid range."""


class LevelMismatch(FgnControlError, ValueError):
    """Adapted values on incompatible information levels; at a public entry,
    a process built on another lattice than the one given, even of the same q."""


class DepthMismatch(FgnControlError, ValueError):
    """Lattice too shallow for the requested computation; at a public entry,
    also a process whose stage count is not the horizon."""


class NonFiniteValue(FgnControlError, ArithmeticError):
    """A NaN or infinity appeared where a finite number is required."""


class OutOfControlSet(FgnControlError, ValueError):
    """A control value escaped the admissible set."""


class DerivativeMismatch(InvalidSpec):
    """Supplied derivative disagrees with finite differences of the value."""


class DualityMismatch(FgnControlError, ArithmeticError):
    """Primal and adjoint forms of the directional derivative disagree."""


class NoDescent(FgnControlError, RuntimeError):
    """Backtracking line search failed to produce sufficient decrease."""
    exit_code = 5


class NotConverged(FgnControlError, RuntimeError):
    """A computed solution misses its tolerance; `residual` is the value
    that missed it.  Raised when the LQ solve fails its SMP certificate."""
    exit_code = 5

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class WrongHorizon(FgnControlError, ValueError):
    """Operation requires a specific horizon length."""
    exit_code = 2
