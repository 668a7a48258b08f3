"""Exception vocabulary shared across the package.

The CLI maps these onto exit codes: argument/precondition/stability problems
exit 1, numerical failures exit 2, probe failures exit 3.
"""


class RoughmorError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(RoughmorError, ValueError):
    """Invalid argument: dimension mismatch, out-of-range parameter, bad file."""


class PreconditionError(RoughmorError):
    """A mathematical precondition of the operation is violated."""


class StabilityError(PreconditionError):
    """Operation requires a mean-square asymptotically stable system."""


class EmptyBasisError(PreconditionError):
    """Truncation has nothing to retain (zero matrix input); carries the
    full descending spectrum that was cut."""

    def __init__(self, message, spectrum=None):
        super().__init__(message)
        self.spectrum = spectrum


class ConvergenceError(RoughmorError):
    """Iteration failed to reach the requested tolerance.

    Carries the final residual and the iteration count.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class IntegrationOverflowError(RoughmorError):
    """Non-finite values appeared during time integration.

    Carries the index of the failing step.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class StepFailureError(RoughmorError):
    """A time step could not be completed (singular stage matrix, Newton
    divergence). Carries the failing step index."""

    def __init__(self, message, step=None, residual=None):
        super().__init__(message)
        self.step = step
        self.residual = residual


class NumericalError(RoughmorError):
    """A numerical routine failed with no more specific classification."""


class GuardedScalar(float):
    """Float carrying an ``is_absolute`` flag.

    Relative error metrics return this type; when the normalizing denominator
    vanishes the value is the absolute error and ``is_absolute`` is True.
    """

    is_absolute = False

    def __new__(cls, value, is_absolute=False):
        obj = super().__new__(cls, value)
        obj.is_absolute = bool(is_absolute)
        return obj
