"""Exception types shared across the package.

A solver that gives up raises a ``SolverFailure``, which carries its last
residual and iteration count; a failed time step wraps its error in a
``StepError``.  ``failure.json`` is written from these fields alone.
"""


class ThermophaseError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGrid(ThermophaseError):
    """Grid has too few cells or non-positive extent."""


class AnisotropicCells(ThermophaseError):
    """Cell sizes differ between the two axes; only square cells are supported."""


class ShapeMismatch(ThermophaseError, ValueError):
    """A field does not conform to the grid it is used with; also a ValueError."""


class SolverFailure(ThermophaseError):
    """An iterative solver gave up; carries its last residual norm and iteration count."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class NoConvergence(SolverFailure):
    """Iterative linear solver hit its iteration cap or lost positive definiteness."""


class NewtonDivergence(SolverFailure):
    """Newton iteration failed to reduce the residual within its budget."""


class BadParameter(ThermophaseError):
    """A constructor argument is outside its admissible range."""


class DomainViolation(ThermophaseError):
    """An argument left the open domain of a singular potential.

    Raised instead of clamping so a loss of the separation property during a
    run is loud rather than silently saturated.
    """


class BallProjectionStall(ThermophaseError):
    """The box-and-ball projection left v0 outside the V-ball."""


class LineSearchFailure(ThermophaseError):
    """Armijo backtracking found no acceptable decrease."""


class ParseError(ThermophaseError):
    """Configuration file is not well-formed."""


class ValidationError(ThermophaseError):
    """Configuration violates a model assumption; the message names it."""


class FormatError(ThermophaseError):
    """A snapshot file has a bad magic header or inconsistent shape."""


class StepError(ThermophaseError):
    """A time step failed; wraps the error that stopped it with its step index."""

    def __init__(self, step: int, cause: Exception):
        super().__init__(f"step {step}: {cause}")
        self.step = step
        self.cause = cause
