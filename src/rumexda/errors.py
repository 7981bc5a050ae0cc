"""Error types shared across the package.

Every one derives from ``RumexdaError``, which the CLI reports as one
``error:`` line, and keeps its ``ValueError`` or ``RuntimeError`` base.
"""


class RumexdaError(Exception):
    """Base of every error the package raises on purpose."""


class ShapeError(RumexdaError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class MathDomainError(RumexdaError, ValueError):
    """Numeric input outside the mathematical domain of an operation."""


class LabelError(RumexdaError, ValueError):
    """Class label outside the supported label set."""


class ConfigError(RumexdaError, ValueError):
    """Invalid or inconsistent configuration value."""


class DegenerateInputError(RumexdaError, ValueError):
    """Input is empty or otherwise too small to be meaningful."""


class TrainingStateError(RumexdaError, RuntimeError):
    """Training-loop state invariant violated (e.g. stepping without gradients)."""


class DataError(RumexdaError, ValueError):
    """Malformed or inconsistent dataset content."""
