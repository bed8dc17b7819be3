"""Exception hierarchy, with the exit code each class maps to in the CLI."""

__all__ = [
    "PolypercError",
    "ParseError",
    "DimensionError",
    "PreconditionError",
    "SchemeError",
    "SizeCapError",
    "ConstantFormError",
]


class PolypercError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class ParseError(PolypercError):
    """Malformed input text; carries a 1-based line number when known."""

    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        self.message = message
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class PreconditionError(PolypercError):
    """An operation contract was violated (mismatched operands and the like)."""

    exit_code = 3


class DimensionError(PreconditionError):
    """A value was used in a space of the wrong dimension."""

    exit_code = 3


class SchemeError(PolypercError):
    """A scheme or index pair cannot be realized as requested."""

    exit_code = 4


class ConstantFormError(SchemeError):
    """A form with all-zero weights cannot define a half-space."""

    exit_code = 4


class SizeCapError(PolypercError):
    """An enumeration or elimination exceeded its configured size cap."""

    exit_code = 5
