"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: usage/validation errors exit 2,
data/format errors exit 3, numerical degeneracies exit 4.
"""


class VsmevalError(Exception):
    """Base class for all toolkit errors."""


class ArgumentError(VsmevalError, ValueError):
    """A parameter violates an operation's precondition."""


class EmptyInputError(ArgumentError):
    """An operation received an empty corpus/table where content is required."""


class ValidationError(VsmevalError, ValueError):
    """Data violates a declared range or completeness constraint."""


class FormatError(VsmevalError, ValueError):
    """A file does not conform to its declared format."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += f" [{path}"
            if line is not None:
                loc += f":{line}"
            loc += "]"
        super().__init__(message + loc)
        self.path = path
        self.line = line


class AlignmentError(VsmevalError, ValueError):
    """Supposedly aligned structures (pair lists, score vectors) disagree."""


class DegenerateError(VsmevalError, ArithmeticError):
    """A numerical operation is undefined on the given input."""


class ConstantInputError(DegenerateError):
    """Correlation requested on a constant sequence."""


class WordLookupError(VsmevalError, LookupError):
    """A required word is missing from a vector table."""
