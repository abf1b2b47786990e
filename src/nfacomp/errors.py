"""Exception types shared across the package."""


class NfacompError(Exception):
    """Base class for errors raised by this package."""


class ParseError(NfacompError):
    """Syntax or semantic error in an automaton file.

    Carries the 1-based line and column of the offending token when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            message = f"{where}: {message}"
        super().__init__(message)


class BudgetExceededError(NfacompError):
    """A state/expansion budget was exhausted before the construction finished."""

    def __init__(self, message: str = "state budget exceeded", budget: int | None = None):
        self.budget = budget
        super().__init__(message)


class NoGatePartitionError(NfacompError):
    """The input automaton admits no usable gate partition."""


class CutError(NfacompError):
    """A candidate of a best-of choice was stopped: it cannot beat one that finished."""
