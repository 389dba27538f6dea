"""Exception types shared across the package."""

from __future__ import annotations


class WindowExceededError(ValueError):
    """A path was evaluated or shifted outside its sampled window."""


class DivergenceError(ArithmeticError):
    """A trajectory left the finite range.

    Carries the first bad time and, for a run of several columns, the
    index of the column that left it.
    """

    def __init__(self, t: float, message: str | None = None, column: int | None = None):
        self.t = float(t)
        self.column = column
        where = "" if column is None else f" in column {column}"
        super().__init__(message or f"trajectory diverged at t={t:.6g}{where}")

    def __reduce__(self):
        return type(self), (self.t, self.args[0], self.column)


class CalibrationError(RuntimeError):
    """No admissible constant was found within the search range."""
