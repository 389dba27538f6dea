"""Exception types shared across the package."""

from __future__ import annotations


class WindowExceededError(ValueError):
    """A path was evaluated or shifted outside its sampled window."""


class DivergenceError(ArithmeticError):
    """A trajectory left the finite range.

    Carries the first bad time, for a run of several columns the index of
    the column that left it, and that column's last finite |v|^2 with its
    time (None when the column's first state was already non-finite).
    """

    def __init__(self, t: float, column: int | None = None, last_v_sq: float | None = None,
                 last_t: float | None = None):
        self.t = float(t)
        self.column = column
        self.last_v_sq = last_v_sq
        self.last_t = last_t
        where = "" if column is None else f" in column {column}"
        last = ("" if last_v_sq is None
                else f" (last finite |v|^2={last_v_sq:.6g} at t={last_t:.6g})")
        super().__init__(f"trajectory diverged at t={t:.6g}{where}{last}")

    def __reduce__(self):
        return type(self), (self.t, self.column, self.last_v_sq, self.last_t)


class CalibrationError(RuntimeError):
    """No admissible constant was found within the search range."""
