"""Two-sided Wiener paths and the conjugation weight they drive.

A path is a sample of a two-sided scalar Wiener process pinned at the
origin, stored on a uniform grid over a finite window.  Three facts make
these samples usable as the random symbol of a pathwise dynamical system:

* w(0) = 0 exactly, by construction;
* the time shift (shift_path(w, t))(s) = w(s + t) - w(t) is again such a
  sample, and shifting composes as a group on grid points;
* the conjugation weight z(w, a, t) = exp(-a * w(t)) satisfies the cocycle
  identity z(w, a, t) * z(shift_path(w, t), a, s) = z(w, a, t + s).

Shift composition is bit-exact here because a shifted path shares its
parent's read-only base sample array and only moves the anchor index;
values are always formed as a single subtraction against the anchor
sample.  Between grid points the path is interpolated linearly,
at a position counted in steps from the anchor (t = 0), so no value
depends on the sampled window, and every evaluation is a measurable
function of finitely many Gaussian increments.

Evaluating or shifting outside the sampled window raises
WindowExceededError rather than extrapolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import WindowExceededError
from .report import _rows, _write_csv

#: default quadrature step for the exponential memory integrals
DEFAULT_QUAD_STEP = 0.01

#: relative tolerance of the package's one on-grid rule, read only by _snap
_GRID_RTOL = 1e-9


def _snap(k):
    """k (a count of steps, scalar or array) moved to the nearest whole number where it
    lies within _GRID_RTOL * max(1, |k|) of it: the package's one on-grid rule."""
    near = np.round(k)
    with np.errstate(invalid="ignore"):  # inf - inf: an infinite k stays as it is
        return np.where(np.abs(k - near) <= _GRID_RTOL * np.maximum(1.0, np.abs(k)), near, k)


def _window(span: float, step: float, what: str) -> float:
    """span rounded up to whole steps of step; ValueError naming what unless step > 0
    and span is fewer than 2**53 steps (from there on every float is a whole number, so the
    on-grid rule says nothing).  A span that _snap puts on k whole steps comes back as it
    is, so a path drawn over it keeps its step count and its bits."""
    if not step > 0:
        raise ValueError(f"{what}: step {step!r} must be positive")
    k = float(_snap(span / step))
    if not k < 2.0**53:
        raise ValueError(f"{what} = {span!r} is {k!r} steps of {step!r}, 2**53 or more")
    return span if k.is_integer() else math.ceil(k) * step


def _whole_steps(span: float, step: float, what: str) -> int:
    """k = span / step as an int; ValueError naming what unless _window keeps span."""
    if _window(span, step, what) != span:
        raise ValueError(f"{what} = {span!r} is not a whole number of steps {step!r}")
    return int(round(span / step))


class WienerPath:
    """Piecewise-linear two-sided path on a uniform grid.

    Instances are immutable.  Construct with :func:`sample_two_sided_path`
    for a random path or :meth:`from_samples` for a synthetic one.
    """

    __slots__ = ("_base", "_i0", "grid_step", "seed")

    def __init__(self, base: np.ndarray, i0: int, grid_step: float, seed=None):
        base = np.asarray(base, dtype=float)
        if base.ndim != 1 or base.size < 2:
            raise ValueError("path needs a 1-d sample array with at least 2 points")
        if not np.all(np.isfinite(base)):
            raise ValueError("path samples must be finite")
        if not 0 <= i0 < base.size:
            raise ValueError("anchor index outside the sample array")
        if not grid_step > 0:
            raise ValueError("grid_step must be positive")
        base = base.copy()
        base.setflags(write=False)
        self._base = base
        self._i0 = int(i0)
        self.grid_step = float(grid_step)
        self.seed = seed

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_samples(cls, samples, grid_step: float, t_min: float) -> "WienerPath":
        """Wrap explicit samples; samples must contain t = 0 with value 0."""
        samples = np.asarray(samples, dtype=float)
        i0 = _whole_steps(-t_min, grid_step, "-t_min")
        if not 0 <= i0 < samples.size:
            raise ValueError("window does not contain t = 0")
        if samples[i0] != 0.0:
            raise ValueError("path value at t = 0 must be exactly 0")
        return cls(samples, i0, grid_step)

    # -- basic geometry ---------------------------------------------------

    @property
    def t_min(self) -> float:
        return -self._i0 * self.grid_step

    @property
    def t_max(self) -> float:
        return (self._base.size - 1 - self._i0) * self.grid_step

    @property
    def times(self) -> np.ndarray:
        return (np.arange(self._base.size) - self._i0) * self.grid_step

    @property
    def samples(self) -> np.ndarray:
        """Path values on the grid, anchored so the value at t = 0 is 0."""
        return self._base - self._base[self._i0]

    # -- evaluation -------------------------------------------------------

    def value_at(self, t):
        """Path value at time(s) t, linearly interpolated between grid points."""
        b, i0 = self._base, self._i0
        # steps from the anchor, snapped so a grid time returns its sample bit-exactly
        k = _snap(np.asarray(t, dtype=float) / self.grid_step)
        if not np.all((k >= -i0) & (k <= b.size - 1 - i0)):  # NaN fails too
            raise WindowExceededError(
                f"evaluation outside sampled window [{self.t_min:.6g}, {self.t_max:.6g}]"
            )
        # np.interp's arithmetic, on the bracketing pair only
        j = np.floor(k)
        i = i0 + j.astype(np.intp)
        lo = b[i]
        out = (b[np.minimum(i + 1, b.size - 1)] - lo) * (k - j) + lo - b[i0]
        if out.ndim == 0:
            return float(out)
        return out

    # -- export -----------------------------------------------------------

    def to_csv(self, path) -> None:
        """Write grid samples as CSV with columns t, omega."""
        _write_csv(path, ("t", "omega"), _rows(self.times, self.samples))

    def __repr__(self) -> str:
        return (
            f"WienerPath(window=[{self.t_min:.6g}, {self.t_max:.6g}], "
            f"grid_step={self.grid_step:.6g}, seed={self.seed!r})"
        )


def sample_two_sided_path(seed: int, s_max: float, grid_step: float) -> WienerPath:
    """Draw a two-sided Wiener sample on [-s_max, s_max].

    Forward and backward halves use independent Gaussian increment
    streams spawned from the one seed, each increment with variance
    grid_step.  The draw is bit-reproducible for a fixed seed, and a
    longer s_max extends it: grid values on the common window are equal.
    """
    if not s_max > 0:
        raise ValueError("s_max must be positive")
    n = _whole_steps(s_max, grid_step, "s_max")
    fwd_ss, bwd_ss = np.random.SeedSequence(seed).spawn(2)
    std = np.sqrt(grid_step)
    fwd = np.random.default_rng(fwd_ss).normal(0.0, std, size=n)
    bwd = np.random.default_rng(bwd_ss).normal(0.0, std, size=n)
    base = np.empty(2 * n + 1)
    base[n] = 0.0
    base[n + 1:] = np.cumsum(fwd)
    base[:n] = np.cumsum(bwd)[::-1]
    return WienerPath(base, n, grid_step, seed=seed)


def shift_path(path: WienerPath, t: float) -> WienerPath:
    """Group shift (shift_path(w, t))(s) = w(s + t) - w(t), grid t only."""
    idx = path._i0 + _whole_steps(t, path.grid_step, "t")
    if not 0 <= idx < path._base.size:
        raise WindowExceededError(
            f"t={t!r} outside sampled window [{path.t_min:.6g}, {path.t_max:.6g}]"
        )
    # the parent's base is a checked read-only copy already, so it is shared, not copied
    shifted = object.__new__(WienerPath)
    shifted._base, shifted._i0 = path._base, idx
    shifted.grid_step, shifted.seed = path.grid_step, path.seed
    return shifted


def z_value(path: WienerPath, alpha: float, t):
    """Conjugation weight exp(-alpha * w(t)); t may be an array."""
    w = path.value_at(t)
    return np.exp(-alpha * np.asarray(w)) if np.ndim(w) else float(np.exp(-alpha * w))


def quad_exp(
    h: Callable[[np.ndarray], np.ndarray],
    rate: float,
    s_trunc: float,
    step: float = DEFAULT_QUAD_STEP,
) -> float:
    """Trapezoidal value of the memory integral of exp(rate*s) * h(s) over [-s_trunc, 0].

    The package's one memory quadrature.  h takes the ndarray of grid times of
    [-s_trunc, 0], s_trunc a positive whole number of steps, and returns one value per
    time; rate must be >= 0, and a NaN rate is rejected too.  The integral over (-inf, 0]
    is truncated at -s_trunc, and for bounded h and rate > 0 the truncation error is at
    most sup|h| * exp(-rate * s_trunc) / rate.  At rate 0 every weight is exactly 1.
    """
    if not rate >= 0:
        raise ValueError("rate must be nonnegative")
    if not s_trunc > 0:
        raise ValueError("s_trunc must be positive")
    m = _whole_steps(s_trunc, step, "s_trunc")
    s = -s_trunc + step * np.arange(m + 1)
    vals = np.asarray(h(s), dtype=float)
    if vals.shape != s.shape:
        raise ValueError("h must return one value per grid point")
    return float(np.trapezoid(np.exp(rate * s) * vals, dx=step))


@dataclass
class SublinearityReport:
    """Diagnostic for the sublinear-growth behaviour w(t)/t -> 0."""

    t_min: float
    max_ratio: float
    at_t: float


def sublinearity_report(path: WienerPath, t_min: float) -> SublinearityReport:
    """Max of |w(t)/t| over grid times with |t| >= t_min.

    Purely diagnostic: membership of a single sample in the full-measure
    set of sublinear paths is not decidable from a finite window.
    """
    if not t_min > 0:
        raise ValueError("t_min must be positive")
    times = path.times
    mask = np.abs(_snap(times / path.grid_step)) >= _snap(t_min / path.grid_step)
    if not np.any(mask):
        raise ValueError("no grid times with |t| >= t_min in the window")
    t_sel = times[mask]
    ratios = np.abs(path.samples[mask] / t_sel)
    k = int(np.argmax(ratios))
    return SublinearityReport(t_min=float(t_min), max_ratio=float(ratios[k]), at_t=float(t_sel[k]))
