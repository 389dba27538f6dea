"""Problem data: reaction term, forcing, and their structural conditions.

A ModelSpec bundles everything the solvers need about the equation

    du/dt + lam*u - laplace(u) = f(x, u) + g(t, x) + alpha * u o dW/dt

except the discretization: the damping rate lam, the noise intensity
alpha in [0, 1], the reaction family f with its dissipativity constants
(alpha1, alpha2, alpha3, growth_c, exponent p, comparison profiles
psi1..psi4), the forcing family g, and the memory decay rate delta used
by the tempered-forcing checks.

The structural conditions on f are checked numerically by grid sampling
(validate_dissipativity); the two integral conditions on g, finiteness
of the exponentially weighted memory integral and its decay under a
time shift, are checked by truncated quadrature (check_g_tempered).
Divergence is reported as a failed certificate, not an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .fields import Field, Grid, _l2_sq
from .report import CertificateReport
from .wiener import _whole_steps, quad_exp

_TWO_PI = 2.0 * math.pi


# -- spatial profiles ------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    """Radial spatial profile used for forcing shapes and comparison
    functions.

    family 'zero'     : identically 0
    family 'constant' : amplitude everywhere
    family 'gaussian' : amplitude * exp(-r^2 / (2 width^2))
    family 'bump'     : amplitude * exp(1 - 1/(1 - (r/width)^2)) for r < width,
                        0 outside (smooth, compactly supported)
    family 'custom'   : amplitude * fn(r)
    """

    family: str = "zero"
    amplitude: float = 1.0
    width: float = 1.0
    fn: Callable | None = None
    integrability: str = ""

    def __post_init__(self):
        if self.family not in ("zero", "constant", "gaussian", "bump", "custom"):
            raise ValueError(f"unknown profile family {self.family!r}")
        if self.family == "custom" and self.fn is None:
            raise ValueError("custom profile needs fn")
        if self.family in ("gaussian", "bump") and not self.width > 0:
            raise ValueError("width must be positive")

    def eval_radius(self, r):
        r = np.asarray(r, dtype=float)
        if self.family == "zero":
            return np.zeros_like(r)
        if self.family == "constant":
            return np.full_like(r, self.amplitude)
        if self.family == "gaussian":
            return self.amplitude * np.exp(-(r * r) / (2.0 * self.width**2))
        if self.family == "bump":
            q = (r / self.width) ** 2
            inside = q < 1.0
            q_safe = np.where(inside, q, 0.5)
            return np.where(inside, self.amplitude * np.exp(1.0 - 1.0 / (1.0 - q_safe)), 0.0)
        return self.amplitude * np.asarray(self.fn(r), dtype=float)

    def on_grid(self, grid: Grid) -> np.ndarray:
        return self.eval_radius(grid.radius())

    def is_zero(self) -> bool:
        return self.family == "zero" or self.amplitude == 0.0


ZERO_PROFILE = Profile("zero")


@lru_cache(maxsize=64)
def _profile_norm_sq(profile: Profile, grid: Grid) -> float:
    return _l2_sq(profile.on_grid(grid), grid)


@lru_cache(maxsize=64)
def _profile_integral(profile: Profile, grid: Grid) -> float:
    return float(grid.cell_measure * np.sum(profile.on_grid(grid)))


# -- reaction term ---------------------------------------------------------


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction family; built-ins carry exact derivatives.

    family 'cubic'     : f(x, s) = -s^3
    family 'anticubic' : f(x, s) = +s^3 (violates dissipativity; for
                         negative tests)
    family 'zero'      : f = 0
    family 'custom'    : user callables fn(x, s), optionally dfds, dfdx
    """

    family: str = "cubic"
    fn: Callable | None = None
    dfds: Callable | None = None
    dfdx: Callable | None = None

    def __post_init__(self):
        if self.family not in ("cubic", "anticubic", "zero", "custom"):
            raise ValueError(f"unknown nonlinearity family {self.family!r}")
        if self.family == "custom" and self.fn is None:
            raise ValueError("custom nonlinearity needs fn")

    def value(self, x, s):
        s = np.asarray(s, dtype=float)
        if self.family == "cubic":
            return -(s * s * s)
        if self.family == "anticubic":
            return s * s * s
        if self.family == "zero":
            return np.zeros_like(s)
        return np.asarray(self.fn(x, s), dtype=float)

    def ds(self, x, s):
        """Exact d f / d s where available, else None."""
        s = np.asarray(s, dtype=float)
        if self.family == "cubic":
            return -3.0 * s * s
        if self.family == "anticubic":
            return 3.0 * s * s
        if self.family == "zero":
            return np.zeros_like(s)
        if self.dfds is not None:
            return np.asarray(self.dfds(x, s), dtype=float)
        return None

    def dx(self, x, s):
        """Exact d f / d x where available, else None."""
        s = np.asarray(s, dtype=float)
        if self.family in ("cubic", "anticubic", "zero"):
            return np.zeros_like(s)
        if self.dfdx is not None:
            return np.asarray(self.dfdx(x, s), dtype=float)
        return None


# -- forcing ---------------------------------------------------------------


@dataclass(frozen=True)
class ForcingSpec:
    """Separable forcing g(t, x) = amplitude * m(t) * profile(|x|).

    family 'zero'     : g = 0
    family 'constant' : m = 1
    family 'periodic' : m(t) = cos(2 pi t / period), evaluated through the
                        exact floating remainder so m(t + period) == m(t)
                        whenever t + period is itself exact
    family 'custom'   : m supplied as a callable
    """

    family: str = "zero"
    amplitude: float = 0.0
    period: float | None = None
    profile: Profile = ZERO_PROFILE
    modulation: Callable | None = None

    def __post_init__(self):
        if self.family not in ("zero", "constant", "periodic", "custom"):
            raise ValueError(f"unknown forcing family {self.family!r}")
        if self.family == "periodic":
            if self.period is None or not self.period > 0:
                raise ValueError("periodic forcing needs a positive period")
        if self.family == "custom" and self.modulation is None:
            raise ValueError("custom forcing needs a modulation callable")

    def modulation_at(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "zero":
            return np.zeros_like(t)
        if self.family == "constant":
            return np.ones_like(t)
        if self.family == "periodic":
            r = np.fmod(t, self.period)
            r = np.where(r < 0.0, r + self.period, r)
            return np.cos(_TWO_PI * (r / self.period))
        return np.asarray(self.modulation(t), dtype=float)

    def values_on_grid(self, t: float, grid: Grid) -> np.ndarray:
        if self.family == "zero" or self.amplitude == 0.0:
            return np.zeros(grid.shape)
        m = float(self.modulation_at(float(t)))
        return (self.amplitude * m) * self.profile.on_grid(grid)

    def l2norm_sq(self, t, grid: Grid):
        """Squared grid L2 norm of g(t, .); t may be an array."""
        if self.family == "zero" or self.amplitude == 0.0:
            return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0
        base = self.amplitude**2 * _profile_norm_sq(self.profile, grid)
        m = self.modulation_at(t)
        out = base * m * m
        return out if np.ndim(t) else float(out)

    def is_zero(self) -> bool:
        return self.family == "zero" or self.amplitude == 0.0


ZERO_FORCING = ForcingSpec()


# -- the model -------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Equation data plus the constants entering the structural conditions."""

    lam: float
    alpha: float
    p: float
    alpha1: float
    alpha2: float
    alpha3: float
    growth_c: float
    f: Nonlinearity
    g: ForcingSpec = ZERO_FORCING
    delta: float = 0.0
    psi1: Profile = ZERO_PROFILE
    psi2: Profile = ZERO_PROFILE
    psi3: Profile = ZERO_PROFILE
    psi4: Profile = ZERO_PROFILE

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not self.p >= 2:
            raise ValueError("p must be >= 2")
        if not (self.alpha1 > 0 and self.alpha2 > 0):
            raise ValueError("alpha1, alpha2 must be positive")
        if self.alpha3 < 0:
            raise ValueError("alpha3 must be nonnegative")
        if self.growth_c < 0:
            raise ValueError("growth_c must be nonnegative")
        if not 0.0 <= self.delta < self.lam:
            raise ValueError("delta must lie in [0, lam)")

    def with_alpha(self, alpha: float) -> "ModelSpec":
        return replace(self, alpha=alpha)

    def psi1_integral(self, grid: Grid) -> float:
        """Domain integral of psi1, the additive energy constant / 2."""
        if self.psi1.is_zero():
            return 0.0
        return _profile_integral(self.psi1, grid)


def canonical_cubic(
    alpha: float = 0.5,
    lam: float = 1.0,
    forcing: ForcingSpec = ZERO_FORCING,
    delta: float | None = None,
) -> ModelSpec:
    """The workhorse model: f(x, s) = -s^3.

    Satisfies the dissipativity conditions with p = 4,
    alpha1 = alpha2 = 1, alpha3 = 0, growth constant 3 and all
    comparison profiles zero, so every certificate constant is explicit.
    """
    return ModelSpec(
        lam=lam,
        alpha=alpha,
        p=4.0,
        alpha1=1.0,
        alpha2=1.0,
        alpha3=0.0,
        growth_c=3.0,
        f=Nonlinearity("cubic"),
        g=forcing,
        delta=0.5 * lam if delta is None else delta,
    )


def periodic_bump_forcing(
    amplitude: float, period: float = 1.0, support: float = 2.0
) -> ForcingSpec:
    """Time-periodic forcing with a smooth compactly supported profile."""
    return ForcingSpec(
        family="periodic",
        amplitude=amplitude,
        period=period,
        profile=Profile("bump", amplitude=1.0, width=support),
    )


def g_eval(spec_or_forcing, t: float, grid: Grid) -> Field:
    """Forcing snapshot g(t, .) as a Field."""
    forcing = spec_or_forcing.g if isinstance(spec_or_forcing, ModelSpec) else spec_or_forcing
    return Field(grid, forcing.values_on_grid(t, grid))


# -- dissipativity checks ----------------------------------------------------

_FD_STEP = 1e-5


def _fd_ds(nl: Nonlinearity, x, s):
    return (nl.value(x, s + _FD_STEP) - nl.value(x, s - _FD_STEP)) / (2.0 * _FD_STEP)


def _fd_dx(nl: Nonlinearity, x, s):
    return (nl.value(x + _FD_STEP, s) - nl.value(x - _FD_STEP, s)) / (2.0 * _FD_STEP)


def validate_dissipativity(
    spec: ModelSpec,
    s_box: tuple[float, float] = (-10.0, 10.0),
    x_box: tuple[float, float] = (-8.0, 8.0),
    n_s: int = 401,
    n_x: int = 161,
    tolerance: float = 1e-9,
) -> CertificateReport:
    """Sample the five structural conditions on f over a state box.

    Margins are signed (bound minus checked quantity, nonnegative is
    good); the report passes iff every sampled margin is >= -tolerance.
    Derivatives use exact formulas for built-in families and central
    differences with step 1e-5 otherwise.
    """
    s = np.linspace(s_box[0], s_box[1], n_s)
    x = np.linspace(x_box[0], x_box[1], n_x)
    X, S = np.meshgrid(x, s, indexing="ij")
    F = spec.f.value(X, S)
    dF_ds = spec.f.ds(X, S)
    if dF_ds is None:
        dF_ds = _fd_ds(spec.f, X, S)
    dF_dx = spec.f.dx(X, S)
    if dF_dx is None:
        dF_dx = _fd_dx(spec.f, X, S)

    r = np.abs(X)
    psi1 = spec.psi1.eval_radius(r)
    psi2 = spec.psi2.eval_radius(r)
    psi3 = spec.psi3.eval_radius(r)
    psi4 = spec.psi4.eval_radius(r)
    abs_s = np.abs(S)

    margins = {
        "dissipativity": (-spec.alpha1 * abs_s**spec.p + psi1) - F * S,
        "growth": (spec.alpha2 * abs_s ** (spec.p - 1.0) + psi2) - np.abs(F),
        "one-sided-slope": spec.alpha3 - dF_ds,
        "x-derivative": psi3 - np.abs(dF_dx),
        "slope-growth": (spec.growth_c * abs_s ** (spec.p - 2.0) + psi4) - np.abs(dF_ds),
    }

    details: dict = {}
    worst = np.inf
    worst_cond = None
    worst_loc = (0.0, 0.0)
    for cond, m in margins.items():
        idx = np.unravel_index(int(np.argmin(m)), m.shape)
        cond_margin = float(m[idx])
        details[cond] = {
            "margin": cond_margin,
            "x": float(X[idx]),
            "s": float(S[idx]),
            "pass": bool(cond_margin >= -tolerance),
        }
        if cond_margin < worst:
            worst = cond_margin
            worst_cond = cond
            worst_loc = (float(X[idx]), float(S[idx]))

    details["worst_condition"] = worst_cond
    details["worst_x"] = worst_loc[0]
    return CertificateReport(
        name="dissipativity",
        passed=bool(worst >= -tolerance),
        worst_margin=float(worst),
        tolerance=tolerance,
        location=worst_loc[1],
        details=details,
    )


# -- tempered forcing checks --------------------------------------------------


def _memory_integral(forcing: ForcingSpec, tau: float, delta: float, s_trunc: float, step: float, grid: Grid) -> float:
    """Truncated integral of exp(delta*s) * |g(s + tau)|_{L2}^2 over [-s_trunc, 0]."""
    if delta > 0:
        return quad_exp(lambda s: forcing.l2norm_sq(s + tau, grid), delta, s_trunc, step)
    m = _whole_steps(s_trunc, step, "s_trunc")
    s = -s_trunc + step * np.arange(m + 1)
    return float(np.trapezoid(forcing.l2norm_sq(s + tau, grid), dx=step))


def check_g_tempered(
    forcing: ForcingSpec,
    delta: float,
    c_probe: float,
    probe_times,
    grid: Grid,
    s_trunc: float = 40.0,
    step: float = 0.01,
    growth_tol: float = 0.02,
    decay_tol: float = 1e-3,
) -> CertificateReport:
    """Check the two integral conditions on the forcing.

    Finiteness: at every probe time tau the truncated memory integral at
    depth s_trunc and at depth 2*s_trunc must agree to relative
    growth_tol; relative growth beyond that is read as divergence and
    fails the report (no exception).

    Decay: along the negative probe times (falling back to
    -s_trunc/4, -s_trunc/2, -3*s_trunc/4), the shifted expression
    exp(c_probe * t) * integral must be nonincreasing and end below
    decay_tol relative to its first value.
    """
    if not c_probe > 0:
        raise ValueError("c_probe must be positive")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    probe_times = [float(t) for t in probe_times]
    details: dict = {"probes": {}}
    worst = np.inf
    worst_loc = None
    ok = True

    for tau in probe_times:
        i1 = _memory_integral(forcing, tau, delta, s_trunc, step, grid)
        i2 = _memory_integral(forcing, tau, delta, 2.0 * s_trunc, step, grid)
        scale = max(abs(i1), 1e-300)
        rel_growth = (i2 - i1) / scale
        margin = growth_tol - rel_growth
        value = math.exp(delta * tau) * i2
        details["probes"][repr(tau)] = {
            "memory_integral": value,
            "relative_growth": rel_growth,
            "margin": margin,
        }
        if margin < worst:
            worst, worst_loc = margin, tau
        if margin < 0:
            ok = False

    decay_probes = sorted((t for t in probe_times if t < 0), reverse=True)
    if not decay_probes:
        decay_probes = [-s_trunc / 4.0, -s_trunc / 2.0, -3.0 * s_trunc / 4.0]
    evals = []
    for t in decay_probes:
        i_t = _memory_integral(forcing, t, delta, s_trunc, step, grid)
        evals.append(math.exp(c_probe * t) * i_t)
    details["decay_times"] = decay_probes
    details["decay_values"] = evals
    first = max(evals[0], 1e-300)
    for a, b, t in zip(evals, evals[1:], decay_probes[1:]):
        margin = (a - b) / first + 1e-12
        if margin < worst:
            worst, worst_loc = margin, t
        if margin < 0:
            ok = False
    final_margin = decay_tol - evals[-1] / first
    if final_margin < worst:
        worst, worst_loc = final_margin, decay_probes[-1]
    if final_margin < 0:
        ok = False

    return CertificateReport(
        name="forcing-tempered",
        passed=ok,
        worst_margin=float(worst),
        tolerance=0.0,
        location=worst_loc,
        details=details,
    )
