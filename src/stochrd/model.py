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
from typing import Callable

import numpy as np

from .fields import Field, Grid, _l2_sq_rows
from .report import CertificateReport, _verdict
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


ZERO_PROFILE = Profile("zero")


def _profile_norm_sq(profile: Profile, grid: Grid) -> float:
    return float(_l2_sq_rows(profile.on_grid(grid)[None], grid)[0])


# -- reaction term ---------------------------------------------------------

#: central-difference step for the slopes of a custom reaction
_FD_STEP = 1e-5


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction family; built-ins carry exact derivatives.

    family 'cubic'     : f(x, s) = -s^3
    family 'anticubic' : f(x, s) = +s^3 (violates dissipativity; for
                         negative tests)
    family 'zero'      : f = 0
    family 'custom'    : user callable fn(x, s); its slopes are central
                         differences

    The solvers step f through _kernel(x), bound once to the interior nodes x, in 2-d too:
    (sign, react), where react(u, c, out) writes the bits of k * value(x, u) into out (not
    overlapping u) for c = sign * k.  The cubics scale (u*u)*u by c (negation is exact),
    'zero' fills out with 0, 'custom' writes c * value(x, u): fn gets interior coordinates.
    """

    family: str = "cubic"
    fn: Callable | None = None

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

    def _kernel(self, x):
        """(sign, react): the in-place step kernel on nodes at x; see the class docstring."""
        if self.family == "zero":
            return 1.0, lambda u, c, out: out.fill(0.0)
        if self.family == "custom":
            return 1.0, lambda u, c, out: np.multiply(c, self.value(x, u), out=out)

        def cube(u, c, out):  # ((u*u)*u)*c
            np.multiply(np.multiply(np.multiply(u, u, out=out), u, out=out), c, out=out)

        return (-1.0 if self.family == "cubic" else 1.0), cube

    def ds(self, x, s):
        """d f / d s: exact for the built-ins, a central difference for custom."""
        s = np.asarray(s, dtype=float)
        if self.family == "cubic":
            return -3.0 * s * s
        if self.family == "anticubic":
            return 3.0 * s * s
        if self.family == "zero":
            return np.zeros_like(s)
        return (self.value(x, s + _FD_STEP) - self.value(x, s - _FD_STEP)) / (2.0 * _FD_STEP)

    def dx(self, x, s):
        """d f / d x: exact for the built-ins, a central difference for custom."""
        s = np.asarray(s, dtype=float)
        if self.family in ("cubic", "anticubic", "zero"):
            return np.zeros_like(s)
        return (self.value(x + _FD_STEP, s) - self.value(x - _FD_STEP, s)) / (2.0 * _FD_STEP)


# -- forcing ---------------------------------------------------------------


@dataclass(frozen=True)
class ForcingSpec:
    """Separable forcing g(t, x) = amplitude * m(t) * profile(|x|), amplitude**2 finite.

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
        if not self.amplitude * self.amplitude < math.inf:
            raise ValueError(f"forcing amplitude {self.amplitude!r} has no finite square")
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

    def l2norm_sq(self, t, grid: Grid):
        """Squared grid L2 norm of g(t, .); t may be an array."""
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
        return float(grid.cell_measure * np.sum(self.psi1.on_grid(grid)))


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
    if forcing.is_zero():
        return Field.zeros(grid)
    m = float(forcing.modulation_at(float(t)))
    return Field(grid, (forcing.amplitude * m) * forcing.profile.on_grid(grid))


# -- dissipativity checks ----------------------------------------------------


def validate_dissipativity(spec: ModelSpec) -> CertificateReport:
    """Sample the five structural conditions on f over a fixed state box.

    The box is |s| <= 10, |x| <= 8 on 401 x 161 nodes.  Margins are
    signed (bound minus checked quantity, nonnegative is good); the
    report passes iff every sampled margin is >= -1e-9.  Derivatives use
    exact formulas for built-in families and central differences with
    step 1e-5 otherwise.
    """
    tolerance = 1e-9
    s = np.linspace(-10.0, 10.0, 401)
    x = np.linspace(-8.0, 8.0, 161)
    X, S = np.meshgrid(x, s, indexing="ij")
    F = spec.f.value(X, S)
    dF_ds = spec.f.ds(X, S)
    dF_dx = spec.f.dx(X, S)

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
    for cond, m in margins.items():
        idx = np.unravel_index(int(np.argmin(m)), m.shape)
        details[cond] = {"margin": float(m[idx]), "x": float(X[idx]), "s": float(S[idx]),
                         "pass": bool(m[idx] >= -tolerance)}
    worst = [details[cond]["margin"] for cond in margins]
    cond = list(margins)[int(np.argmin(worst))]  # the condition _verdict reports
    details["worst_condition"], details["worst_x"] = cond, details[cond]["x"]
    return _verdict("dissipativity", worst, [details[c]["s"] for c in margins],
                    tolerance, details)


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
) -> CertificateReport:
    """Check the two integral conditions on the forcing.

    Finiteness: at every probe time tau the truncated memory integral at
    depth s_trunc and at depth 2*s_trunc must agree to relative growth
    0.02; relative growth beyond that is read as divergence and fails the
    report (no exception), as does a NaN growth where both depths
    overflow.  Each probe's detail records the deep integral times
    exp(delta * tau), or None where that factor overflows.

    Decay: along the negative probe times (falling back to
    -s_trunc/4, -s_trunc/2, -3*s_trunc/4), the shifted expression
    exp(c_probe * t) * integral must be nonincreasing and end below
    1e-3 relative to its first value.
    """
    growth_tol, decay_tol = 0.02, 1e-3
    if not c_probe > 0:
        raise ValueError("c_probe must be positive")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if not s_trunc > 0:
        raise ValueError("s_trunc must be positive")
    probe_times = [float(t) for t in probe_times]
    details: dict = {"probes": {}}
    margins, where = [], []

    for tau in probe_times:
        i1 = _memory_integral(forcing, tau, delta, s_trunc, step, grid)
        i2 = _memory_integral(forcing, tau, delta, 2.0 * s_trunc, step, grid)
        scale = max(abs(i1), 1e-300)
        rel_growth = (i2 - i1) / scale
        try:
            value = math.exp(delta * tau) * i2
        except OverflowError:  # a record only; no margin reads it
            value = None
        margins.append(growth_tol - rel_growth)
        where.append(tau)
        details["probes"][repr(tau)] = {
            "memory_integral": value,
            "relative_growth": rel_growth,
            "margin": margins[-1],
        }

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
    margins += [(a - b) / first + 1e-12 for a, b in zip(evals, evals[1:])]
    margins.append(decay_tol - evals[-1] / first)
    where += decay_probes[1:] + decay_probes[-1:]
    return _verdict("forcing-tempered", margins, where, 0.0, details)
