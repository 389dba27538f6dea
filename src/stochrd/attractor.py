"""Absorbing radii and pullback approximation of the random attractor.

The absorbing radius at anchor (tau, w) is the calibrated square root of
the exponentially weighted memory integral

    M_alpha(tau, w) = c_abs * ( int_{-S}^0 e^{lam s} e^{-2 alpha w(s)}
                                (1 + |g(s + tau)|^2) ds )^{1/2},

its deterministic counterpart drops the path weight, and the
alpha-uniform envelope R replaces e^{-2 alpha w(s)} by e^{2 |w(s)|},
which dominates pointwise for every alpha in [0, 1]; the quadratures
share nodes and weights, so the domination survives discretization
node by node.

pullback_ensemble approximates the attractor section at an anchor by
running the solution operator from ever deeper starting times: for each
horizon t it draws fresh initial states from a tempered family at
symbol time tau - t with the path shifted by -t, transports them to the
anchor, and declares the approximation converged once consecutive
endpoint sets stop moving (symmetric Hausdorff distance below eps_att).
Endpoint sets are deduplicated at a fixed resolution, which collapses
the approximation to its distinct states (a single one for strongly
contracting models).

Every pullback ensemble (a section, a sweep's intensities, a periodicity
check's two anchors, calibrate_c's reference ensemble) is one
_pullback_ends call: a single column block of the solver core, one
(tau, seed, path) anchor per section, horizons aligned at their anchor.
The tempered radius of the initial family is computed once per
(anchor, intensity, horizon).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import CalibrationError, DivergenceError, _RadiusOverflowError
from .fields import (Field, Grid, _l2_distances, _l2_sq_rows, norms, read_field_block,
                     tail_mass, write_field_block)
from .model import ModelSpec
from .report import _write_csv, _write_json
from .solver import _Column, _integrate
from .wiener import DEFAULT_QUAD_STEP, WienerPath, quad_exp, sample_two_sided_path, shift_path

#: resolution at which pullback endpoint sets are deduplicated
_DEDUP_TOL = 1e-9


@dataclass(frozen=True)
class AbsorbingSpec:
    """Radius calibration constant plus quadrature truncation and step."""

    c_abs: float = 2.0
    s_trunc: float = 40.0
    step: float = DEFAULT_QUAD_STEP

    def __post_init__(self):
        if not self.c_abs > 0:
            raise ValueError("c_abs must be positive")
        if not (self.s_trunc > 0 and self.step > 0):
            raise ValueError("s_trunc and step must be positive")


def _radius(tau: float, spec: ModelSpec, absorbing: AbsorbingSpec, grid: Grid,
            weight: Callable[[np.ndarray], np.ndarray]) -> float:
    """c_abs times the root of the memory integral of weight(s) (1 + |g(s + tau)|^2)."""
    def h(s):
        return weight(s) * (1.0 + np.asarray(spec.g.l2norm_sq(s + tau, grid), dtype=float))

    integral = quad_exp(h, spec.lam, absorbing.s_trunc, absorbing.step)
    return absorbing.c_abs * float(np.sqrt(integral))


def absorbing_radius(tau: float, path: WienerPath, alpha: float, spec: ModelSpec,
                     absorbing: AbsorbingSpec, grid: Grid) -> float:
    """Pathwise absorbing radius M_alpha(tau, w)."""
    return _radius(tau, spec, absorbing, grid,
                   lambda s: np.exp(-2.0 * alpha * path.value_at(s)))


def deterministic_radius(tau: float, spec: ModelSpec, absorbing: AbsorbingSpec,
                         grid: Grid) -> float:
    """Zero-noise radius M_0(tau); path weight identically one."""
    return _radius(tau, spec, absorbing, grid, lambda s: np.ones_like(s))


def uniform_radius(tau: float, path: WienerPath, spec: ModelSpec,
                   absorbing: AbsorbingSpec, grid: Grid) -> float:
    """Envelope radius R(tau, w) dominating M_alpha for every alpha in [0, 1]."""
    return _radius(tau, spec, absorbing, grid,
                   lambda s: np.exp(2.0 * np.abs(path.value_at(s))))


# -- tempered initial families ----------------------------------------------


@dataclass(frozen=True)
class TemperedFamilySpec:
    """How pullback runs draw their initial states.

    family 'constant'       : L2 ball of fixed radius
    family 'absorbing-ball' : radius = factor * M_alpha at the starting
                              anchor (the tempered absorbing family)
    family 'custom'         : radius_fn(tau, path) -> radius
    """

    family: str = "absorbing-ball"
    radius: float = 1.0
    factor: float = 1.0
    radius_fn: Callable | None = None
    modes: int = 8

    def __post_init__(self):
        if self.family not in ("constant", "absorbing-ball", "custom"):
            raise ValueError(f"unknown tempered family {self.family!r}")
        if self.family == "custom" and self.radius_fn is None:
            raise ValueError("custom family needs radius_fn")
        if self.modes < 1:
            raise ValueError("modes must be >= 1")
        if self.family == "constant" and not self.radius >= 0:
            raise ValueError(f"radius = {self.radius!r} must be non-negative")
        if self.family == "absorbing-ball" and not self.factor >= 0:
            raise ValueError(f"factor = {self.factor!r} must be non-negative")

    def radius_at(self, tau: float, path: WienerPath, alpha: float, spec: ModelSpec,
                  absorbing: AbsorbingSpec, grid: Grid) -> float:
        if self.family == "constant":
            return self.radius
        if self.family == "absorbing-ball":
            return self.factor * absorbing_radius(tau, path, alpha, spec, absorbing, grid)
        return float(self.radius_fn(tau, path))


def _mode_table(grid: Grid, modes: int) -> np.ndarray:
    """First Dirichlet sine modes stacked along axis 0."""
    xi = (grid.axis + grid.half_width) / (2.0 * grid.half_width)
    table = np.stack([np.sin(np.pi * j * xi) for j in range(1, modes + 1)])
    if grid.dim == 1:
        return table
    return np.stack([np.outer(table[j], table[j]) for j in range(modes)])


def sample_initial(family: TemperedFamilySpec, grid: Grid, radius: float,
                   rng: np.random.Generator) -> Field:
    """Smooth random state with L2 norm radius * xi, xi uniform in (0, 1]."""
    if not radius < np.inf:  # factor * M_alpha overflowed
        raise _RadiusOverflowError(f"initial radius = {radius!r} is not finite")
    if radius < 0:
        raise ValueError(f"radius = {radius!r} must be non-negative")
    table = _mode_table(grid, family.modes)
    coeff = rng.normal(0.0, 1.0, size=family.modes) / np.arange(1, family.modes + 1)
    shape = np.tensordot(coeff, table, axes=(0, 0))
    f = Field(grid, shape)
    n = norms(f).l2
    if n == 0.0:
        return Field.zeros(grid)
    scale = radius * (1.0 - rng.uniform(0.0, 1.0)) / n
    return Field(grid, scale * f.values)


# -- set machinery -------------------------------------------------------------


def _distances(a, b) -> np.ndarray:
    """Grid L2 distance matrix of two nonempty sets (approximations or field lists)."""
    fa, fb = (x.endpoints if isinstance(x, AttractorApprox) else list(x) for x in (a, b))
    if not fa or not fb:
        raise ValueError("hausdorff_semidist needs nonempty sets")
    if any(f.grid != fa[0].grid for f in fa + fb):
        raise ValueError("all fields must share one grid")
    return _l2_distances(np.stack([f.values for f in fa]), np.stack([f.values for f in fb]),
                         fa[0].grid)


def hausdorff_semidist(a, b) -> float:
    """One-sided Hausdorff distance max over a of min over b in grid L2."""
    return float(_distances(a, b).min(axis=1).max())


def hausdorff_dist(a, b) -> float:
    """Symmetric Hausdorff distance; the b-to-a distances are the transpose of the
    a-to-b matrix bit for bit, since a - b and b - a have equal squares."""
    d = _distances(a, b)
    return max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))


def _dedup(fields: list[Field], tol: float) -> list[Field]:
    """The fields, in order, that lie farther than tol from every field kept before them."""
    dist = _distances(fields, fields)
    kept: list[int] = []
    for i in range(len(fields)):
        if np.all(dist[i, kept] > tol):
            kept.append(i)
    return [fields[i] for i in kept]


# -- pullback approximation ----------------------------------------------------


@dataclass
class AttractorApprox:
    """Endpoint sets of ever deeper pullback runs at one anchor."""

    tau: float
    alpha: float
    horizons: list[float]
    m_samples: int
    endpoints: list[Field]
    distances: list[float]
    converged: bool
    seed: int
    eps_att: float

    def max_tail(self, k: float) -> float:
        return max(tail_mass(f, k) for f in self.endpoints)

    def to_json_dict(self) -> dict:
        return {
            "tau": self.tau,
            "alpha": self.alpha,
            "horizons": list(map(float, self.horizons)),
            "m_samples": self.m_samples,
            "n_endpoints": len(self.endpoints),
            "distances": list(map(float, self.distances)),
            "converged": bool(self.converged),
            "seed": self.seed,
            "eps_att": self.eps_att,
        }

    def write(self, out_dir: str) -> None:
        """JSON metadata, one binary block per endpoint, distances CSV."""
        os.makedirs(out_dir, exist_ok=True)
        meta = self.to_json_dict()
        meta["endpoint_files"] = [f"endpoint_{i:03d}.bin" for i in range(len(self.endpoints))]
        _write_json(os.path.join(out_dir, "attractor.json"), meta)
        for name, f in zip(meta["endpoint_files"], self.endpoints):
            write_field_block(f, os.path.join(out_dir, name))
        _write_csv(os.path.join(out_dir, "distances.csv"), ("horizon", "set_distance"),
                   ((float(t), float(d)) for t, d in zip(self.horizons[1:], self.distances)))

    @classmethod
    def read(cls, out_dir: str) -> "AttractorApprox":
        with open(os.path.join(out_dir, "attractor.json")) as fh:
            meta = json.load(fh)
        endpoints = [
            read_field_block(os.path.join(out_dir, name)) for name in meta["endpoint_files"]
        ]
        return cls(
            tau=meta["tau"], alpha=meta["alpha"], horizons=meta["horizons"],
            m_samples=meta["m_samples"], endpoints=endpoints,
            distances=meta["distances"], converged=meta["converged"],
            seed=meta["seed"], eps_att=meta["eps_att"],
        )


def _endpoints(columns, spec: ModelSpec, grid: Grid, dt: float, workers: int) -> np.ndarray:
    """Final states of a column block; workers > 1 splits it over one process pool.

    The pool has at most one process per column and per CPU; the chunks
    are contiguous, and a DivergenceError names its column in the block.
    """
    workers = min(workers, len(columns), os.cpu_count() or 1)
    if workers <= 1:
        return _integrate(columns, spec, grid, dt)[1]
    from concurrent.futures import ProcessPoolExecutor

    chunks = np.array_split(np.arange(len(columns)), workers)
    with ProcessPoolExecutor(workers) as ex:
        futures = [ex.submit(_integrate, [columns[i] for i in c], spec, grid, dt) for c in chunks]
        parts = []
        for chunk, fut in zip(chunks, futures):
            try:
                parts.append(fut.result()[1])
            except DivergenceError as exc:
                raise DivergenceError(exc.t, column=int(chunk[exc.column]),
                                      last_v_sq=exc.last_v_sq, last_t=exc.last_t) from None
    return np.concatenate(parts)


def _pullback_ends(anchors: Sequence[tuple[float, int, WienerPath]], alphas: Sequence[float],
                   spec: ModelSpec, grid: Grid, horizons: Sequence[float], m_samples: int,
                   family: TemperedFamilySpec, absorbing: AbsorbingSpec, dt: float,
                   workers: int) -> np.ndarray:
    """Raw pullback endpoints, one row per (anchor, intensity, horizon, member) in that order.

    An anchor is a (tau, seed, path) triple; each anchor's path is shifted
    once per horizon and that object is shared by all its columns.  Every
    member of every anchor, intensity and horizon is one column of a single
    block integration.  The initial radius is computed once per (anchor,
    intensity, horizon); member draws are keyed by (seed, horizon index,
    member index) and so shared across intensities.
    """
    horizons = [float(t) for t in horizons]
    if not horizons or any(t <= 0 for t in horizons):
        raise ValueError("horizons must be positive")
    if sorted(set(horizons)) != horizons:
        raise ValueError("horizons must increase strictly")
    if m_samples < 1:
        raise ValueError("m_samples must be >= 1")
    if not all(0.0 <= a <= 1.0 for a in alphas):
        raise ValueError("alpha must lie in [0, 1]")

    columns = []
    for tau, seed, path in anchors:
        shifted = [shift_path(path, -t) for t in horizons]
        for alpha in alphas:
            for i, t in enumerate(horizons):
                radius = family.radius_at(tau - t, shifted[i], alpha, spec, absorbing, grid)
                for j in range(m_samples):
                    rng = np.random.default_rng(np.random.SeedSequence((seed, i, j)))
                    u0 = sample_initial(family, grid, radius, rng)
                    columns.append(_Column(u0.values, 0.0, t, shifted[i], alpha, tau - t))
    return _endpoints(columns, spec, grid, dt, workers)


def _pullback_sets(anchors: Sequence[tuple[float, int, WienerPath]], alphas: Sequence[float],
                   spec: ModelSpec, grid: Grid, horizons: Sequence[float], m_samples: int,
                   family: TemperedFamilySpec, absorbing: AbsorbingSpec, dt: float,
                   eps_att: float, workers: int) -> list[AttractorApprox]:
    """Pullback approximations, one per (anchor, intensity) in that order.

    The endpoints of _pullback_ends, deduplicated per horizon; consecutive
    horizons are compared in symmetric Hausdorff distance, and an
    approximation is converged when the last comparison is below eps_att.
    """
    if not eps_att > 0:
        raise ValueError(f"eps_att = {eps_att!r} must be positive")
    ends = iter(_pullback_ends(anchors, alphas, spec, grid, horizons, m_samples, family,
                               absorbing, dt, workers))
    horizons = [float(t) for t in horizons]
    out = []
    for (tau, seed, _), alpha in product(anchors, alphas):
        sets: list[list[Field]] = []
        distances: list[float] = []
        for _ in horizons:
            current = _dedup([Field(grid, next(ends)) for _ in range(m_samples)], _DEDUP_TOL)
            if sets:
                distances.append(hausdorff_dist(current, sets[-1]))
            sets.append(current)
        out.append(AttractorApprox(
            tau=tau, alpha=alpha, horizons=horizons, m_samples=m_samples,
            endpoints=sets[-1], distances=distances,
            converged=bool(distances and distances[-1] < eps_att),
            seed=seed, eps_att=eps_att,
        ))
    return out


def pullback_ensemble(
    tau: float,
    path: WienerPath,
    alpha: float,
    spec: ModelSpec,
    grid: Grid,
    horizons: Sequence[float],
    m_samples: int,
    family: TemperedFamilySpec,
    absorbing: AbsorbingSpec,
    dt: float = 1e-3,
    eps_att: float = 1e-3,
    seed: int = 0,
    workers: int = 1,
) -> AttractorApprox:
    """Approximate the attractor section at (tau, path) for one intensity.

    For each horizon t, m_samples initial states are drawn from the
    tempered family at symbol time tau - t (path shifted by -t) and
    transported to the anchor; all horizons and members advance together
    as one column block.  Consecutive endpoint sets are compared in
    symmetric Hausdorff distance; the approximation is converged when
    the final comparison drops below eps_att.  Member draws are keyed by
    (seed, horizon index, member index), so ensembles with equal seeds
    share their initial shapes across intensities.  workers > 1 splits
    the block over that many processes with identical results.
    """
    return _pullback_sets([(tau, seed, path)], [alpha], spec, grid, horizons, m_samples,
                          family, absorbing, dt, eps_att, workers)[0]


def attractor_periodicity_check(
    spec: ModelSpec,
    tau: float,
    path: WienerPath,
    alpha: float,
    grid: Grid,
    horizons: Sequence[float],
    m_samples: int,
    family: TemperedFamilySpec,
    absorbing: AbsorbingSpec,
    dt: float = 1e-3,
    eps_att: float = 1e-3,
    seed: int = 0,
    workers: int = 1,
) -> tuple[float, AttractorApprox, AttractorApprox]:
    """Symmetric Hausdorff distance between sections at tau and tau + T.

    Requires periodic forcing.  Both anchors run as one column block with
    independent initial draws (child seeds), so agreement certifies set
    convergence rather than replaying identical arithmetic.
    """
    if spec.g.period is None:
        raise ValueError("attractor_periodicity_check needs forcing with a period")
    a, b = _pullback_sets([(tau, seed * 2 + 1, path), (tau + spec.g.period, seed * 2 + 2, path)],
                          [alpha], spec, grid, horizons, m_samples, family, absorbing, dt,
                          eps_att, workers)
    return hausdorff_dist(a, b), a, b


# -- calibration ----------------------------------------------------------------


#: calibrate_c's reference ensemble: pullback anchors (0, seed), depth 8, dt = 1e-3
_CAL_SEEDS, _CAL_ALPHAS, _CAL_MEMBERS = (101, 102), (0.0, 0.5, 1.0), 3
_CAL_DEPTH, _CAL_DT = 8.0, 1e-3
_CAL_FAMILY = TemperedFamilySpec("constant", radius=8.0)
#: its candidate constants _C_FLOOR * sqrt(2)^k, up to _C_CAP
_C_FLOOR, _C_CAP = 2.0 ** -0.5, 2.0 ** 10


def calibrate_c(spec: ModelSpec, grid: Grid) -> float:
    """Smallest grid constant absorbing a fixed reference ensemble, doubled.

    The ensemble is one pullback block at tau = 0 on seeds 101 and 102,
    intensities 0, 0.5 and 1, depth 8 and dt = 1e-3.  Each seed draws 3
    members, shared by the intensities, from a constant ball of radius 8
    under the pullback key (seed, 0, member).  Every raw endpoint counts:
    its norm over the unit-constant radius at the anchor is a ratio, and
    the candidates 2^-1/2 * sqrt(2)^k are walked upward until one covers
    every ratio.  That candidate times 2 is returned; passing 2^10 raises
    CalibrationError.
    """
    unit = AbsorbingSpec(c_abs=1.0)
    # the window covers the depth and the radius memory; both are whole steps of dt
    paths = [sample_two_sided_path(seed, max(_CAL_DEPTH, unit.s_trunc), _CAL_DT)
             for seed in _CAL_SEEDS]
    ends = _pullback_ends([(0.0, seed, path) for seed, path in zip(_CAL_SEEDS, paths)],
                          _CAL_ALPHAS, spec, grid, [_CAL_DEPTH], _CAL_MEMBERS, _CAL_FAMILY,
                          unit, _CAL_DT, 1)
    # one radius per (path, intensity), shared by that pair's members
    m_units = np.repeat([absorbing_radius(0.0, path, alpha, spec, unit, grid)
                         for path in paths for alpha in _CAL_ALPHAS], _CAL_MEMBERS)
    needed = max(float(r) / m for r, m in zip(np.sqrt(_l2_sq_rows(ends, grid)), m_units))
    c = _C_FLOOR
    while c <= _C_CAP:
        if c >= needed:
            return 2.0 * c
        c *= 2.0 ** 0.5
    raise CalibrationError(
        f"no candidate below cap {_C_CAP} absorbs the ensemble (needed {needed:.3g})"
    )


# -- tail report ------------------------------------------------------------------


@dataclass
class TailReport:
    radii: list[float]
    per_alpha: dict
    uniform_max: dict
    smallest_radius: float | None
    target: float | None

    def to_json_dict(self) -> dict:
        return {
            "radii": self.radii,
            "per_alpha": {repr(a): v for a, v in self.per_alpha.items()},
            "uniform_max": {repr(k): v for k, v in self.uniform_max.items()},
            "smallest_radius": self.smallest_radius,
            "target": self.target,
        }


def tail_uniformity_report(approxes: dict, radii: Sequence[float],
                           target: float | None = None) -> TailReport:
    """Max endpoint tail mass per cutoff radius and intensity.

    approxes maps alpha -> AttractorApprox.  When a target is given, the
    report also carries the smallest cutoff whose tail mass is below the
    target uniformly in alpha (None when no cutoff achieves it).
    """
    radii = [float(k) for k in radii]
    per_alpha = {
        a: {repr(k): ap.max_tail(k) for k in radii} for a, ap in approxes.items()
    }
    uniform = {k: max(per_alpha[a][repr(k)] for a in per_alpha) for k in radii}
    smallest = None if target is None else next(
        (k for k in sorted(radii) if uniform[k] <= target), None)
    return TailReport(
        radii=radii, per_alpha=per_alpha,
        uniform_max={k: uniform[k] for k in radii},
        smallest_radius=smallest, target=target,
    )
