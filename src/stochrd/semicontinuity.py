"""Vanishing-noise comparisons: trajectories and attractor sections as
the intensity alpha decreases to zero.

Two certificates are pathwise and exact up to quadrature:

  * deviation_check integrates the same initial state under intensity
    alpha and under zero noise as one two-column block and compares the
    running supremum of the squared deviation against the smallness
    eps(alpha) = sup_t (|e^{alpha w} - 1| + |e^{-alpha w} - 1|).  For
    alpha = 0 both columns coincide bit for bit.

  * uniform_bound_check evaluates M_alpha, M_0 and the envelope R on
    shared quadrature nodes, so M_alpha <= R holds with zero tolerance
    and |M_alpha - M_0| decreases along a decreasing intensity list.

sweep_alpha is the headline experiment: one anchor, one path, attractor
approximations A_alpha for a decreasing ladder of intensities plus the
zero-noise section A_0, each distance d_alpha = dist(A_alpha | A_0)
one-sided (upper semicontinuity: the noisy sections sink into the
deterministic one; nothing is claimed in the other direction).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .attractor import (
    AbsorbingSpec,
    TemperedFamilySpec,
    _pullback_sets,
    absorbing_radius,
    deterministic_radius,
    hausdorff_semidist,
    uniform_radius,
)
from .fields import Field, Grid, _l2_sq_rows
from .model import ModelSpec
from .report import CertificateReport, _verdict, _write_csv, _write_json
from .solver import _Column, _integrate
from .wiener import WienerPath, _snap, _window, sample_two_sided_path


def path_smallness(path: WienerPath, alpha: float, t_lo: float, t_hi: float) -> float:
    """eps(alpha) = sup over grid times in [t_lo, t_hi] of |e^{aw} - 1| + |e^{-aw} - 1|."""
    k = _snap(path.times / path.grid_step)
    mask = (k >= _snap(t_lo / path.grid_step)) & (k <= _snap(t_hi / path.grid_step))
    if not np.any(mask):
        raise ValueError(f"no grid time of the path in [{t_lo!r}, {t_hi!r}]")
    w = path.samples[mask]
    return float(np.max(np.abs(np.expm1(alpha * w)) + np.abs(np.expm1(-alpha * w))))


@dataclass
class DeviationReport:
    alpha: float
    eps_alpha: float
    sup_dev_sq: float
    ratio: float
    t_start: float
    t_end: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def deviation_check(spec: ModelSpec, alpha: float, tau: float, t: float,
                    path: WienerPath, u_init: Field, dt: float = 1e-3) -> DeviationReport:
    """Supremum squared deviation between intensity alpha and zero noise.

    Both runs start from u_init at symbol time tau and use the same time
    grid and forcing; only the path weight differs.  They run as columns
    0 (alpha) and 1 (zero noise) of one block, which a DivergenceError
    names, and an observer keeps the running supremum over every state.
    The report carries the ratio sup |u_alpha - u_0|^2 / eps(alpha),
    finite for alpha > 0.  For alpha = 0 sup_dev_sq is exactly zero.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    sup_sq = 0.0

    def observe(g, v, u, v_sq, z, amp):
        nonlocal sup_sq
        # the arithmetic of l2_distance(...) ** 2, once per chunk of states
        d = np.sqrt(_l2_sq_rows(u[:, 0] - u[:, 1], u_init.grid))
        sup_sq = max(sup_sq, float(d.max()) ** 2)

    cols = [_Column(u_init.values, 0.0, t, path, a, tau) for a in (alpha, 0.0)]
    _integrate(cols, spec, u_init.grid, dt, observe=observe)  # t < 0 raises ValueError
    eps = path_smallness(path, alpha, 0.0, t)
    ratio = sup_sq / eps if eps > 0 else 0.0
    return DeviationReport(
        alpha=alpha, eps_alpha=eps, sup_dev_sq=sup_sq, ratio=ratio,
        t_start=tau, t_end=tau + t,
    )


def uniform_bound_check(tau: float, path: WienerPath, alphas: Sequence[float],
                        spec: ModelSpec, absorbing: AbsorbingSpec,
                        grid: Grid) -> CertificateReport:
    """Domination M_alpha <= R on shared nodes and |M_alpha - M_0| decay.

    alphas must be a non-empty, strictly decreasing ladder in [0, 1], where R
    dominates every M_alpha.  Passing requires every domination margin R - M_alpha
    to be nonnegative (zero tolerance: the integrand inequality holds node by node)
    and the gaps |M_alpha - M_0| to decrease strictly along the list.
    """
    alphas = [float(a) for a in alphas]
    if not (alphas and alphas[-1] >= 0.0 and alphas[0] <= 1.0
            and all(a > b for a, b in zip(alphas, alphas[1:]))):
        raise ValueError("alphas must be a non-empty, strictly decreasing ladder in [0, 1]")
    m0 = deterministic_radius(tau, spec, absorbing, grid)
    r = uniform_radius(tau, path, spec, absorbing, grid)
    margins = {}
    gaps = []
    for a in alphas:
        ma = absorbing_radius(tau, path, a, spec, absorbing, grid)
        margins[repr(a)] = r - ma
        gaps.append(abs(ma - m0))
    decreasing = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    rep = _verdict("uniform-bound", list(margins.values()), alphas, 0.0, {
        "deterministic_radius": m0, "envelope_radius": r,
        "domination_margins": margins,
        "gaps": {repr(a): g for a, g in zip(alphas, gaps)},
        "gaps_strictly_decreasing": decreasing,
    })
    rep.passed = rep.passed and decreasing
    return rep


# -- the alpha sweep -------------------------------------------------------------


@dataclass
class SweepRow:
    alpha: float
    dist: float
    absorbing_radius: float
    max_tail: float
    converged: bool


@dataclass
class SweepResult:
    tau: float
    seeds: list[int]
    alphas: list[float]
    rows: list[SweepRow]
    eps_semi: float
    eps_att: float
    tail_radius: float
    contract_pass: bool

    def to_json_dict(self) -> dict:
        return asdict(self)

    def write_json(self, path: str) -> None:
        _write_json(path, self.to_json_dict())

    def write_csv(self, path: str) -> None:
        _write_csv(path, ("alpha", "dist", "absorbing_radius", "max_tail", "converged"), (
            (float(r.alpha), float(r.dist), float(r.absorbing_radius), float(r.max_tail),
             int(r.converged)) for r in self.rows))


def _no_uptick(dists: Sequence[float], eps: float) -> bool:
    """No later entry may exceed the running max of earlier ones by eps."""
    run = -np.inf
    for d in dists:
        if run > -np.inf and d > run + eps:
            return False
        run = max(run, d)
    return True


def sweep_alpha(
    spec: ModelSpec,
    grid: Grid,
    tau: float,
    alphas: Sequence[float],
    seeds: Sequence[int],
    horizons: Sequence[float],
    m_samples: int,
    family: TemperedFamilySpec,
    absorbing: AbsorbingSpec,
    dt: float = 1e-3,
    eps_att: float = 1e-3,
    eps_semi: float = 5e-3,
    tail_radius: float | None = None,
    workers: int = 1,
) -> SweepResult:
    """Upper-semicontinuity sweep at one anchor over a decreasing ladder.

    Per seed: one two-sided path, the zero-noise section A_0 and for
    each intensity the section A_alpha built from the same member draws
    (common seed keys), all integrated as one column block, then the
    one-sided distance dist(A_alpha | A_0).
    Rows aggregate across seeds by worst case, so the contract certifies
    every sampled path.  Contract: the smallest intensity's distance is
    below eps_semi and the distance ladder has no uptick beyond eps_att.

    The returned rows are ordered by decreasing alpha with a final
    alpha = 0 row (distance exactly zero by construction).
    """
    alphas = [float(a) for a in alphas]
    if sorted(alphas, reverse=True) != alphas or len(set(alphas)) != len(alphas):
        raise ValueError("alphas must decrease strictly")
    if any(a <= 0 for a in alphas):
        raise ValueError("the ladder is for positive intensities; zero is appended")
    if not alphas or not seeds or not horizons:
        raise ValueError("the sweep needs at least one intensity and one seed, and a horizon")
    if not eps_semi > 0:
        raise ValueError(f"eps_semi = {eps_semi!r} must be positive")
    if tail_radius is None:
        tail_radius = grid.half_width / 2.0
    if not tail_radius >= 0:
        raise ValueError("tail_radius must be nonnegative")

    # tau moves only the forcing clock: the path is read on [-(max horizon + s_trunc), 0]
    span = _window(max(horizons) + absorbing.s_trunc, dt, "the sweep path span")
    ladder = [0.0] + alphas
    radii, sections = [], []  # per seed, one entry per intensity of the ladder
    # one block per seed: the step tables grow with the block width, so one block of
    # every seed would raise the default sweep-alpha's peak memory from 77 to 114 MB
    for seed in seeds:
        path = sample_two_sided_path(seed, span, dt)
        sections.append(_pullback_sets([(tau, seed, path)], ladder, spec, grid, horizons,
                                       m_samples, family, absorbing, dt, eps_att, workers))
        # at alpha = 0 the path weight is exp(-0.0 w) = 1.0, the deterministic radius
        radii.append([absorbing_radius(tau, path, a, spec, absorbing, grid) for a in ladder])

    # each row is the worst case over the seeds; the alpha = 0 row goes last
    rows = [SweepRow(
        alpha=a,
        dist=max(hausdorff_semidist(sets[i], sets[0]) for sets in sections) if i else 0.0,
        absorbing_radius=max(r[i] for r in radii),
        max_tail=max(sets[i].max_tail(tail_radius) for sets in sections),
        converged=all(sets[i].converged for sets in sections),
    ) for i, a in enumerate(ladder)]
    rows = rows[1:] + rows[:1]

    dists = [r.dist for r in rows[:-1]]
    contract = bool(dists[-1] < eps_semi and _no_uptick(dists, eps_att)
                    and all(r.converged for r in rows))
    return SweepResult(
        tau=tau, seeds=[int(s) for s in seeds], alphas=alphas, rows=rows,
        eps_semi=eps_semi, eps_att=eps_att, tail_radius=float(tail_radius),
        contract_pass=contract,
    )
