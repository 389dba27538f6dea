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

import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .attractor import (
    AbsorbingSpec,
    TemperedFamilySpec,
    _DEDUP_TOL,
    _pullback_sets,
    absorbing_radius,
    deterministic_radius,
    hausdorff_semidist,
    uniform_radius,
)
from .fields import Field, Grid, _l2_distances
from .model import ModelSpec
from .report import CertificateReport
from .solver import _Column, _integrate
from .wiener import _GRID_RTOL, WienerPath, sample_two_sided_path


def path_smallness(path: WienerPath, alpha: float, t_lo: float, t_hi: float) -> float:
    """eps(alpha) = sup over grid times in [t_lo, t_hi] of |e^{aw} - 1| + |e^{-aw} - 1|."""
    times = path.times
    slack = _GRID_RTOL * path.grid_step
    mask = (times >= t_lo - slack) & (times <= t_hi + slack)
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
    names, and an observer keeps the running supremum over every step.
    The report carries the ratio sup |u_alpha - u_0|^2 / eps(alpha),
    finite for alpha > 0.  For alpha = 0 sup_dev_sq is exactly zero.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    sup_sq = 0.0

    def observe(k, v, u, v_sq):
        nonlocal sup_sq
        # the arithmetic of l2_distance(...) ** 2
        sup_sq = max(sup_sq, float(_l2_distances(u[:1], u[1:], u_init.grid)[0, 0]) ** 2)

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

    alphas must decrease strictly.  Passing requires every domination
    margin R - M_alpha to be nonnegative (zero tolerance: the integrand
    inequality holds node by node) and the gaps |M_alpha - M_0| to
    decrease strictly along the list.
    """
    alphas = [float(a) for a in alphas]
    if sorted(alphas, reverse=True) != alphas or len(set(alphas)) != len(alphas):
        raise ValueError("alphas must decrease strictly")
    m0 = deterministic_radius(tau, spec, absorbing, grid)
    r = uniform_radius(tau, path, spec, absorbing, grid)
    margins = {}
    gaps = []
    worst = np.inf
    loc = None
    for a in alphas:
        ma = absorbing_radius(tau, path, a, spec, absorbing, grid)
        margins[repr(a)] = r - ma
        gaps.append(abs(ma - m0))
        if r - ma < worst:
            worst, loc = r - ma, a
    decreasing = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    passed = bool(worst >= 0.0 and decreasing)
    return CertificateReport(
        name="uniform-bound", passed=passed, worst_margin=float(worst),
        tolerance=0.0, location=loc,
        details={
            "deterministic_radius": m0, "envelope_radius": r,
            "domination_margins": margins,
            "gaps": {repr(a): g for a, g in zip(alphas, gaps)},
            "gaps_strictly_decreasing": decreasing,
        },
    )


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
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("alpha,dist,absorbing_radius,max_tail,converged\n")
            for r in self.rows:
                fh.write(
                    f"{float(r.alpha)!r},{float(r.dist)!r},"
                    f"{float(r.absorbing_radius)!r},{float(r.max_tail)!r},"
                    f"{int(r.converged)}\n"
                )


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
    dedup_tol: float = _DEDUP_TOL,
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
    if tail_radius is None:
        tail_radius = grid.half_width / 2.0

    s_max = max(horizons) + absorbing.s_trunc + abs(tau)
    dist_acc = {a: 0.0 for a in alphas}
    rad_acc = {a: 0.0 for a in alphas + [0.0]}
    tail_acc = {a: 0.0 for a in alphas + [0.0]}
    conv_acc = {a: True for a in alphas + [0.0]}

    for seed in seeds:
        path = sample_two_sided_path(seed, s_max, dt)
        a0, *noisy = _pullback_sets(
            [(tau, seed)], path, [0.0] + alphas, spec, grid, horizons, m_samples, family,
            absorbing, dt, eps_att, dedup_tol, workers,
        )
        rad_acc[0.0] = max(rad_acc[0.0], deterministic_radius(tau, spec, absorbing, grid))
        tail_acc[0.0] = max(tail_acc[0.0], a0.max_tail(tail_radius))
        conv_acc[0.0] = conv_acc[0.0] and a0.converged
        for a, aa in zip(alphas, noisy):
            dist_acc[a] = max(dist_acc[a], hausdorff_semidist(aa, a0))
            rad_acc[a] = max(rad_acc[a], absorbing_radius(tau, path, a, spec, absorbing, grid))
            tail_acc[a] = max(tail_acc[a], aa.max_tail(tail_radius))
            conv_acc[a] = conv_acc[a] and aa.converged

    rows = [
        SweepRow(alpha=a, dist=dist_acc[a], absorbing_radius=rad_acc[a],
                 max_tail=tail_acc[a], converged=conv_acc[a])
        for a in alphas
    ]
    rows.append(SweepRow(alpha=0.0, dist=0.0, absorbing_radius=rad_acc[0.0],
                         max_tail=tail_acc[0.0], converged=conv_acc[0.0]))

    ladder = [dist_acc[a] for a in alphas]
    contract = bool(ladder[-1] < eps_semi and _no_uptick(ladder, eps_att)
                    and all(conv_acc.values()))
    return SweepResult(
        tau=tau, seeds=[int(s) for s in seeds], alphas=alphas, rows=rows,
        eps_semi=eps_semi, eps_att=eps_att, tail_radius=float(tail_radius),
        contract_pass=contract,
    )
