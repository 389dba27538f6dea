"""Acceptance suite: the numbered contracts the package ships under.

Each test evaluates one contract end to end at its stated tolerance and
prints a single machine-greppable verdict line.  The workloads are the
full desk-scale setups, so this module dominates suite runtime; nothing
here is a smoke test.
"""

import time

import numpy as np

from stochrd import (
    AbsorbingSpec,
    CocycleQuery,
    Field,
    Grid,
    ModelSpec,
    Nonlinearity,
    TemperedFamilySpec,
    absorbing_radius,
    attractor_periodicity_check,
    canonical_cubic,
    cocycle_law_defect,
    energy_certificate,
    h1_certificate,
    l2_distance,
    norms,
    periodic_bump_forcing,
    phi,
    phi_record,
    pullback_ensemble,
    sample_initial,
    sample_two_sided_path,
    solve_u_transform,
    sweep_alpha,
    tail_uniformity_report,
    uniform_bound_check,
)
from stochrd.attractor import _pullback_sets
from stochrd.cli import execute, load_config
from stochrd.solver import _Column, _Direct, _records, _Transform

G = Grid(dim=1, half_width=8.0, n=257)
SPEC = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))
DT = 1e-3
GAUSS = Field.from_function(G, lambda x: np.exp(-x * x))


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def _drawn_state(seed: int, radius: float = 2.0) -> Field:
    fam = TemperedFamilySpec("constant", radius=radius)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 0)))
    return sample_initial(fam, G, radius, rng)


def test_01_identity_and_composition():
    t0 = time.perf_counter()
    ident = phi(CocycleQuery(0.0, -1.5, sample_two_sided_path(1, 2.0, DT), GAUSS, 0.5), SPEC)
    identity_ok = np.array_equal(ident.values, GAUSS.values)

    worst = 0.0
    for seed in range(1, 21):
        p = sample_two_sided_path(seed, 2.0, DT)
        worst = max(worst, cocycle_law_defect(SPEC, 0.5, 0.5, 0.0, p, GAUSS, DT))
    elapsed = time.perf_counter() - t0
    ok = identity_ok and worst <= 10.0 * DT and elapsed < 120.0
    _line(1, ok, f"identity exact, composition defect {worst:.3e} "
                 f"(bound {10 * DT:g}), {elapsed:.1f}s")
    assert ok


def test_02_scheme_agreement_under_refinement():
    t0 = time.perf_counter()
    dts = (1e-3, 5e-4, 2.5e-4, 1.25e-4)
    paths = [sample_two_sided_path(seed, 1.0, 1.25e-4) for seed in range(1, 11)]
    cols = [_Column(GAUSS.values, 0.0, 1.0, p, alpha) for p in paths for alpha in (0.1, 0.5, 1.0)]
    gaps = np.zeros((30, len(dts)))
    for j, dt in enumerate(dts):
        pairs = zip(*(_records(scheme, cols, SPEC, G, dt) for scheme in (_Transform, _Direct)))
        gaps[:, j] = [l2_distance(a.u_final, b.u_final) for a, b in pairs]
    worst = gaps.max(axis=0)
    mean = gaps.mean(axis=0)
    elapsed = time.perf_counter() - t0
    # pathwise monotonicity is not a property of a pair of same-order
    # schemes; the panel aggregates are the contract
    ok = (
        bool(np.all(np.diff(worst) < 0.0))
        and bool(np.all(np.diff(mean) < 0.0))
        and worst[-1] < 1e-2
        and elapsed < 300.0
    )
    _line(2, ok, f"panel max {worst[0]:.3e} -> {worst[-1]:.3e} decreasing, "
                 f"finest < 1e-2, {elapsed:.1f}s")
    assert ok


def test_03_pure_noise_closed_form():
    base = ModelSpec(lam=1e-12, alpha=0.8, p=4.0, alpha1=1.0, alpha2=1.0,
                     alpha3=0.0, growth_c=3.0, f=Nonlinearity("zero"))
    # one interior node, where 2 dt/h^2 = 2e-19 vanishes next to 1 + dt*lam: the scalar SDE
    u0 = Field(Grid(1, 1e8, 3), [0.0, 1.0, 0.0])
    worst_transform = 0.0
    for seed in (21, 22, 23):
        p = sample_two_sided_path(seed, 3.0, DT)
        exact = u0.values * np.exp(0.8 * (p.value_at(2.5) - p.value_at(0.5)))
        scale = np.max(np.abs(exact))
        rec = solve_u_transform(u0, 0.5, 2.5, p, base, DT)
        worst_transform = max(
            worst_transform, np.max(np.abs(rec.u_final.values - exact)) / scale
        )

    paths = [sample_two_sided_path(seed, 2.0, 2.5e-4) for seed in range(20, 30)]
    exact = [u0.values * np.exp(0.8 * p.value_at(2.0)) for p in paths]
    cols = [_Column(u0.values, 0.0, 2.0, p, 0.8) for p in paths]
    rel = np.zeros((10, 3))
    for j, dt in enumerate((1e-3, 5e-4, 2.5e-4)):
        for i, rec in enumerate(_records(_Direct, cols, base, u0.grid, dt)):
            rel[i, j] = np.max(np.abs(rec.u_final.values - exact[i])) / np.max(np.abs(exact[i]))
    # the leading error coefficient is random per path, so first-order
    # convergence shows in the panel RMS, not pathwise at each level
    rms = np.sqrt((rel**2).mean(axis=0))
    first_order = rms[0] / rms[1] > 1.8 and rms[1] / rms[2] > 1.8

    ok = worst_transform < 1e-10 and first_order and rms[2] < 2e-4
    _line(3, ok, f"transform error {worst_transform:.3e} < 1e-10, "
                 f"direct RMS ratios {rms[0] / rms[1]:.2f}, {rms[1] / rms[2]:.2f}")
    assert ok


def _drawn_block(count: int) -> list:
    """One 10-unit run per seed 1..count from its drawn state, alphas cycling 0, 0.5, 1."""
    return [_Column(_drawn_state(seed).values, 0.0, 10.0, sample_two_sided_path(seed, 11.0, DT),
                    (0.0, 0.5, 1.0)[(seed - 1) % 3]) for seed in range(1, count + 1)]


def test_04_energy_certificate_panel():
    worst = np.inf
    for rec in _records(_Transform, _drawn_block(50), SPEC, G, DT):
        rep = energy_certificate(rec, SPEC)
        worst = min(worst, rep.worst_margin)
        if not rep.passed:
            break
    ok = worst >= -10.0 * DT
    _line(4, ok, f"50 trajectories, worst energy margin {worst:.3e} "
                 f"(bound {-10 * DT:g})")
    assert ok


def test_05_gradient_certificate_panel():
    worst = np.inf
    for rec in _records(_Transform, _drawn_block(20), SPEC, G, DT):
        rep = h1_certificate(rec, SPEC, t_audit=10.0)
        worst = min(worst, rep.worst_margin)
    ok = worst >= -10.0 * DT
    _line(5, ok, f"20 trajectories, worst gradient margin {worst:.3e} "
                 f"(bound {-10 * DT:g})")
    assert ok


def test_06_calibrated_absorption(calibrated_c):
    ab = AbsorbingSpec(c_abs=calibrated_c)
    fam = TemperedFamilySpec("absorbing-ball", factor=4.0)
    worst_ratio = 0.0
    alphas = (0.0, 0.5, 1.0)
    paths = {seed: sample_two_sided_path(seed, 62.0, DT) for seed in range(1, 11)}
    # ten anchors on their own paths and three intensities as one block of 90 columns;
    # each column equals its pullback_ensemble run bit for bit
    approxes = _pullback_sets([(0.0, seed, p) for seed, p in paths.items()], alphas, SPEC, G,
                              [20.0], 3, fam, ab, DT, 1e-3, 1)
    for approx in approxes:
        m_alpha = absorbing_radius(0.0, paths[approx.seed], approx.alpha, SPEC, ab, G)
        reach = max(norms(f).l2 for f in approx.endpoints)
        worst_ratio = max(worst_ratio, reach / m_alpha)
    ok = worst_ratio <= 1.0
    _line(6, ok, f"c_abs {calibrated_c:.6f}, worst endpoint/radius ratio "
                 f"{worst_ratio:.3e} <= 1")
    assert ok


def test_07_tail_uniformity(calibrated_c):
    ab = AbsorbingSpec(c_abs=calibrated_c)
    fam = TemperedFamilySpec("absorbing-ball", factor=1.0)
    p = sample_two_sided_path(7, 62.0, DT)
    approxes = {}
    for alpha in (0.0, 0.25, 0.5, 1.0):
        approxes[alpha] = pullback_ensemble(
            tau=0.0, path=p, alpha=alpha, spec=SPEC, grid=G,
            horizons=[6.0, 12.0, 20.0], m_samples=6, family=fam,
            absorbing=ab, dt=DT, seed=7,
        )
    k = G.half_width / 2.0
    rep = tail_uniformity_report(approxes, radii=[k], target=1e-4)
    ok = rep.uniform_max[k] <= 1e-4
    _line(7, ok, f"uniform tail mass at k={k:g} is {rep.uniform_max[k]:.3e} <= 1e-4")
    assert ok


def test_08_attractor_periodicity(calibrated_c):
    t0 = time.perf_counter()
    ab = AbsorbingSpec(c_abs=calibrated_c)
    fam = TemperedFamilySpec("absorbing-ball", factor=1.0)
    eps_att = 1e-3
    worst = 0.0
    for seed in range(1, 6):
        p = sample_two_sided_path(seed, 62.0, DT)
        dist, a, b = attractor_periodicity_check(
            SPEC, 0.0, p, 0.5, G, horizons=[6.0, 12.0, 20.0], m_samples=6,
            family=fam, absorbing=ab, dt=DT, eps_att=eps_att, seed=seed,
        )
        worst = max(worst, dist)
        if not (a.converged and b.converged):
            worst = np.inf
            break
    elapsed = time.perf_counter() - t0
    ok = worst <= 2.0 * eps_att and elapsed < 900.0
    _line(8, ok, f"5 seeds, worst period-shift distance {worst:.3e} "
                 f"(bound {2 * eps_att:g}), {elapsed:.1f}s")
    assert ok


def test_09_vanishing_noise_sweep(calibrated_c):
    t0 = time.perf_counter()
    ab = AbsorbingSpec(c_abs=calibrated_c)
    fam = TemperedFamilySpec("absorbing-ball", factor=1.0)
    eps_att, eps_semi = 1e-3, 5e-3
    res = sweep_alpha(
        SPEC, G, tau=0.0, alphas=[0.5, 0.25, 0.1, 0.05, 0.02],
        seeds=[7, 8, 9], horizons=[6.0, 12.0, 20.0], m_samples=6,
        family=fam, absorbing=ab, dt=DT, eps_att=eps_att, eps_semi=eps_semi,
    )
    ladder = [r.dist for r in res.rows if r.alpha > 0.0]
    elapsed = time.perf_counter() - t0
    ok = (
        res.contract_pass
        and ladder[-1] < 5.0 * eps_att
        and all(r.converged for r in res.rows)
        and elapsed < 1800.0
    )
    _line(9, ok, "ladder " + " ".join(f"{d:.3e}" for d in ladder)
          + f", final < {5 * eps_att:g}, {elapsed:.1f}s")
    assert ok


def test_10_radius_domination_and_gap_decay():
    alphas = [2.0**-k for k in range(7)]
    ab = AbsorbingSpec(c_abs=2.0)
    all_pass = True
    worst = np.inf
    for seed in (1, 3, 4, 5, 6):
        p = sample_two_sided_path(seed, 90.0, 1e-2)
        rep = uniform_bound_check(0.0, p, alphas, SPEC, ab, G)
        all_pass = all_pass and rep.passed
        worst = min(worst, rep.worst_margin)
    ok = all_pass and worst >= 0.0
    _line(10, ok, f"domination margin {worst:.3e} >= 0 with zero tolerance, "
                  f"gaps strictly decreasing over {len(alphas)} halvings")
    assert ok


def test_11_unforced_collapse():
    spec0 = canonical_cubic(alpha=0.5)  # zero forcing, zero psi1
    ab = AbsorbingSpec(c_abs=2.0)
    fam = TemperedFamilySpec("absorbing-ball", factor=1.0)
    worst = 0.0
    for seed in (3, 5, 11):
        p = sample_two_sided_path(seed, 61.0, DT)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            approx = pullback_ensemble(
                tau=0.0, path=p, alpha=alpha, spec=spec0, grid=G,
                horizons=[20.0], m_samples=2, family=fam, absorbing=ab,
                dt=DT, seed=seed,
            )
            worst = max(worst, max(norms(f).l2 for f in approx.endpoints))

    # pathwise transformed-energy decay, checked on the whole ledger
    p = sample_two_sided_path(3, 11.0, DT)
    rec = phi_record(CocycleQuery(10.0, 0.0, p, GAUSS, 0.5), spec0, DT)
    decay = np.exp(-spec0.lam * (rec.times - rec.times[0])) * rec.v_sq[0]
    decay_ok = bool(np.all(rec.v_sq <= decay * (1.0 + 1e-12)))

    ok = worst < 1e-6 and decay_ok
    _line(11, ok, f"endpoint norms {worst:.3e} < 1e-6, transformed energy "
                  f"under the exponential envelope at every step")
    assert ok


REDUCED_SWEEP = """\
[model]
alpha = 0.5

[experiment]
horizons = 1.0, 2.0
m_samples = 2
alphas = 0.5, 0.1
seeds = 1, 2
s_trunc = 2.0
family = constant
init_radius = 1.0
eps_att = 0.5
eps_semi = 0.5
"""


def test_12_reproducible_artifacts(tmp_path):
    ini = tmp_path / "sweep.ini"
    ini.write_text(REDUCED_SWEEP)
    cfg = load_config(str(ini))
    a, b = tmp_path / "a", tmp_path / "b"
    code_a = execute("sweep-alpha", cfg, str(a))
    code_b = execute("sweep-alpha", cfg, str(b))
    same_csv = (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    same_json = (a / "sweep.json").read_bytes() == (b / "sweep.json").read_bytes()
    same_manifest = (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    ok = same_csv and same_json and same_manifest and code_a == code_b
    _line(12, ok, "two sweep-alpha executions, byte-identical csv/json/manifest")
    assert ok
