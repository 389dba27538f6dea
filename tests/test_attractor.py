"""Absorbing radii, tempered families, pullback sets, calibration."""

import ast
import dataclasses
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from stochrd import (
    AbsorbingSpec,
    AttractorApprox,
    CalibrationError,
    CocycleQuery,
    DivergenceError,
    Field,
    Grid,
    TemperedFamilySpec,
    WienerPath,
    absorbing_radius,
    attractor_periodicity_check,
    calibrate_c,
    canonical_cubic,
    deterministic_radius,
    hausdorff_dist,
    hausdorff_semidist,
    l2_distance,
    Nonlinearity,
    norms,
    periodic_bump_forcing,
    phi,
    pullback_ensemble,
    sample_initial,
    sample_two_sided_path,
    shift_path,
    tail_mass,
    tail_uniformity_report,
    uniform_radius,
)
from stochrd import attractor
from stochrd.attractor import _endpoints
from stochrd.solver import _Column, _integrate

G = Grid(dim=1, half_width=8.0, n=257)
SPEC = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))


def linear_path(s_max=41.0, step=0.01):
    """w(s) = s, wrapped as a sampled path; exact on quadrature nodes."""
    times = np.arange(-round(s_max / step), round(s_max / step) + 1) * step
    return WienerPath.from_samples(times, step, float(times[0]))


# -- radii against closed forms ----------------------------------------------


def test_deterministic_radius_no_forcing():
    spec = canonical_cubic(alpha=0.5)
    ab = AbsorbingSpec(c_abs=1.0, s_trunc=40.0, step=0.01)
    expected = math.sqrt(1.0 - math.exp(-40.0))
    assert deterministic_radius(0.0, spec, ab, G) == pytest.approx(expected, rel=1e-4)


def test_deterministic_radius_constant_forcing():
    bump = periodic_bump_forcing(0.3)
    g = dataclasses.replace(bump, family="constant", period=None)
    spec = canonical_cubic(alpha=0.5, forcing=g)
    ab = AbsorbingSpec(c_abs=2.0, s_trunc=30.0, step=0.01)
    b = g.l2norm_sq(0.0, G)
    assert b > 0
    expected = 2.0 * math.sqrt((1.0 + b) * (1.0 - math.exp(-30.0)))
    assert deterministic_radius(0.0, spec, ab, G) == pytest.approx(expected, rel=1e-4)


def test_pathwise_radius_linear_path_closed_form():
    # w(s) = s turns the integrand into a pure exponential
    ab = AbsorbingSpec(c_abs=1.0, s_trunc=40.0, step=0.01)
    spec = canonical_cubic(alpha=0.5)
    got = absorbing_radius(0.0, linear_path(), 0.25, spec, ab, G)
    rate = spec.lam - 2.0 * 0.25
    expected = math.sqrt((1.0 - math.exp(-rate * 40.0)) / rate)
    assert got == pytest.approx(expected, rel=1e-4)


def test_envelope_radius_linear_path_closed_form():
    ab = AbsorbingSpec(c_abs=1.0, s_trunc=10.0, step=0.01)
    spec = canonical_cubic(alpha=0.5)
    got = uniform_radius(0.0, linear_path(11.0), spec, ab, G)
    expected = math.sqrt(math.exp(10.0) - 1.0)  # rate lam - 2 = -1
    assert got == pytest.approx(expected, rel=1e-3)


def test_zero_intensity_radius_matches_deterministic():
    ab = AbsorbingSpec(c_abs=2.0)
    p = sample_two_sided_path(5, 50.0, 1e-2)
    assert absorbing_radius(1.5, p, 0.0, SPEC, ab, G) == deterministic_radius(1.5, SPEC, ab, G)


def test_off_grid_radius_does_not_depend_on_the_window():
    # quadrature nodes on 0.01 fall between the 0.004 grid times; one draw over
    # different windows gives the same radius bits
    ab = AbsorbingSpec(c_abs=2.0, s_trunc=2.0, step=0.01)
    radii = {absorbing_radius(0.0, sample_two_sided_path(3, span, 4e-3), 0.5, SPEC, ab, G)
             for span in (2.004, 3.0, 4.0, 5.252, 8.0)}
    assert len(radii) == 1


def test_radius_homogeneous_in_c():
    p = sample_two_sided_path(5, 50.0, 1e-2)
    one = absorbing_radius(0.0, p, 0.5, SPEC, AbsorbingSpec(c_abs=1.0), G)
    two = absorbing_radius(0.0, p, 0.5, SPEC, AbsorbingSpec(c_abs=2.0), G)
    assert two == 2.0 * one


def test_envelope_dominates_every_intensity():
    ab = AbsorbingSpec(c_abs=2.0)
    for seed in (1, 2, 3):
        p = sample_two_sided_path(seed, 50.0, 1e-2)
        cap = uniform_radius(0.0, p, SPEC, ab, G)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            assert absorbing_radius(0.0, p, alpha, SPEC, ab, G) <= cap


def test_absorbing_spec_validation():
    with pytest.raises(ValueError):
        AbsorbingSpec(c_abs=0.0)
    with pytest.raises(ValueError):
        AbsorbingSpec(step=-1.0)


# -- tempered families ---------------------------------------------------------


def test_family_radius_rules():
    ab = AbsorbingSpec(c_abs=2.0)
    p = sample_two_sided_path(5, 50.0, 1e-2)
    const = TemperedFamilySpec("constant", radius=3.5)
    assert const.radius_at(0.0, p, 0.5, SPEC, ab, G) == 3.5
    ball = TemperedFamilySpec("absorbing-ball", factor=4.0)
    assert ball.radius_at(0.0, p, 0.5, SPEC, ab, G) == pytest.approx(
        4.0 * absorbing_radius(0.0, p, 0.5, SPEC, ab, G)
    )
    custom = TemperedFamilySpec("custom", radius_fn=lambda tau, path: 1.0 + abs(tau))
    assert custom.radius_at(-2.0, p, 0.5, SPEC, ab, G) == 3.0


def test_family_validation():
    with pytest.raises(ValueError):
        TemperedFamilySpec("banana")
    with pytest.raises(ValueError):
        TemperedFamilySpec("custom")
    with pytest.raises(ValueError):
        TemperedFamilySpec("constant", modes=0)


def test_negative_radius_rejected():
    with pytest.raises(ValueError, match="radius"):
        TemperedFamilySpec("constant", radius=-1.0)
    with pytest.raises(ValueError, match="factor"):
        TemperedFamilySpec("absorbing-ball", factor=-1.0)
    # each family checks only the field it reads
    TemperedFamilySpec("constant", factor=-1.0)
    fam = TemperedFamilySpec("absorbing-ball", radius=-1.0)
    with pytest.raises(ValueError, match="radius"):
        sample_initial(fam, G, -0.5, np.random.default_rng(0))


def test_sample_initial_norm_and_boundary():
    fam = TemperedFamilySpec("constant", radius=2.0, modes=8)
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = sample_initial(fam, G, 2.0, rng)
        n = norms(f).l2
        assert 0.0 < n <= 2.0
        assert f.values[0] == 0.0 and f.values[-1] == 0.0


def test_sample_initial_reproducible():
    fam = TemperedFamilySpec("constant", radius=1.0)
    a = sample_initial(fam, G, 1.0, np.random.default_rng(42))
    b = sample_initial(fam, G, 1.0, np.random.default_rng(42))
    assert np.array_equal(a.values, b.values)


def test_sample_initial_2d():
    g2 = Grid(dim=2, half_width=4.0, n=33)
    fam = TemperedFamilySpec("constant", radius=1.0, modes=4)
    f = sample_initial(fam, g2, 1.0, np.random.default_rng(1))
    assert f.values.shape == (33, 33)
    assert norms(f).l2 <= 1.0


# -- set distance ---------------------------------------------------------------


def random_fields(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        vals = rng.normal(size=G.shape)
        vals[0] = vals[-1] = 0.0
        out.append(Field(G, vals))
    return out


def test_hausdorff_basics():
    a = random_fields(1, 3)
    b = random_fields(2, 4)
    assert hausdorff_dist(a, a) == 0.0
    assert hausdorff_dist(a, b) == hausdorff_dist(b, a)
    assert hausdorff_semidist(a[:2], a) == 0.0  # subset is absorbed one-sidedly


def test_hausdorff_triangle_inequality():
    a, b, c = random_fields(3, 3), random_fields(4, 3), random_fields(5, 3)
    assert hausdorff_dist(a, c) <= hausdorff_dist(a, b) + hausdorff_dist(b, c) + 1e-12


def test_hausdorff_two_points_exact():
    z = Field.zeros(G)
    f = random_fields(6, 1)[0]
    assert hausdorff_dist([z], [f]) == l2_distance(z, f)


def test_hausdorff_rejects_bad_input():
    with pytest.raises(ValueError):
        hausdorff_semidist([], random_fields(1, 1))
    g2 = Grid(dim=1, half_width=8.0, n=129)
    with pytest.raises(ValueError):
        hausdorff_dist(random_fields(1, 1), [Field.zeros(g2)])


# -- pullback runs ---------------------------------------------------------------


FAM = TemperedFamilySpec("constant", radius=1.0)
AB = AbsorbingSpec(c_abs=2.0)


def test_pullback_ensemble_shape_and_determinism():
    p = sample_two_sided_path(3, 2.0, 1e-3)
    kw = dict(tau=0.0, path=p, alpha=0.5, spec=SPEC, grid=G,
              horizons=[0.5, 1.0], m_samples=2, family=FAM, absorbing=AB, seed=1)
    a = pullback_ensemble(**kw)
    b = pullback_ensemble(**kw)
    assert a.horizons == [0.5, 1.0]
    assert len(a.distances) == 1
    assert 1 <= len(a.endpoints) <= 2
    assert a.distances == b.distances
    for x, y in zip(a.endpoints, b.endpoints):
        assert np.array_equal(x.values, y.values)


def test_pullback_zero_intensity_ignores_path():
    kw = dict(tau=0.0, alpha=0.0, spec=SPEC, grid=G, horizons=[0.5],
              m_samples=2, family=FAM, absorbing=AB, seed=1)
    a = pullback_ensemble(path=sample_two_sided_path(3, 2.0, 1e-3), **kw)
    b = pullback_ensemble(path=sample_two_sided_path(77, 2.0, 1e-3), **kw)
    for x, y in zip(a.endpoints, b.endpoints):
        assert np.array_equal(x.values, y.values)


def test_pullback_workers_match_serial():
    p = sample_two_sided_path(3, 1.0, 1e-3)
    kw = dict(tau=0.0, path=p, alpha=0.5, spec=SPEC, grid=G, horizons=[0.25],
              m_samples=2, family=FAM, absorbing=AB, seed=4)
    a = pullback_ensemble(workers=1, **kw)
    b = pullback_ensemble(workers=2, **kw)
    for x, y in zip(a.endpoints, b.endpoints):
        assert np.array_equal(x.values, y.values)


def test_pullback_radius_once_per_horizon():
    calls = []

    def radius(tau, path):
        calls.append(tau)
        return 1.0

    fam = TemperedFamilySpec("custom", radius_fn=radius)
    p = sample_two_sided_path(3, 1.0, 1e-3)
    pullback_ensemble(tau=0.0, path=p, alpha=0.5, spec=SPEC, grid=G, horizons=[0.1, 0.2],
                      m_samples=3, family=fam, absorbing=AB, seed=4)
    assert calls == [-0.1, -0.2]


def test_pullback_validates_arguments():
    p = sample_two_sided_path(3, 2.0, 1e-3)
    kw = dict(tau=0.0, path=p, alpha=0.5, spec=SPEC, grid=G,
              m_samples=2, family=FAM, absorbing=AB)
    with pytest.raises(ValueError):
        pullback_ensemble(horizons=[1.0, 0.5], **kw)
    with pytest.raises(ValueError):  # equal depths leave the ladder with no deeper horizon
        pullback_ensemble(horizons=[2.0, 2.0], **kw)
    with pytest.raises(ValueError):
        pullback_ensemble(horizons=[-1.0], **kw)
    with pytest.raises(ValueError):
        pullback_ensemble(horizons=[], **kw)
    for alpha in (1.5, -0.5):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            pullback_ensemble(horizons=[0.5], **{**kw, "alpha": alpha})
    # a budget no set distance can meet is rejected before any step
    with mock.patch.object(attractor, "_integrate", side_effect=AssertionError("stepped")):
        for eps_att in (-1.0, 0.0):
            with pytest.raises(ValueError, match="eps_att"):
                pullback_ensemble(horizons=[0.5, 1.0], eps_att=eps_att, **kw)


def test_pool_divergence_names_block_column():
    # f = +u^3 blows up from the large state; it sits in the second chunk
    spec = dataclasses.replace(SPEC, f=Nonlinearity("anticubic"))
    grid = Grid(dim=1, half_width=4.0, n=17)
    p = sample_two_sided_path(3, 1.0, 1e-2)
    rng = np.random.default_rng(0)
    cols = [_Column(0.01 * rng.uniform(-1.0, 1.0, grid.shape), 0.0, 0.5,
                    shift_path(p, -0.5), 0.5, -0.5) for _ in range(4)]
    cols[3] = dataclasses.replace(cols[3], u_init=1e3 * np.ones(grid.shape))
    with pytest.raises(DivergenceError) as serial:
        _endpoints(cols, spec, grid, 1e-2, workers=1)
    with pytest.raises(DivergenceError) as pooled:
        _endpoints(cols, spec, grid, 1e-2, workers=2)
    assert serial.value.column == pooled.value.column == 3
    assert serial.value.t == pooled.value.t
    # the last finite norm survives the pickled trip out of the pool
    assert serial.value.last_v_sq is not None and np.isfinite(serial.value.last_v_sq)
    assert serial.value.last_v_sq == pooled.value.last_v_sq
    assert serial.value.last_t == pooled.value.last_t < serial.value.t


def test_endpoints_pool_clamped_to_cpu_count(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    grid = Grid(dim=1, half_width=4.0, n=17)
    p = sample_two_sided_path(3, 1.0, 1e-2)
    rng = np.random.default_rng(0)
    cols = [_Column(rng.uniform(-1.0, 1.0, grid.shape), 0.0, 0.5, shift_path(p, -0.5),
                    0.5, -0.5) for _ in range(3)]
    serial = _endpoints(cols, SPEC, grid, 1e-2, workers=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert np.array_equal(_endpoints(cols, SPEC, grid, 1e-2, workers=64), serial)


def test_pullback_dedup_collapses_identical_members():
    # zero-radius family: every member starts and therefore ends identically
    fam = TemperedFamilySpec("constant", radius=0.0)
    p = sample_two_sided_path(3, 1.0, 1e-3)
    a = pullback_ensemble(tau=0.0, path=p, alpha=0.5, spec=SPEC, grid=G,
                          horizons=[0.5], m_samples=4, family=fam, absorbing=AB, seed=1)
    assert len(a.endpoints) == 1


def test_max_tail_matches_fields():
    p = sample_two_sided_path(3, 2.0, 1e-3)
    a = pullback_ensemble(tau=0.0, path=p, alpha=0.5, spec=SPEC, grid=G,
                          horizons=[0.5], m_samples=3, family=FAM, absorbing=AB, seed=2)
    assert a.max_tail(4.0) == max(tail_mass(f, 4.0) for f in a.endpoints)


def test_attractor_roundtrip(tmp_path):
    p = sample_two_sided_path(3, 2.0, 1e-3)
    a = pullback_ensemble(tau=0.25, path=p, alpha=0.5, spec=SPEC, grid=G,
                          horizons=[0.5, 1.0], m_samples=2, family=FAM,
                          absorbing=AB, seed=9)
    a.write(str(tmp_path))
    back = AttractorApprox.read(str(tmp_path))
    assert back.tau == a.tau and back.alpha == a.alpha
    assert back.horizons == a.horizons
    assert back.distances == a.distances
    assert back.converged == a.converged and back.seed == 9
    assert len(back.endpoints) == len(a.endpoints)
    for x, y in zip(a.endpoints, back.endpoints):
        assert np.array_equal(x.values, y.values)
    lines = (tmp_path / "distances.csv").read_text().splitlines()
    assert lines[0] == "horizon,set_distance"
    assert len(lines) == 1 + len(a.distances)


def test_periodicity_check_runs_and_validates():
    p = sample_two_sided_path(3, 3.0, 1e-3)
    d, a, b = attractor_periodicity_check(
        SPEC, 0.0, p, 0.5, G, horizons=[0.5, 1.0], m_samples=2,
        family=FAM, absorbing=AB, seed=1,
    )
    assert d >= 0.0
    assert a.seed != b.seed  # independent draws, not replayed arithmetic
    spec0 = canonical_cubic(alpha=0.5)
    with pytest.raises(ValueError):
        attractor_periodicity_check(spec0, 0.0, p, 0.5, G, horizons=[0.5],
                                    m_samples=2, family=FAM, absorbing=AB)


# -- calibration ------------------------------------------------------------------


def test_calibrate_c_quantized_and_deterministic():
    grid = Grid(dim=1, half_width=8.0, n=33)
    c1 = calibrate_c(SPEC, grid)
    c2 = calibrate_c(SPEC, grid)
    assert c1 == c2
    assert c1 >= 2.0 * attractor._C_FLOOR
    k = 2.0 * math.log2(c1 / (2.0 * attractor._C_FLOOR))
    assert abs(k - round(k)) < 1e-9  # lands on the sqrt(2) ladder


def test_calibrate_c_matches_member_loop(monkeypatch):
    # a floor far below every ratio, so the ladder walk is set by the largest ratio
    monkeypatch.setattr(attractor, "_C_FLOOR", 2.0 ** -20)
    grid = Grid(dim=1, half_width=8.0, n=17)
    unit = AbsorbingSpec(c_abs=1.0)
    fam = TemperedFamilySpec("constant", radius=8.0)
    ends, ratios = [], []
    for seed in (101, 102):
        path = sample_two_sided_path(seed, unit.s_trunc, 1e-3)
        for alpha in (0.0, 0.5, 1.0):
            m_unit = absorbing_radius(0.0, path, alpha, SPEC, unit, grid)
            for j in range(3):  # the pullback key of the first horizon
                rng = np.random.default_rng(np.random.SeedSequence((seed, 0, j)))
                u0 = sample_initial(fam, grid, 8.0, rng)
                out = phi(CocycleQuery(8.0, -8.0, shift_path(path, -8.0), u0, alpha), SPEC, 1e-3)
                ends.append(out.values)
                ratios.append(norms(out).l2 / m_unit)
    c = 2.0 ** -20
    while c < max(ratios):
        c *= 2.0 ** 0.5
    blocks = []
    with mock.patch.object(attractor, "_integrate",
                           side_effect=lambda *a, **k: blocks.append(_integrate(*a, **k))
                           or blocks[-1]):
        assert calibrate_c(SPEC, grid) == 2.0 * c
    assert len(blocks) == 1  # one core call for the whole ensemble
    assert np.array_equal(blocks[0][1], np.array(ends))
    assert c > 2.0 ** 10 * 2.0 ** -20


def test_calibrate_c_raises_when_capped(monkeypatch):
    monkeypatch.setattr(attractor, "_C_CAP", 1e-6)
    with pytest.raises(CalibrationError):
        calibrate_c(SPEC, Grid(dim=1, half_width=8.0, n=33))


def test_benchmark_c_abs_is_the_calibrated_constant(calibrated_c):
    # the benchmark fixes c_abs instead of calibrating per run; read, not imported
    inputs = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    (value,) = [ast.literal_eval(stmt.value) for stmt in ast.parse(inputs.read_text()).body
                if isinstance(stmt, ast.Assign)
                and [getattr(t, "id", None) for t in stmt.targets] == ["C_ABS"]]
    assert value == calibrated_c


# -- tail report -------------------------------------------------------------------


def make_approx(alpha, fields):
    return AttractorApprox(tau=0.0, alpha=alpha, horizons=[1.0], m_samples=len(fields),
                           endpoints=fields, distances=[], converged=False,
                           seed=0, eps_att=1e-3)


def test_tail_report_contents():
    narrow = Field.from_function(G, lambda x: np.exp(-4.0 * x * x))
    wide = Field.from_function(G, lambda x: np.exp(-0.25 * x * x))
    approxes = {0.5: make_approx(0.5, [narrow]), 1.0: make_approx(1.0, [wide])}
    rep = tail_uniformity_report(approxes, radii=[2.0, 4.0, 6.0], target=1e-4)
    for k in (2.0, 4.0, 6.0):
        assert rep.uniform_max[k] == max(tail_mass(narrow, k), tail_mass(wide, k))
    # tails shrink as the cutoff moves out
    assert rep.uniform_max[2.0] >= rep.uniform_max[4.0] >= rep.uniform_max[6.0]
    assert rep.smallest_radius in (2.0, 4.0, 6.0)
    assert rep.uniform_max[rep.smallest_radius] <= 1e-4
    d = rep.to_json_dict()
    assert set(d["per_alpha"]) == {"0.5", "1.0"}


def test_tail_report_unreachable_target():
    f = Field.from_function(G, lambda x: np.exp(-0.25 * x * x))
    rep = tail_uniformity_report({0.5: make_approx(0.5, [f])}, radii=[1.0], target=1e-30)
    assert rep.smallest_radius is None
