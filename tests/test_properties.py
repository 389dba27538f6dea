"""Property tests of exact invariants: block deviation, the record ledger, the block
periodicity and cocycle checks, the 2-d sine solve, shift group law, field IO, the
whole-step rule and the path window, the norm kernels, the weight cocycle, the sign
of margins and the one verdict rule of every report."""

import dataclasses
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stochrd import (
    AbsorbingSpec,
    CocycleQuery,
    Field,
    ForcingSpec,
    Grid,
    Nonlinearity,
    Profile,
    TemperedFamilySpec,
    WienerPath,
    attractor_periodicity_check,
    canonical_cubic,
    check_g_tempered,
    cocycle_law_defect,
    deviation_check,
    energy_certificate,
    h1_certificate,
    hausdorff_dist,
    hausdorff_semidist,
    l2_distance,
    path_smallness,
    periodic_bump_forcing,
    periodic_cocycle_check,
    phi,
    pullback_ensemble,
    read_field_block,
    sample_two_sided_path,
    shift_path,
    solve_u_transform,
    tail_mass,
    uniform_bound_check,
    validate_dissipativity,
    write_field_block,
    z_value,
)
from stochrd import solver
from stochrd.attractor import _dedup
from stochrd.fields import _h1_sq_rows, _l2_distances, _l2_sq_rows, _lp_p_rows
from stochrd.model import _memory_integral, _profile_norm_sq
from stochrd.report import _verdict
from stochrd.solver import (_Column, _Direct, _integrate, _records, _SineFactor,
                           _SparseFactor, _Transform)
from stochrd.wiener import _whole_steps, _window

DT = 1e-2
PATH = sample_two_sided_path(11, 2.0, DT)
SPEC = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))


def _states(col, grid):
    """Every state of one K = 1 run of the core, in ledger order."""
    out = []
    _integrate([col], SPEC, grid, DT,
               observe=lambda g, v, u, v_sq, z, amp: out.extend(u[:, 0].copy()))
    return out


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]), alpha=st.floats(0.0, 1.0), steps=st.integers(0, 60),
       tau=st.sampled_from([0.0, 0.3, -1.25]), window=st.integers(1, 40),
       chunk=st.sampled_from([17, 100, 512, 2048, solver._CHUNK]),
       shape_seed=st.integers(0, 2**32 - 1))
def test_deviation_block_matches_two_single_runs(dim, alpha, steps, tau, window, chunk,
                                                 shape_seed):
    grid = Grid(dim=dim, half_width=4.0, n=17)
    rng = np.random.default_rng(shape_seed)
    u0 = Field(grid, rng.uniform(-1.0, 1.0, grid.shape))
    t = steps * DT
    with mock.patch.multiple(solver, _WINDOW=window, _CHUNK=chunk):
        rep = deviation_check(SPEC, alpha, tau, t, PATH, u0, DT)
        noisy, calm = (_states(_Column(u0.values, 0.0, t, PATH, a, tau), grid)
                       for a in (alpha, 0.0))
    ref = 0.0
    for ua, u_0 in zip(noisy, calm):
        ref = max(ref, l2_distance(Field(grid, ua), Field(grid, u_0)) ** 2)
    assert rep.sup_dev_sq == ref
    assert rep.eps_alpha == path_smallness(PATH, alpha, 0.0, t)
    if alpha == 0.0:
        assert rep.sup_dev_sq == 0.0


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]), scheme=st.sampled_from([_Transform, _Direct]),
       alpha=st.sampled_from([0.0, 0.3, 1.0]), steps=st.integers(0, 60) | st.just(0),
       t0=st.sampled_from([0.0, 0.25, -0.5]), window=st.integers(1, 40),
       chunk=st.sampled_from([17, 100, 512, 2048]), shape_seed=st.integers(0, 2**32 - 1))
def test_record_ledger_is_the_kernels_of_its_states(dim, scheme, alpha, steps, t0, window,
                                                    chunk, shape_seed):
    grid = Grid(dim=dim, half_width=4.0, n=17)
    # the boundary nodes too, which only the start writes and every later chunk must keep
    raw = np.random.default_rng(shape_seed).uniform(-1.0, 1.0, grid.shape)
    # away from t = 0, z != 1 and a z round trip would move the bits of u
    spec, col = SPEC.with_alpha(alpha), _Column(raw, t0, t0 + steps * DT, PATH, alpha, 0.3)
    with mock.patch.multiple(solver, _WINDOW=window, _CHUNK=chunk):
        rec = _records(scheme, [col], spec, grid, DT)[0]
    states = []  # (v, u) at every ledger index, one index per chunk
    with mock.patch.multiple(solver, _WINDOW=window, _CHUNK=1):
        _integrate([col], spec, grid, DT, scheme=scheme,
                   observe=lambda g, v, u, v_sq, z, amp: states.append(
                       (v[0, 0].copy(), u[0, 0].copy())))
    v, u = (np.array(x) for x in zip(*states))
    assert len(v) == steps + 1
    if steps == 0:  # a zero-step record returns u_init itself, with no z round trip
        u = raw[None]
        assert np.array_equal(rec.u_final.values, Field(grid, raw).values)
    else:
        assert np.array_equal(rec.u_final.values, Field(grid, u[-1]).values)
    assert np.array_equal(rec.v_final, v[-1])
    assert np.array_equal(rec.v_sq, [_l2_sq_rows(s[None], grid)[0] for s in v])
    assert np.array_equal(rec.gradv_sq, [_h1_sq_rows(s[None], grid)[0] for s in v])
    assert np.array_equal(rec.zsq_lp_p, [_lp_p_rows(s[None], grid, spec.p, w)[0]
                                         for s, w in zip(u, rec.z_sq)])
    # the path and forcing rows, from the path and the clock of the column itself
    times = t0 + DT * np.arange(steps + 1)
    amp = spec.g.amplitude * spec.g.modulation_at(times + 0.3)
    assert np.array_equal(rec.times, times)
    assert np.array_equal(rec.z_sq, np.square(np.exp(-alpha * PATH.value_at(times))))
    assert np.array_equal(rec.g_sq, (amp * amp) * _profile_norm_sq(spec.g.profile, grid))


# -- the two-anchor periodicity block and the two-column cocycle blocks --------------


@settings(max_examples=12, deadline=None)
@given(dim=st.sampled_from([1, 2]), alpha=st.floats(0.0, 1.0),
       tau=st.sampled_from([0.0, 0.3, -1.25]), seed=st.integers(0, 1000),
       horizons=st.lists(st.integers(1, 50), min_size=1, max_size=3, unique=True),
       m_samples=st.integers(1, 3), family=st.sampled_from(["constant", "absorbing-ball"]),
       workers=st.just(1))
@example(dim=2, alpha=0.5, tau=0.3, seed=4, horizons=[20, 35], m_samples=3,
         family="absorbing-ball", workers=2)
def test_periodicity_block_matches_two_ensembles(dim, alpha, tau, seed, horizons, m_samples,
                                                 family, workers):
    grid = Grid(dim=dim, half_width=4.0, n=17)
    kw = dict(path=PATH, alpha=alpha, spec=SPEC, grid=grid,
              horizons=[k * DT for k in sorted(horizons)], m_samples=m_samples,
              family=TemperedFamilySpec(family, radius=2.0, factor=1.5, modes=4),
              absorbing=AbsorbingSpec(c_abs=1.4, s_trunc=1.0, step=DT), dt=DT, eps_att=1e-2)
    dist, a, b = attractor_periodicity_check(tau=tau, seed=seed, workers=workers, **kw)
    ref_a = pullback_ensemble(tau=tau, seed=2 * seed + 1, **kw)
    ref_b = pullback_ensemble(tau=tau + SPEC.g.period, seed=2 * seed + 2, **kw)
    for got, ref in ((a, ref_a), (b, ref_b)):
        assert got.to_json_dict() == ref.to_json_dict()  # distances, converged, seed, ...
        assert len(got.endpoints) == len(ref.endpoints)
        for f, g in zip(got.endpoints, ref.endpoints):
            assert np.array_equal(f.values, g.values)
    assert dist == hausdorff_dist(ref_a, ref_b)


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]), t=st.integers(0, 40), s=st.integers(0, 40),
       r=st.floats(-3.0, 3.0), shape_seed=st.integers(0, 2**32 - 1))
def test_cocycle_blocks_match_phi_compositions(dim, t, s, r, shape_seed):
    grid = Grid(dim=dim, half_width=4.0, n=17)
    u0 = Field(grid, np.random.default_rng(shape_seed).uniform(-1.0, 1.0, grid.shape))
    t, s = t * DT, s * DT
    one = phi(CocycleQuery(t + s, r, PATH, u0), SPEC, DT)
    inner = phi(CocycleQuery(s, r, PATH, u0), SPEC, DT)
    outer = phi(CocycleQuery(t, s + r, shift_path(PATH, s), inner), SPEC, DT)
    assert cocycle_law_defect(SPEC, t, s, r, PATH, u0, DT) == l2_distance(one, outer)
    a = phi(CocycleQuery(t, r, PATH, u0), SPEC, DT)
    b = phi(CocycleQuery(t, r + SPEC.g.period, PATH, u0), SPEC, DT)
    assert periodic_cocycle_check(SPEC, t, r, PATH, u0, DT) == l2_distance(a, b)


grid_steps = st.integers(-200, 200)  # the window of PATH is [-200, 200] steps


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([17, 65]), k=st.integers(1, 8), lam=st.floats(0.0, 10.0),
       dt=st.floats(1e-4, 0.1), seed=st.integers(0, 2**32 - 1))
def test_sine_solve_matches_sparse_lu(n, k, lam, dt, seed):
    grid = Grid(dim=2, half_width=4.0, n=n)
    # the strided interior of a (K, n, n) block, which a factor solves in a copy and copies
    # back; each solve overwrites its block, so every other solve gets a copy
    rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, (k,) + grid.shape)[:, 1:-1, 1:-1]
    sine, want = _SineFactor(grid, lam, dt), _SparseFactor(grid, lam, dt).solve(rhs.copy())
    ones = [sine.solve(rhs[j:j + 1].copy())[0] for j in range(k)]  # C-ordered: in place
    got = sine.solve(rhs)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    for j in range(k):
        assert np.array_equal(got[j], ones[j]), f"column {j}"


@settings(max_examples=100, deadline=None)
@given(s=grid_steps, data=st.data())
def test_shift_group_law(s, data):
    r = data.draw(st.integers(-200 - min(s, 0), 200 - max(s, 0)))
    twice = shift_path(shift_path(PATH, s * DT), r * DT)
    once = shift_path(PATH, s * DT + r * DT)
    assert np.array_equal(twice.samples, once.samples)


@st.composite
def fields(draw):
    grid = Grid(dim=draw(st.sampled_from([1, 2])), n=draw(st.integers(3, 12)),
                half_width=draw(st.floats(1e-6, 1e6)))
    values = draw(arrays(np.float64, grid.shape,
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    return Field(grid, values)


@settings(max_examples=50, deadline=None)
@given(fields())
def test_field_block_round_trip(field):
    with tempfile.TemporaryDirectory() as tmp:
        name = os.path.join(tmp, "f.bin")
        write_field_block(field, name)
        back = read_field_block(name)
    assert back.grid == field.grid
    assert back.values.tobytes() == field.values.tobytes()


# -- the whole-step rule ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 10**6), step=st.floats(1e-4, 10.0))
def test_whole_steps_counts_grid_spans_and_rejects_others(k, step):
    assert _whole_steps(k * step, step, "span") == k
    assert _whole_steps(-k * step, step, "span") == -k
    with pytest.raises(ValueError, match="span"):
        _whole_steps((k + 0.5) * step, step, "span")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), step=st.floats(1e-3, 1.0),
       spans=st.lists(st.floats(1e-3, 4.0), min_size=2, max_size=2))
def test_windows_round_up_and_extend_one_draw(seed, step, spans):
    samples = []
    for span in spans:
        window = _window(span, step, "span")
        assert span <= window < span + step
        n = _whole_steps(window, step, "window")
        samples.append((n, sample_two_sided_path(seed, window, step).samples))
    # grid values on the common window are equal bit for bit, whatever the spans
    m = min(n for n, _ in samples)
    (a, wa), (b, wb) = samples
    assert wa[a - m:a + m + 1].tobytes() == wb[b - m:b + m + 1].tobytes()


def test_from_samples_and_memory_integral_follow_the_rule():
    with pytest.raises(ValueError, match="step"):
        _whole_steps(1.0, 0.0, "span")
    # from_samples scales the tolerance by max(1, |k|), like every other site
    assert WienerPath.from_samples(np.zeros(1002), 1.0, -(1000 + 5e-7)).t_min == -1000.0
    with pytest.raises(ValueError, match="t_min"):
        WienerPath.from_samples(np.zeros(5), 1.0, -1.5)
    forcing = periodic_bump_forcing(0.05)
    grid = Grid(dim=1, half_width=8.0, n=17)
    for delta in (0.0, 0.5):
        assert _memory_integral(forcing, 0.0, delta, 40.0, 0.01, grid) > 0.0
        with pytest.raises(ValueError, match="s_trunc"):
            _memory_integral(forcing, 0.0, delta, 40.005, 0.01, grid)


# -- the L2 kernel and the set distances --------------------------------------------------


@st.composite
def endpoint_blocks(draw):
    grid = Grid(dim=draw(st.sampled_from([1, 2])), half_width=4.0, n=17)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-8.0, 2.0))

    def block():
        m = draw(st.integers(1, 7))
        values = scale * rng.standard_normal((m,) + grid.shape)
        # repeated rows give dedup something to collapse
        return values[rng.integers(0, m, size=m)] if draw(st.booleans()) else values

    return grid, block(), block()


@settings(max_examples=100, deadline=None)
@given(endpoint_blocks(), st.sampled_from([0.0, 1e-9, 1e-3, 1.0]))
def test_distance_kernels_match_the_field_loops(blocks, tol):
    grid, a, b = blocks
    fa = [Field(grid, v) for v in a]
    fb = [Field(grid, v) for v in b]
    dist = _l2_distances(np.stack([f.values for f in fa]), np.stack([f.values for f in fb]),
                         grid)
    loop = np.array([[l2_distance(x, y) for y in fb] for x in fa])
    assert dist.tobytes() == loop.tobytes()
    assert hausdorff_semidist(fa, fb) == max(min(l2_distance(x, y) for y in fb) for x in fa)
    cm = grid.cell_measure
    rows = _l2_sq_rows(np.stack([f.values for f in fa]), grid)
    assert rows.tolist() == [float(cm * np.sum(f.values * f.values)) for f in fa]
    radius = grid.radius()
    v = fa[0].values
    assert tail_mass(fa[0], 1.0) == float(cm * np.sum((v * v)[radius >= 1.0]))
    kept = []
    for f in fa:
        if all(l2_distance(f, g) > tol for g in kept):
            kept.append(f)
    assert _dedup(fa, tol) == kept


def _h1_sq_field(v, grid):
    """The single-field H1 formula: np.dot in 1-d, two plain sums in 2-d."""
    if grid.dim == 1:
        d = np.diff(v)
        return float(np.dot(d, d) / grid.h)
    dx = np.diff(v, axis=0)
    dy = np.diff(v, axis=1)
    return float(np.sum(dx * dx) + np.sum(dy * dy))


def _lp_p_field(v, grid, p, weight):
    """The single-field Lp formula, weight * h^dim * sum |v|^p, exact products at 2 and 4."""
    q = v * v if p == 2.0 else (v * v) * (v * v) if p == 4.0 else np.abs(v) ** p
    return float(weight * grid.cell_measure * np.sum(q))


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from([(1, 17), (1, 257), (2, 17)]), k=st.integers(1, 8),
       half_width=st.sampled_from([4.0, 5.0]),
       p=st.sampled_from([2.0, 4.0, 3.0]), weight=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1), exponent=st.floats(-8.0, 2.0))
def test_row_kernels_match_the_field_formulas(shape, k, half_width, p, weight, seed, exponent):
    # half-width 5 gives a cell measure that is no power of two, so weight * h^dim rounds
    dim, n = shape
    grid = Grid(dim=dim, half_width=half_width, n=n)
    block = 10.0 ** exponent * np.random.default_rng(seed).standard_normal((k,) + grid.shape)
    h1 = _h1_sq_rows(block, grid)
    lp = _lp_p_rows(block, grid, p)
    lp_w = _lp_p_rows(block, grid, p, weight)
    assert h1.tolist() == [_h1_sq_field(v, grid) for v in block]
    assert lp.tolist() == [_lp_p_field(v, grid, p, 1.0) for v in block]
    assert lp_w.tolist() == [_lp_p_field(v, grid, p, weight) for v in block]
    for j in range(k):  # each row of the block is its own K = 1 value
        row = block[j:j + 1]
        assert h1[j] == _h1_sq_rows(row, grid)[0]
        assert lp[j] == _lp_p_rows(row, grid, p)[0]
        assert _l2_sq_rows(block, grid)[j] == _l2_sq_rows(row, grid)[0]


# -- the conjugation weight and the sign of margins ----------------------------------------


@settings(max_examples=100, deadline=None)
@given(t=grid_steps, data=st.data(), alpha=st.floats(0.0, 1.0))
def test_weight_cocycle(t, data, alpha):
    s = data.draw(st.integers(-200 - min(t, 0), 200 - max(t, 0)))
    composed = z_value(PATH, alpha, t * DT) * z_value(shift_path(PATH, t * DT), alpha, s * DT)
    assert composed == pytest.approx(z_value(PATH, alpha, t * DT + s * DT), rel=1e-12, abs=0)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.0, 1.0), steps=st.integers(100, 200), scale=st.floats(0.0, 3.0),
       tolerance=st.one_of(st.none(), st.floats(-1.0, 1.0)))
def test_margin_sign_convention(alpha, steps, scale, tolerance):
    grid = Grid(dim=1, half_width=4.0, n=17)
    u0 = Field.from_function(grid, lambda x: scale * np.exp(-x * x))
    spec = SPEC.with_alpha(alpha)
    rec = solve_u_transform(u0, 0.0, steps * DT, PATH, spec, DT)
    for check in (lambda tol: energy_certificate(rec, spec, tol),
                  lambda tol: h1_certificate(rec, spec, rec.t_end, tol)):
        rep = check(tolerance)
        assert rep.passed == (rep.worst_margin >= -rep.tolerance)
        # a margin exactly at minus the tolerance passes
        assert check(-rep.worst_margin).passed


@settings(max_examples=200, deadline=None)
@given(margins=st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 3.0]) | st.floats(-5.0, 5.0),
                        min_size=1, max_size=12),
       data=st.data(), tolerance=st.sampled_from([0.0, 0.5, 1.0]))
def test_verdict_takes_the_first_nan_else_the_first_minimum(margins, data, tolerance):
    # sampled values give ties; NaN lands on a drawn subset of places
    nan_at = data.draw(st.sets(st.integers(0, len(margins) - 1)))
    margins = [np.nan if i in nan_at else m for i, m in enumerate(margins)]
    where = [float(10 * i) for i in range(len(margins))]
    for given_as in (margins, np.array(margins)):
        rep = _verdict("r", given_as, where, tolerance, {})
        k = min(nan_at) if nan_at else margins.index(min(margins))
        assert rep.location == where[k]
        assert np.array_equal(rep.worst_margin, margins[k], equal_nan=True)
        assert rep.passed == (not nan_at and min(margins) >= -tolerance)
    # a margin of exactly minus the tolerance passes
    assert _verdict("r", [1.0, -tolerance], [0.0, 1.0], tolerance, {}).passed


@pytest.mark.parametrize("reaction", ["cubic", "anticubic"])
def test_margin_sign_convention_of_dissipativity(reaction):
    rep = validate_dissipativity(dataclasses.replace(canonical_cubic(), f=Nonlinearity(reaction)))
    assert rep.passed == (rep.worst_margin >= -rep.tolerance) == (reaction == "cubic")
    # the worst condition's own record carries the report's margin and location
    worst = rep.details[rep.details["worst_condition"]]
    assert worst["margin"] == rep.worst_margin
    assert (worst["x"], worst["s"]) == (rep.details["worst_x"], rep.location)


@pytest.mark.parametrize("rate", [0.0, -2.0], ids=["constant", "divergent"])
def test_margin_sign_convention_of_forcing_tempered(rate):
    probe_times = [0.0, -10.0, -20.0]
    forcing = ForcingSpec("custom", amplitude=1.0, profile=Profile("constant"),
                          modulation=lambda t: np.exp(rate * np.asarray(t)))
    rep = check_g_tempered(forcing, delta=0.5, c_probe=1.0, probe_times=probe_times,
                           grid=Grid(dim=1, half_width=8.0, n=65), s_trunc=10.0)
    assert rep.passed == (rep.worst_margin >= -rep.tolerance) == (rate == 0.0)
    assert rep.location in probe_times


@pytest.mark.parametrize("zero_path", [False, True], ids=["sampled", "zero"])
def test_margin_sign_convention_of_uniform_bound(zero_path):
    # on the zero path every M_alpha equals M_0, so the gaps tie and the report fails
    grid = Grid(dim=1, half_width=4.0, n=17)
    path = sample_two_sided_path(1, 6.0, 1e-2)
    if zero_path:
        path = WienerPath.from_samples(np.zeros(path.times.size), 1e-2, path.t_min)
    alphas = [0.5, 0.25, 0.0]
    rep = uniform_bound_check(0.0, path, alphas, SPEC, AbsorbingSpec(s_trunc=5.0), grid)
    assert rep.passed == (rep.worst_margin >= 0.0 and rep.details["gaps_strictly_decreasing"])
    assert rep.passed != zero_path
    assert rep.worst_margin == min(rep.details["domination_margins"].values())
