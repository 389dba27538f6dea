"""Property tests of exact invariants: block deviation, the block periodicity and cocycle
checks, shift group law, field IO, the whole-step rule, the L2 kernels, the weight cocycle
and the sign of margins."""

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
    Grid,
    TemperedFamilySpec,
    WienerPath,
    attractor_periodicity_check,
    canonical_cubic,
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
    write_field_block,
    z_value,
)
from stochrd import solver
from stochrd.attractor import _dedup
from stochrd.fields import _l2_distances, _l2_sq_rows
from stochrd.model import _memory_integral
from stochrd.solver import _Column, _integrate
from stochrd.wiener import _whole_steps

DT = 1e-2
PATH = sample_two_sided_path(11, 2.0, DT)
SPEC = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))


def _states(col, grid):
    """Every state of one K = 1 run of the core, in ledger order."""
    out = []
    _integrate([col], SPEC, grid, DT, observe=lambda k, v, u, v_sq: out.append(u[0].copy()))
    return out


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]), alpha=st.floats(0.0, 1.0), steps=st.integers(0, 60),
       tau=st.sampled_from([0.0, 0.3, -1.25]), window=st.integers(1, 40),
       shape_seed=st.integers(0, 2**32 - 1))
def test_deviation_block_matches_two_single_runs(dim, alpha, steps, tau, window, shape_seed):
    grid = Grid(dim=dim, half_width=4.0, n=17)
    rng = np.random.default_rng(shape_seed)
    u0 = Field(grid, rng.uniform(-1.0, 1.0, grid.shape))
    t = steps * DT
    with mock.patch.object(solver, "_WINDOW", window):
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
