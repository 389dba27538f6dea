"""Vanishing-intensity certificates and the alpha sweep."""

import dataclasses
import json
import math

import numpy as np
import pytest

from stochrd import (
    AbsorbingSpec,
    DivergenceError,
    Field,
    Grid,
    Nonlinearity,
    TemperedFamilySpec,
    WienerPath,
    canonical_cubic,
    deterministic_radius,
    deviation_check,
    path_smallness,
    periodic_bump_forcing,
    sample_two_sided_path,
    solve_u_transform,
    sweep_alpha,
    uniform_bound_check,
)
from stochrd.semicontinuity import _no_uptick

G = Grid(dim=1, half_width=8.0, n=257)
SPEC = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))
FAM = TemperedFamilySpec("constant", radius=1.0)


def linear_path(s_max=2.0, step=1e-3):
    times = np.arange(-round(s_max / step), round(s_max / step) + 1) * step
    return WienerPath.from_samples(times, step, float(times[0]))


# -- path smallness ----------------------------------------------------------


def test_path_smallness_linear_path():
    p = linear_path()
    for alpha in (0.25, 0.5, 1.0):
        expected = abs(math.expm1(alpha)) + abs(math.expm1(-alpha))
        assert path_smallness(p, alpha, 0.0, 1.0) == pytest.approx(expected, rel=1e-12)
    # restricting the window lowers the sup
    assert path_smallness(p, 0.5, 0.0, 0.5) < path_smallness(p, 0.5, 0.0, 1.0)


def test_path_smallness_rejects_window_without_grid_time():
    p = linear_path()
    with pytest.raises(ValueError, match=r"\[0\.0001, 0\.0009\]"):
        path_smallness(p, 0.5, 0.0001, 0.0009)  # strictly between two grid times
    # a window within the grid slack of one grid time holds that time
    assert path_smallness(p, 0.5, 1e-3 + 1e-13, 1e-3 + 1e-13) == path_smallness(
        p, 0.5, 1e-3, 1e-3)


def test_path_smallness_grows_with_alpha():
    p = sample_two_sided_path(9, 4.0, 1e-3)
    vals = [path_smallness(p, a, 0.0, 4.0) for a in (0.1, 0.5, 1.0)]
    assert vals[0] < vals[1] < vals[2]
    assert path_smallness(p, 0.0, 0.0, 4.0) == 0.0


# -- trajectory deviation ------------------------------------------------------


def test_deviation_zero_intensity_is_exactly_zero():
    p = sample_two_sided_path(9, 2.0, 1e-3)
    u0 = Field.from_function(G, lambda x: np.exp(-x * x))
    rep = deviation_check(SPEC, 0.0, 0.0, 1.0, p, u0)
    assert rep.sup_dev_sq == 0.0
    assert rep.ratio == 0.0


def test_deviation_shrinks_with_alpha():
    p = sample_two_sided_path(9, 1.0, 1e-3)
    u0 = Field.from_function(G, lambda x: np.exp(-x * x))
    big = deviation_check(SPEC, 0.5, 0.0, 0.5, p, u0)
    small = deviation_check(SPEC, 0.1, 0.0, 0.5, p, u0)
    assert 0.0 < small.sup_dev_sq < big.sup_dev_sq
    assert big.eps_alpha > small.eps_alpha > 0.0
    assert big.t_start == 0.0 and big.t_end == 0.5
    d = big.to_json_dict()
    assert set(d) == {"alpha", "eps_alpha", "sup_dev_sq", "ratio", "t_start", "t_end"}


def test_deviation_validates_arguments():
    p = sample_two_sided_path(9, 1.0, 1e-3)
    u0 = Field.from_function(G, lambda x: np.exp(-x * x))
    for alpha in (1.5, -0.5):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            deviation_check(SPEC, alpha, 0.0, 0.5, p, u0)
    with pytest.raises(ValueError):
        deviation_check(SPEC, 0.5, 0.0, -0.5, p, u0)


@pytest.mark.parametrize("seed, first", [(1, 1), (3, 0)])
def test_deviation_divergence_names_column(seed, first):
    # f = +u^3 blows up from u = 3; on path 1 the noisy run outlives the
    # zero-noise run, on path 3 it blows up first
    spec = dataclasses.replace(SPEC, f=Nonlinearity("anticubic"))
    grid = Grid(dim=1, half_width=4.0, n=17)
    p = sample_two_sided_path(seed, 4.0, 1e-2)
    u0 = Field(grid, 3.0 * np.ones(grid.shape))
    times = []
    for alpha in (1.0, 0.0):
        with pytest.raises(DivergenceError) as single:
            solve_u_transform(u0, 0.0, 3.0, p, spec.with_alpha(alpha), 1e-2, forcing_offset=0.25)
        times.append(single.value.t)
    with pytest.raises(DivergenceError) as block:
        deviation_check(spec, 1.0, 0.25, 3.0, p, u0, 1e-2)
    assert times[first] < times[1 - first]
    assert block.value.column == first
    assert block.value.t == times[first]


# -- radius domination -----------------------------------------------------------


def test_uniform_bound_check_passes():
    # seed 1 on the 1e-2 grid is a verified pass for the halving ladder
    p = sample_two_sided_path(1, 90.0, 1e-2)
    alphas = [2.0**-k for k in range(7)]
    rep = uniform_bound_check(0.0, p, alphas, SPEC, AbsorbingSpec(c_abs=2.0), G)
    assert rep.name == "uniform-bound"
    assert rep.passed
    assert rep.tolerance == 0.0
    assert rep.worst_margin >= 0.0
    assert rep.worst_margin == min(rep.details["domination_margins"].values())
    assert rep.details["gaps_strictly_decreasing"]
    gaps = [rep.details["gaps"][repr(a)] for a in alphas]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert rep.details["envelope_radius"] >= rep.details["deterministic_radius"]


def test_uniform_bound_check_rejects_bad_ladders():
    p = sample_two_sided_path(1, 50.0, 1e-2)
    ab = AbsorbingSpec(c_abs=2.0)
    with pytest.raises(ValueError):
        uniform_bound_check(0.0, p, [0.5, 0.5], SPEC, ab, G)
    with pytest.raises(ValueError):
        uniform_bound_check(0.0, p, [0.25, 0.5], SPEC, ab, G)


# -- uptick filter -----------------------------------------------------------------


def test_no_uptick_logic():
    assert _no_uptick([3.0, 2.0, 1.0], 0.0)
    assert _no_uptick([3.0, 2.0, 2.0005], 1e-3)  # within tolerance
    assert not _no_uptick([3.0, 2.0, 3.5], 1e-3)
    assert not _no_uptick([1.0, 1.1], 1e-3)
    assert _no_uptick([], 0.0)
    assert _no_uptick([5.0], 0.0)


# -- the sweep -----------------------------------------------------------------------


def test_sweep_alpha_structure_and_contract():
    ab = AbsorbingSpec(c_abs=2.0, s_trunc=2.0)
    res = sweep_alpha(
        SPEC, G, tau=0.0, alphas=[1e-2, 1e-6], seeds=[3],
        horizons=[4.0, 8.0], m_samples=2, family=FAM, absorbing=ab,
        eps_att=0.05, eps_semi=5e-3,
    )
    assert [r.alpha for r in res.rows] == [1e-2, 1e-6, 0.0]
    assert res.rows[-1].dist == 0.0
    assert res.rows[-1].absorbing_radius == deterministic_radius(0.0, SPEC, ab, G)
    assert res.rows[1].dist < 1e-4  # alpha = 1e-6 sits on top of zero noise
    assert res.contract_pass
    assert res.tail_radius == G.half_width / 2.0


def test_sweep_alpha_validates_ladder():
    ab = AbsorbingSpec(c_abs=2.0, s_trunc=2.0)
    kw = dict(tau=0.0, seeds=[1], horizons=[0.5], m_samples=2, family=FAM, absorbing=ab)
    with pytest.raises(ValueError):
        sweep_alpha(SPEC, G, alphas=[0.25, 0.5], **kw)
    with pytest.raises(ValueError):
        sweep_alpha(SPEC, G, alphas=[0.5, 0.0], **kw)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        sweep_alpha(SPEC, G, alphas=[2.0, 0.5], **kw)


def test_sweep_alpha_artifacts(tmp_path):
    ab = AbsorbingSpec(c_abs=2.0, s_trunc=2.0)
    kw = dict(tau=0.0, alphas=[0.5], seeds=[1, 2], horizons=[0.5],
              m_samples=2, family=FAM, absorbing=ab)
    res1 = sweep_alpha(SPEC, G, **kw)
    res2 = sweep_alpha(SPEC, G, **kw)

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    res1.write_csv(str(p1))
    res2.write_csv(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "alpha,dist,absorbing_radius,max_tail,converged"
    assert len(lines) == 1 + 2  # one ladder rung plus the zero row
    assert lines[1].split(",")[0] == "0.5"
    assert lines[-1].split(",")[-1] in ("0", "1")

    j = tmp_path / "a.json"
    res1.write_json(str(j))
    data = json.loads(j.read_text())
    assert "runtimes" not in data  # wall clock must never enter artifacts
    assert set(data) == {
        "tau", "seeds", "alphas", "rows", "eps_semi", "eps_att",
        "tail_radius", "contract_pass",
    }
    assert data["seeds"] == [1, 2]
