"""Property tests of exact invariants: block deviation, shift group law, field IO."""

import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stochrd import (
    Field,
    Grid,
    canonical_cubic,
    deviation_check,
    l2_distance,
    path_smallness,
    periodic_bump_forcing,
    read_field_block,
    sample_two_sided_path,
    shift_path,
    write_field_block,
)
from stochrd import solver
from stochrd.solver import _Column, _integrate

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
