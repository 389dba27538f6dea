"""Block integration: every column of a batch is its own single run, bit for bit."""

import dataclasses
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochrd import (
    DivergenceError,
    Field,
    Grid,
    Nonlinearity,
    canonical_cubic,
    periodic_bump_forcing,
    sample_two_sided_path,
    shift_path,
    solve_u_transform,
)
from stochrd import solver
from stochrd.solver import _Column, _integrate

DT = 1e-2
TAU = 0.3
PATH = sample_two_sided_path(11, 2.0, DT)
SPEC = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))

column = st.tuples(
    st.integers(0, 60),                        # steps
    st.sampled_from([0.0, 0.3, 1.0]),          # alpha
    st.floats(0.05, 2.0),                      # initial amplitude
    st.integers(0, 2**32 - 1),                 # initial shape seed
)
blocks = st.fixed_dictionaries({
    "dim": st.sampled_from([1, 2]),
    "window": st.integers(1, 40),
    "chunk": st.sampled_from([17, 100, 512, 2048, solver._CHUNK]),
    "columns": st.lists(column, min_size=1, max_size=6),
})


def _columns(grid, draws, scale=1.0):
    out = []
    for steps, alpha, amp, shape_seed in draws:
        t = steps * DT
        rng = np.random.default_rng(shape_seed)
        u0 = Field(grid, scale * amp * rng.uniform(-1.0, 1.0, grid.shape))
        out.append(_Column(u0.values, 0.0, t, shift_path(PATH, -t), alpha, TAU - t))
    return out


def _edges(block):
    """Patch the table window and the chunk budget to the drawn sizes."""
    return mock.patch.multiple(solver, _WINDOW=block["window"], _CHUNK=block["chunk"])


def _single(grid, col, spec):
    """The same column as one solve_u_transform call (a K = 1 run of the core)."""
    return solve_u_transform(Field(grid, col.u_init), col.t_start, col.t_end, col.path,
                             spec.with_alpha(col.alpha), DT, forcing_offset=col.forcing_offset)


@settings(max_examples=30, deadline=None)
@given(blocks)
def test_batch_columns_match_single_runs(block):
    grid = Grid(dim=block["dim"], half_width=4.0, n=17)
    cols = _columns(grid, block["columns"])
    # small windows and chunks put table and chunk boundaries inside every run
    with _edges(block):
        _, ends = _integrate(cols, SPEC, grid, DT)
        for j, col in enumerate(cols):
            single = _single(grid, col, SPEC).u_final.values
            assert np.array_equal(ends[j], single), f"column {j}"


@settings(max_examples=20, deadline=None)
@given(blocks, st.data())
def test_batch_divergence_names_column(block, data):
    # f = +u^3 blows up from the one large initial state in finite time
    spec = dataclasses.replace(SPEC, f=Nonlinearity("anticubic"))
    grid = Grid(dim=block["dim"], half_width=4.0, n=17)
    draws = [(max(steps, 40), a, amp, s) for steps, a, amp, s in block["columns"]]
    bad = data.draw(st.integers(0, len(draws) - 1))
    cols = _columns(grid, draws, scale=0.01)
    cols[bad] = dataclasses.replace(cols[bad], u_init=1e3 * cols[bad].u_init / 0.01)
    seen = []  # |v|^2 of the bad column at every step its K = 1 run finished
    with _edges(block):
        with pytest.raises(DivergenceError) as single:
            _single(grid, cols[bad], spec)
        with pytest.raises(DivergenceError):
            _integrate([cols[bad]], spec, grid, DT,
                       observe=lambda g, v, u, v_sq: seen.extend(
                           (g + r, float(s)) for r, s in enumerate(v_sq[:, 0])))
        with pytest.raises(DivergenceError) as batch:
            _integrate(cols, spec, grid, DT)
    assert batch.value.column == bad
    assert batch.value.t == single.value.t
    assert f"column {bad}" in str(batch.value)
    # the last finite norm and its time, the same alone as in the block
    k, v_sq = seen[-1]
    assert batch.value.last_v_sq == single.value.last_v_sq == v_sq
    assert batch.value.last_t == single.value.last_t == cols[bad].t_start + DT * k
    assert batch.value.last_t < batch.value.t
    assert f"last finite |v|^2={v_sq:.6g}" in str(batch.value)
    again = pickle.loads(pickle.dumps(batch.value))
    assert (again.t, again.column, again.last_v_sq, again.last_t, str(again)) == (
        batch.value.t, bad, v_sq, batch.value.last_t, str(batch.value))


def test_divergence_at_the_first_state_has_no_last_norm():
    grid = Grid(dim=1, half_width=4.0, n=17)
    col = _columns(grid, [(10, 0.3, 1.0, 0)])[0]
    col = dataclasses.replace(col, u_init=np.full(grid.shape, np.inf))
    with pytest.raises(DivergenceError) as err:
        _integrate([col], SPEC, grid, DT)
    assert err.value.t == col.t_start
    assert err.value.last_v_sq is None and err.value.last_t is None
    assert "last finite" not in str(err.value)
