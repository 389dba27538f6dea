"""Block integration: every column of a batch is its own single run, bit for bit."""

import dataclasses
import itertools
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochrd import (
    ZERO_FORCING,
    DivergenceError,
    Field,
    ForcingSpec,
    Grid,
    Nonlinearity,
    Profile,
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
OTHER = sample_two_sided_path(12, 2.0, DT)
SPEC = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))

column = st.tuples(
    st.integers(0, 60),                        # steps
    st.sampled_from([0.0, 0.3, 1.0]),          # alpha
    st.floats(0.05, 2.0),                      # initial amplitude
    st.integers(0, 2**32 - 1),                 # initial shape seed
)
blocks = st.fixed_dictionaries({
    "dim": st.sampled_from([1, 2]),
    # n = 3: one unknown per axis, the smallest in-place 1-d solve
    "n": st.sampled_from([3, 17]),
    "window": st.integers(1, 40),
    "chunk": st.sampled_from([17, 100, 512, 2048, solver._CHUNK]),
    "columns": st.lists(column, min_size=1, max_size=6),
    "reaction": st.sampled_from(["cubic", "anticubic", "zero", "custom"]),
    "forcing": st.sampled_from([SPEC.g, ZERO_FORCING]),
})


def _custom_reaction(x, s):
    return np.sin(s) - s * s * s


def _spec(block):
    """SPEC with the drawn reaction and forcing."""
    fn = _custom_reaction if block["reaction"] == "custom" else None
    return dataclasses.replace(SPEC, f=Nonlinearity(block["reaction"], fn), g=block["forcing"])


def _scale(block):
    """Initial amplitudes small enough that +u^3 does not blow up within the run."""
    return 0.05 if block["reaction"] == "anticubic" else 1.0


def _columns(grid, draws, scale=1.0, raw=False):
    """One column per draw; a raw start keeps its boundary values, which a Field zeroes."""
    out = []
    for steps, alpha, amp, shape_seed in draws:
        t = steps * DT
        rng = np.random.default_rng(shape_seed)
        u0 = scale * amp * rng.uniform(-1.0, 1.0, grid.shape)
        out.append(_Column(u0 if raw else Field(grid, u0).values, 0.0, t,
                           shift_path(PATH, -t), alpha, TAU - t))
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
    # a block steps with per-column views, a single run with floats
    grid = Grid(dim=block["dim"], half_width=4.0, n=block["n"])
    spec = _spec(block)
    cols = _columns(grid, block["columns"], _scale(block))
    # small windows and chunks put table and chunk boundaries inside every run
    with _edges(block):
        _, ends = _integrate(cols, spec, grid, DT)
        for j, col in enumerate(cols):
            single = _single(grid, col, spec).u_final.values
            assert np.array_equal(ends[j], single), f"column {j}"


def _arrays(rec):
    return (rec.times, rec.v_sq, rec.gradv_sq, rec.zsq_lp_p, rec.z_sq, rec.g_sq,
            rec.u_final.values, rec.v_final)


@settings(max_examples=30, deadline=None)
@given(blocks, st.sampled_from([solver._Transform, solver._Direct]),
       st.lists(st.tuples(st.sampled_from([0.0, 0.25, -0.5]), st.booleans(),
                          st.integers(0, 60) | st.just(0)), min_size=6, max_size=6))
def test_records_match_one_column_records(block, scheme, extras):
    # mixed lengths, zero among them, intensities, paths and start times in one block
    grid = Grid(dim=block["dim"], half_width=4.0, n=block["n"])
    spec = _spec(block)
    draws = [(steps, *rest) for (_, *rest), (_, _, steps) in zip(block["columns"], extras)]
    cols = [dataclasses.replace(c, t_start=t0, t_end=t0 + c.t_end, path=OTHER if other else c.path)
            for c, (t0, other, _) in zip(_columns(grid, draws, _scale(block)), extras)]
    with _edges(block):
        recs = solver._records(scheme, cols, spec, grid, DT)
        for j, col in enumerate(cols):
            one = solver._records(scheme, [col], spec, grid, DT)[0]
            assert (recs[j].alpha, recs[j].scheme) == (col.alpha, scheme.name)
            for a, b in zip(_arrays(recs[j]), _arrays(one)):
                assert np.array_equal(a, b), f"column {j}"


def _reference(col, spec, grid, scheme):
    """One column stepped by the plain formula with the core's implicit factor; final (v, u)."""
    factor = scheme.factors[grid.dim - 1](grid, spec.lam, DT)
    n = round((col.t_end - col.t_start) / DT)
    times = col.t_start + DT * np.arange(n + 1)
    omega = col.path.value_at(times)
    amp = spec.g.amplitude * spec.g.modulation_at(times + col.forcing_offset)
    z, zinv = np.exp(-col.alpha * omega), np.exp(col.alpha * omega)
    profile = spec.g.profile.on_grid(grid)
    x, inner = grid.coords(), (slice(None),) + (slice(1, -1),) * grid.dim
    transform = scheme is solver._Transform
    s = (z[0] * col.u_init if transform else col.u_init)[None]
    for k in range(n):
        if transform:
            rhs = (DT * z[k]) * spec.f.value(x, zinv[k] * s) + s
            coeff = (DT * z[k]) * amp[k]
        else:
            dw = omega[k + 1] - omega[k]
            ubar = s + (col.alpha * dw) * s
            rhs = s + DT * spec.f.value(x, s) + (0.5 * col.alpha * dw) * (s + ubar)
            coeff = DT * amp[k]
        if not spec.g.is_zero():
            rhs = rhs + coeff * profile
        s = s.copy()  # boundary nodes stay in place
        s[inner] = factor.solve(np.array(rhs[inner]))
    return (s[0], zinv[n] * s[0]) if transform else (z[n] * s[0], s[0])


@settings(max_examples=40, deadline=None)
@given(blocks, st.sampled_from([solver._Transform, solver._Direct]))
def test_block_steps_match_the_reference_step(block, scheme):
    # up to four columns of up to twelve steps, with nonzero boundary values
    grid = Grid(dim=block["dim"], half_width=4.0, n=block["n"])
    spec = _spec(block)
    draws = [(steps % 13, *rest) for steps, *rest in block["columns"][:4]]
    cols = _columns(grid, draws, _scale(block), raw=True)
    with _edges(block):
        v, u = _integrate(cols, spec, grid, DT, scheme=scheme)
    for j, col in enumerate(cols):
        want_v, want_u = _reference(col, spec, grid, scheme)
        assert np.array_equal(v[j], want_v) and np.array_equal(u[j], want_u), f"column {j}"


def _divergence_names_column(block, bad):
    # f = +u^3 blows up from the one large initial state in finite time
    spec = dataclasses.replace(SPEC, f=Nonlinearity("anticubic"))
    grid = Grid(dim=block["dim"], half_width=4.0, n=block["n"])
    draws = [(max(steps, 40), a, amp, s) for steps, a, amp, s in block["columns"]]
    cols = _columns(grid, draws, scale=0.01)
    # the largest interior |u| is 1e3 whatever the drawn shape
    u0 = cols[bad].u_init
    cols[bad] = dataclasses.replace(cols[bad], u_init=1e3 * u0 / np.max(np.abs(u0)))
    seen = []  # |v|^2 of the bad column at every step its K = 1 run finished
    with _edges(block):
        with pytest.raises(DivergenceError) as single:
            _single(grid, cols[bad], spec)
        with pytest.raises(DivergenceError):
            _integrate([cols[bad]], spec, grid, DT,
                       observe=lambda g, v, u, v_sq, z, amp: seen.extend(
                           (g + r, float(s)) for r, s in enumerate(v_sq[:, 0])))
        with pytest.raises(DivergenceError) as batch:
            _integrate(cols, spec, grid, DT)
        with pytest.raises(DivergenceError) as records:  # in block order, bad may move
            solver._records(solver._Transform, cols, spec, grid, DT)
    assert batch.value.column == records.value.column == bad
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


@settings(max_examples=20, deadline=None)
@given(blocks, st.data())
def test_batch_divergence_names_column(block, data):
    _divergence_names_column(block, data.draw(st.integers(0, len(block["columns"]) - 1)))


def test_batch_divergence_names_column_of_a_small_start():
    # this shape seed puts -2.28e-6 on the one interior node of a 3 x 3 grid, so a fixed
    # scale left a start from which +u^3 decays
    block = {"dim": 2, "n": 3, "window": 40, "chunk": solver._CHUNK,
             "columns": [(0, 0.0, 1.0, 4194305)]}
    _divergence_names_column(block, 0)


def _error(err):
    return err.t, err.column, err.last_v_sq, err.last_t


@pytest.mark.parametrize("dim", [1, 2])
def test_batch_divergence_after_a_chunk_that_passed_the_bound(dim):
    # the first bad state opens a chunk whose predecessor passed the bound test unscanned,
    # so the last finite |v|^2 is formed from the mirror's latest row
    spec = dataclasses.replace(SPEC, f=Nonlinearity("anticubic"))
    grid = Grid(dim=dim, half_width=4.0, n=17)
    cols = _columns(grid, [(40, 0.3, 1.0, 5), (40, 0.0, 1.0, 6), (40, 1.0, 1.0, 7)], 0.01)
    cols[1] = dataclasses.replace(cols[1], u_init=1e3 * cols[1].u_init / np.max(
        np.abs(cols[1].u_init)))
    with pytest.raises(DivergenceError) as single:
        _integrate([cols[1]], spec, grid, DT, observe=lambda *args: None)
    k = round(single.value.t / DT)  # ledger index of the first bad state
    assert k >= 2 and single.value.last_v_sq is not None
    norms = mock.Mock(wraps=solver._l2_sq_rows)
    # chunks of k - 1 rows: ledger 1..k - 1 pass, ledger k opens the next chunk
    with mock.patch.multiple(solver, _CHUNK=(k - 1) * len(cols) * grid.n**dim,
                             _l2_sq_rows=norms):
        with pytest.raises(DivergenceError) as batch:
            _integrate(cols, spec, grid, DT)
    # no norm until the failing chunk: the mirror's row of the state before it, then the chunk
    assert norms.call_count == 2
    assert norms.call_args_list[0].args[0].shape == (len(cols),) + grid.shape
    assert _error(batch.value) == _error(single.value)[:1] + (1,) + _error(single.value)[2:]


@pytest.mark.parametrize("scheme", [solver._Transform, solver._Direct])
def test_integration_keeps_the_callers_buffer_size(scheme):
    # built-in steps run with a small ufunc buffer; norms, observers and a custom reaction
    # see the caller's, which is back after a return and after a raise
    grid = Grid(dim=1, half_width=4.0, n=17)
    cols = _columns(grid, [(12, 0.3, 1.0, 1), (5, 1.0, 0.5, 2)], 0.05)
    seen = []

    def cubic(x, s):
        seen.append(np.getbufsize())
        return -(s * s * s)

    custom = dataclasses.replace(SPEC, f=Nonlinearity("custom", cubic))
    diverging = [dataclasses.replace(cols[0], u_init=np.full(grid.shape, np.inf))]
    with np.errstate():
        np.setbufsize(4096)
        for spec in (SPEC, custom):
            _integrate(cols, spec, grid, DT, scheme,
                       observe=lambda *args: seen.append(np.getbufsize()))
            _integrate(cols, spec, grid, DT, scheme)
            assert np.getbufsize() == 4096
            with pytest.raises(DivergenceError):
                _integrate(diverging, spec, grid, DT, scheme)
            assert np.getbufsize() == 4096
        with mock.patch.object(scheme.factors[0], "solve", side_effect=RuntimeError):
            with pytest.raises(RuntimeError):
                _integrate(cols, SPEC, grid, DT, scheme)
        assert np.getbufsize() == 4096
    assert len(seen) > 12 and set(seen) == {4096}


@pytest.mark.parametrize("scheme", [solver._Transform, solver._Direct])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [3, 17])
def test_steps_keep_a_zero_ring(scheme, dim, n):
    # the reaction and the forcing are nonzero on the boundary ring, which no step writes
    grid = Grid(dim=dim, half_width=4.0, n=n)
    forcing = ForcingSpec("constant", amplitude=1.0, profile=Profile("gaussian", width=3.0))
    spec = dataclasses.replace(SPEC, f=Nonlinearity("custom", lambda x, s: 1.0 - s * s * s),
                               g=forcing)
    ring = np.ones(grid.shape, dtype=bool)
    ring[(slice(1, -1),) * dim] = False
    assert np.all(forcing.profile.on_grid(grid)[ring] > 0.0)
    cols = _columns(grid, [(12, 0.3, 1.0, 1), (5, 1.0, 0.5, 2), (0, 0.0, 2.0, 3),
                           (9, 0.0, 1.5, 4)])
    with _edges({"window": 5, "chunk": 100}):
        v, u = _integrate(cols, spec, grid, DT, scheme)
    assert np.all(np.isfinite(v)) and np.any(v[:, ~ring] != 0.0)
    assert not np.any(v[:, ring]) and not np.any(u[:, ring])


def test_divergence_at_the_first_state_has_no_last_norm():
    # a non-finite start and finite ones whose |v|^2 overflows (at 1e154 in the sum alone),
    # also on the boundary ring alone, which the core's bound test does not read
    starts = [(np.inf, False), (np.inf, True), (1e160, False), (1e160, True), (1e154, False)]
    for dim, (value, ring) in itertools.product((1, 2), starts):
        grid = Grid(dim=dim, half_width=4.0, n=17)
        u0 = np.full(grid.shape, value)
        if ring:
            u0[(slice(1, -1),) * dim] = 0.0
        col = dataclasses.replace(_columns(grid, [(10, 0.3, 1.0, 0)])[0], u_init=u0)
        with pytest.raises(DivergenceError) as err:
            _integrate([col], SPEC, grid, DT)
        with pytest.raises(DivergenceError) as observed:
            _integrate([col], SPEC, grid, DT, observe=lambda *args: None)
        assert err.value.t == col.t_start
        assert err.value.last_v_sq is None and err.value.last_t is None
        assert "last finite" not in str(err.value)
        assert _error(err.value) == _error(observed.value)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("reaction", ["cubic", "anticubic", "zero", "custom"])
def test_builtin_reactions_step_without_value(dim, reaction):
    # the core steps a built-in family through its kernel; only a custom one calls value
    grid = Grid(dim=dim, half_width=4.0, n=17)
    spec = _spec({"reaction": reaction, "forcing": SPEC.g})
    cols = _columns(grid, [(12, 0.3, 1.0, 1), (5, 1.0, 0.5, 2)], 0.05)
    custom = reaction == "custom"
    with mock.patch.object(Nonlinearity, "value", autospec=True,
                           side_effect=Nonlinearity.value if custom else AssertionError) as spy:
        for scheme in (solver._Transform, solver._Direct):
            _integrate(cols, spec, grid, DT, scheme)
            solver._records(scheme, cols, spec, grid, DT)
    assert spy.called == custom
