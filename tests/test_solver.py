"""Time integration: implicit-explicit stepping, both solution operators."""

import dataclasses
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from stochrd import (
    DivergenceError,
    Field,
    Grid,
    ModelSpec,
    Nonlinearity,
    WienerPath,
    canonical_cubic,
    l2_distance,
    norms,
    periodic_bump_forcing,
    sample_two_sided_path,
    solve_u_direct,
    solve_u_transform,
)
from stochrd.solver import (_BandedFactor, _Column, _Direct, _integrate, _SineFactor,
                            _TridiagonalFactor)

G = Grid(dim=1, half_width=8.0, n=257)


def linear_spec(lam=1.0, alpha=0.0):
    """No reaction, no forcing: the damped heat equation."""
    return ModelSpec(lam=lam, alpha=alpha, p=4.0, alpha1=1.0, alpha2=1.0,
                     alpha3=0.0, growth_c=3.0, f=Nonlinearity("zero"))


def lowest_mode(grid):
    L = grid.half_width
    return Field.from_function(grid, lambda x: np.sin(np.pi * (x + L) / (2.0 * L)))


def discrete_rate(grid, lam):
    """Per-unit-time decay of the lowest mode under the implicit solve."""
    h = grid.h
    mu = (4.0 / h**2) * np.sin(np.pi * h / (4.0 * grid.half_width)) ** 2
    return lam + mu


def zero_path(s_max=2.0, step=1e-3):
    m = int(round(2 * s_max / step))
    return WienerPath.from_samples(np.zeros(m + 1), step, -s_max)


def test_zero_is_fixed_point():
    p = zero_path()
    rec = solve_u_transform(Field.zeros(G), 0.0, 0.1, p, canonical_cubic(alpha=0.0), 1e-3)
    assert np.array_equal(rec.u_final.values, np.zeros(257))
    assert np.all(rec.v_sq == 0.0)  # every step, not only the endpoint


def test_eigenmode_decay_matches_implicit_factor():
    # for the lowest mode each implicit solve is division by 1 + dt*(lam + mu)
    spec = linear_spec()
    dt, n = 1e-3, 200
    u0 = lowest_mode(G)
    rec = solve_u_transform(u0, 0.0, n * dt, zero_path(), spec, dt)
    rate = discrete_rate(G, spec.lam)
    expected = u0.values / (1.0 + dt * rate) ** n
    assert rec.u_final.values == pytest.approx(expected, rel=1e-11)


def test_eigenmode_decay_approaches_heat_kernel():
    spec = linear_spec()
    dt, t = 1e-4, 0.5
    u0 = lowest_mode(G)
    rec = solve_u_transform(u0, 0.0, t, zero_path(s_max=1.0, step=dt), spec, dt)
    rate = discrete_rate(G, spec.lam)
    got = norms(rec.u_final).l2
    want = np.exp(-rate * t) * norms(u0).l2
    assert got == pytest.approx(want, rel=1e-3)


def test_eigenmode_decay_2d():
    g2 = Grid(dim=2, half_width=4.0, n=33)
    spec = linear_spec()
    dt, n = 1e-3, 50
    L = g2.half_width
    u0 = Field.from_function(
        g2, lambda x, y: np.sin(np.pi * (x + L) / (2 * L)) * np.sin(np.pi * (y + L) / (2 * L)))
    rec = solve_u_transform(u0, 0.0, n * dt, zero_path(), spec, dt)
    rate = spec.lam + 2.0 * (discrete_rate(g2, 0.0))
    expected = u0.values / (1.0 + dt * rate) ** n
    assert rec.u_final.values == pytest.approx(expected, rel=1e-9)


def test_sine_mode_decay_2d_closed_form():
    # mode (3, 2) is an eigenvector of the 2-d sine solve: each step divides
    # it by 1 + dt*(lam + mu_3 + mu_2), mu_k = (2/h^2)(1 - cos(pi k / (n - 1)))
    g2 = Grid(dim=2, half_width=4.0, n=33)
    spec = linear_spec()
    dt, n = 1e-3, 50
    L = g2.half_width
    u0 = Field.from_function(g2, lambda x, y: np.sin(3 * np.pi * (x + L) / (2 * L))
                             * np.sin(2 * np.pi * (y + L) / (2 * L)))
    rec = solve_u_transform(u0, 0.0, n * dt, zero_path(), spec, dt)
    mu = (2.0 / g2.h**2) * (1.0 - np.cos(np.pi * np.array([3, 2]) / (g2.n - 1)))
    expected = u0.values / (1.0 + dt * (spec.lam + mu.sum())) ** n
    err = np.max(np.abs(rec.u_final.values - expected)) / np.max(np.abs(expected))
    assert err < 1e-12


def test_direct_and_transform_converge_together_2d():
    # the 2-d routes share no solver (sine transform against banded Cholesky), so
    # their agreement is a check at scheme order: the panel's worst gap
    # falls with every halving of dt.  Each (route, dt) runs as one block.
    g2 = Grid(dim=2, half_width=4.0, n=17)
    u0 = np.exp(-np.sum(np.square(g2.coords()), axis=0))
    spec = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))
    dts = (4e-3, 2e-3, 1e-3, 5e-4)
    paths = [sample_two_sided_path(seed, 1.0, dts[-1]) for seed in range(1, 6)]
    cols = [_Column(u0, 0.0, 0.5, p, alpha) for p in paths for alpha in (0.1, 0.5, 1.0)]
    gaps = np.zeros((len(cols), len(dts)))
    for j, dt in enumerate(dts):
        a = _integrate(cols, spec, g2, dt)[1]
        b = _integrate(cols, spec, g2, dt, scheme=_Direct)[1]
        gaps[:, j] = [l2_distance(Field(g2, x), Field(g2, y)) for x, y in zip(a, b)]
    worst = gaps.max(axis=0)
    assert np.all(np.diff(worst) < 0.0), worst
    assert worst[-1] < 1e-3


def test_2d_blocks_of_both_routes_ignore_blas_threads(tmp_path):
    # a dense sine matrix would route the transform solve through BLAS, whose bits change
    # with its thread count, and above its block size dpbtrf factors the direct route's band
    # with level-3 BLAS; neither block may change
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from stochrd import (Grid, canonical_cubic, periodic_bump_forcing,
                             sample_two_sided_path)
        from stochrd.solver import _Column, _Direct, _integrate, _Transform

        grid = Grid(dim=2, half_width=8.0, n=129)
        spec = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))
        path = sample_two_sided_path(3, 1.0, 5e-3)
        rng = np.random.default_rng(0)
        cols = [_Column(rng.uniform(-1.0, 1.0, grid.shape), 0.0, 0.05, path, a, 0.25)
                for a in (0.0, 0.5, 1.0)]
        np.save(sys.argv[1], [_integrate(cols, spec, grid, 5e-3, scheme)[1]
                              for scheme in (_Transform, _Direct)])
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    ends = []
    for threads in ("1", "2"):
        out = tmp_path / f"ends_{threads}.npy"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True,
                       timeout=120)
        ends.append(np.load(out))
    assert ends[0].shape == (2, 3, 129, 129) and np.all(np.isfinite(ends[0]))
    assert ends[0].tobytes() == ends[1].tobytes()


@pytest.mark.parametrize("n", [3, 5, 17, 33])
@pytest.mark.parametrize("k", [1, 3])
def test_sine_factor_matches_banded_cholesky(n, k):
    # one sine axis and one chained tridiagonal solve against the oracle's banded Cholesky,
    # down to n = 3, where the chain is one mode of one unknown
    grid = Grid(dim=2, half_width=4.0, n=n)
    rhs = np.random.default_rng(n * k).uniform(-1.0, 1.0, (k,) + grid.shape)[:, 1:-1, 1:-1]
    # each factor overwrites the block it solves, so the oracle gets its own copy
    want = _BandedFactor(grid, 0.7, 2e-3).solve(rhs.copy())
    got = _SineFactor(grid, 0.7, 2e-3).solve(rhs)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _dense_operator(grid, lam, dt):
    """I + dt*(lam - laplace) on the interior nodes, assembled as a dense matrix."""
    m, r = grid.n - 2, dt / grid.h**2
    t = 2.0 * r * np.eye(m) - r * (np.eye(m, k=1) + np.eye(m, k=-1))
    lap = t if grid.dim == 1 else np.kron(np.eye(m), t) + np.kron(t, np.eye(m))
    return (1.0 + dt * lam) * np.eye(m**grid.dim) + lap


@pytest.mark.parametrize("factor, dim", [(_TridiagonalFactor, 1), (_BandedFactor, 1),
                                         (_SineFactor, 2), (_BandedFactor, 2)],
                         ids=["_TridiagonalFactor", "_BandedFactor", "_SineFactor",
                              "_BandedFactor-2d"])
@pytest.mark.parametrize("n", [3, 17])
@pytest.mark.parametrize("k", [1, 3])
def test_every_factor_solves_in_place(factor, dim, n, k):
    # a step hands its factor a C-ordered (K,) + interior row of the state buffer; at n = 3
    # a 2-d factor has one unknown
    grid = Grid(dim=dim, half_width=4.0, n=n)
    b = np.random.default_rng(n * k).uniform(-1.0, 1.0, (k,) + (n - 2,) * dim)
    rhs = b.copy()
    x = factor(grid, 0.7, 0.1).solve(b)
    assert np.shares_memory(x, b) and np.array_equal(x, b)
    want = np.linalg.solve(_dense_operator(grid, 0.7, 0.1), rhs.reshape(k, -1).T).T
    assert np.max(np.abs(b.reshape(k, -1) - want)) <= 1e-14 * np.max(np.abs(want))
    # the strided interior of a padded block is solved in a copy, which is copied back
    strided = np.zeros((k,) + grid.shape)[(slice(None),) + (slice(1, -1),) * dim]
    strided[...] = rhs
    assert factor(grid, 0.7, 0.1).solve(strided) is strided
    assert np.array_equal(strided, b)


def test_1d_transform_run_leaves_scipy_fft_unimported():
    # the sine transform is imported when the first 2-d factor is built, so 1-d runs do not
    # pay its import time and memory
    script = textwrap.dedent("""
        import sys
        from stochrd import (Field, Grid, canonical_cubic, periodic_bump_forcing,
                             sample_two_sided_path, solve_u_transform)

        grid = Grid(dim=1, half_width=8.0, n=65)
        spec = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))
        u0 = Field.from_function(grid, lambda x: 1.0 / (1.0 + x * x))
        solve_u_transform(u0, 0.0, 0.1, sample_two_sided_path(1, 1.0, 1e-3), spec, 1e-3)
        print(sorted(m for m in sys.modules if m.startswith("scipy.fft")))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_pure_noise_transform_is_exact():
    # no reaction, negligible damping, and one interior node, where 2 dt/h^2 = 2e-19
    # vanishes next to 1 + dt*lam: the solution is u0 * exp(alpha * (w(t) - w(0))), which
    # the transform path hits
    spec = dataclasses.replace(linear_spec(lam=1e-12), alpha=0.8)
    p = sample_two_sided_path(21, 2.0, 1e-3)
    u0 = Field(Grid(1, 1e8, 3), [0.0, 1.0, 0.0])
    rec = solve_u_transform(u0, 0.0, 2.0, p, spec, 1e-3)
    exact = u0.values * np.exp(0.8 * p.value_at(2.0))
    assert np.max(np.abs(rec.u_final.values - exact)) < 1e-10 * np.max(np.abs(exact))


def test_zero_intensity_ignores_the_path():
    spec = canonical_cubic(alpha=0.0, forcing=periodic_bump_forcing(0.05))
    u0 = Field.from_function(G, lambda x: np.exp(-x * x))
    rec_noisy = solve_u_transform(u0, 0.0, 0.5, sample_two_sided_path(3, 1.0, 1e-3), spec, 1e-3)
    rec_flat = solve_u_transform(u0, 0.0, 0.5, zero_path(1.0), spec, 1e-3)
    assert np.array_equal(rec_noisy.u_final.values, rec_flat.u_final.values)


def test_conjugation_bookkeeping():
    spec = canonical_cubic(alpha=0.7, forcing=periodic_bump_forcing(0.05))
    p = sample_two_sided_path(5, 1.0, 1e-3)
    u0 = Field.from_function(G, lambda x: np.exp(-x * x))
    rec = solve_u_transform(u0, 0.0, 1.0, p, spec, 1e-3)
    z_end = np.exp(-0.7 * p.value_at(1.0))
    assert rec.v_final == pytest.approx(z_end * rec.u_final.values, rel=1e-13, abs=1e-300)
    assert rec.v_sq[0] == pytest.approx(norms(u0).l2**2, rel=1e-14)


def test_record_ledger_shapes_and_forcing():
    spec = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))
    p = sample_two_sided_path(5, 1.0, 1e-3)
    u0 = Field.from_function(G, lambda x: np.exp(-x * x))
    rec = solve_u_transform(u0, 0.0, 0.25, p, spec, 1e-3, forcing_offset=0.5)
    assert rec.times.shape == (251,)
    assert rec.t_start == 0.0 and rec.t_end == pytest.approx(0.25)
    for arr in (rec.v_sq, rec.gradv_sq, rec.zsq_lp_p, rec.z_sq, rec.g_sq):
        assert arr.shape == (251,) and np.all(np.isfinite(arr))
    k = 100
    want = spec.g.l2norm_sq(float(rec.times[k]) + 0.5, G)
    assert rec.g_sq[k] == pytest.approx(want, rel=1e-12)


def test_zero_step_run_is_identity():
    spec = canonical_cubic(alpha=0.9)
    p = sample_two_sided_path(5, 1.0, 1e-3)
    u0 = Field.from_function(G, lambda x: np.exp(-x * x))
    rec = solve_u_transform(u0, 0.0, 0.0, p, spec, 1e-3)
    assert np.array_equal(rec.u_final.values, u0.values)


def test_direct_and_transform_agree():
    spec = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))
    p = sample_two_sided_path(9, 1.0, 1e-3)
    u0 = Field.from_function(G, lambda x: np.exp(-x * x))
    rt = solve_u_transform(u0, 0.0, 1.0, p, spec, 1e-3)
    rd = solve_u_direct(u0, 0.0, 1.0, p, spec, 1e-3)
    assert l2_distance(rt.u_final, rd.u_final) < 1e-3
    assert rd.scheme == "direct" and rt.scheme == "transform"


def _direct_reference(u0, t_end, path, spec, dt):
    """The direct route as a plain per-step loop with the banded Cholesky solve."""
    from scipy.linalg import cho_solve_banded, cholesky_banded

    grid = u0.grid
    m, r = grid.n - 2, dt / grid.h**2
    ab = np.zeros((2, m))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + dt * spec.lam + 2.0 * r
    cb = cholesky_banded(ab)
    times = dt * np.arange(round(t_end / dt) + 1)
    omega = path.value_at(times)
    amp = spec.g.amplitude * spec.g.modulation_at(times)
    profile = spec.g.profile.on_grid(grid)
    u = u0.values.copy()
    for k in range(times.size - 1):
        dw = omega[k + 1] - omega[k]
        ubar = u + spec.alpha * dw * u
        rhs = u + dt * spec.f.value(grid.axis, u) + (0.5 * spec.alpha * dw) * (u + ubar)
        if amp[k] != 0.0:
            rhs = rhs + (dt * amp[k]) * profile
        u = np.zeros_like(u)
        u[1:-1] = cho_solve_banded((cb, False), rhs[1:-1])
    return u


def test_direct_route_matches_plain_loop_bit_for_bit():
    # the oracle's arithmetic must not move with the production solver;
    # 1,500 steps cross a table window boundary of the core
    spec = canonical_cubic(alpha=0.7, forcing=periodic_bump_forcing(0.05))
    p = sample_two_sided_path(9, 2.0, 1e-3)
    u0 = Field.from_function(G, lambda x: np.exp(-x * x))
    rec = solve_u_direct(u0, 0.0, 1.5, p, spec, 1e-3)
    assert np.array_equal(rec.u_final.values, _direct_reference(u0, 1.5, p, spec, 1e-3))


@pytest.mark.parametrize("solve", [solve_u_transform, solve_u_direct])
def test_three_node_grid_is_the_one_node_recursion(solve):
    # n = 3 leaves one interior node, where the implicit solve is a division
    grid = Grid(dim=1, half_width=1.0, n=3)
    spec = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))
    dt, steps, u0 = 1e-2, 150, 0.8
    p = sample_two_sided_path(5, 2.0, dt)
    rec = solve(Field(grid, np.array([0.0, u0, 0.0])), 0.0, steps * dt, p, spec, dt)
    t = dt * np.arange(steps + 1)
    w = p.value_at(t)
    z = np.exp(-spec.alpha * w)
    g = spec.g.amplitude * spec.g.modulation_at(t) * spec.g.profile.eval_radius(0.0)
    c = 1.0 + dt * spec.lam + 2.0 * dt / grid.h**2
    if solve is solve_u_transform:
        v = z[0] * u0
        for k in range(steps):
            v = (v + dt * z[k] * -(v / z[k]) ** 3 + dt * z[k] * g[k]) / c
        assert rec.v_final[1] == pytest.approx(v, rel=1e-12)
    else:
        u = u0
        for k in range(steps):
            adw = spec.alpha * (w[k + 1] - w[k])
            u = (u + dt * -u**3 + 0.5 * adw * (u + (u + adw * u)) + dt * g[k]) / c
        assert rec.u_final.values[1] == pytest.approx(u, rel=1e-12)
    assert rec.u_final.values[0] == rec.u_final.values[2] == 0.0


def test_direct_ledger_uses_transformed_state():
    spec = canonical_cubic(alpha=0.7)
    p = sample_two_sided_path(9, 1.0, 1e-3)
    u0 = Field.from_function(G, lambda x: np.exp(-x * x))
    rd = solve_u_direct(u0, 0.0, 0.5, p, spec, 1e-3)
    assert rd.v_sq[0] == pytest.approx(norms(u0).l2**2, rel=1e-14)
    z_end = np.exp(-0.7 * p.value_at(0.5))
    assert rd.v_sq[-1] == pytest.approx(z_end**2 * norms(rd.u_final).l2**2, rel=1e-12)


def test_divergence_reports_time():
    spec = dataclasses.replace(canonical_cubic(alpha=0.0), f=Nonlinearity("anticubic"))
    u0 = Field.from_function(G, lambda x: 10.0 * np.exp(-x * x))
    with pytest.raises(DivergenceError) as err:
        solve_u_transform(u0, 0.0, 1.0, zero_path(), spec, 1e-3)
    assert err.value.t > 0.0
    assert "t=" in str(err.value)


def test_step_grid_must_divide_interval():
    spec = canonical_cubic(alpha=0.0)
    u0 = Field.zeros(G)
    with pytest.raises(ValueError):
        solve_u_transform(u0, 0.0, 0.0015, zero_path(), spec, 1e-3)
    with pytest.raises(ValueError):
        solve_u_transform(u0, 0.5, 0.0, zero_path(), spec, 1e-3)


def test_bounded_over_seed_panel():
    spec = canonical_cubic(alpha=1.0, forcing=periodic_bump_forcing(0.05))
    u0 = Field.from_function(G, lambda x: np.exp(-x * x))
    sup = 0.0
    for seed in range(30):
        p = sample_two_sided_path(seed, 1.0, 1e-3)
        rec = solve_u_transform(u0, 0.0, 1.0, p, spec, 1e-3)
        sup = max(sup, norms(rec.u_final).l2)
    assert np.isfinite(sup) and sup < 50.0
