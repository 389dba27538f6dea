"""Time integration of the transformed equation and its direct oracle.

Two routes compute the same random field, which is what makes the pair
an internal consistency check rather than one method trusted twice:

* solve_u_transform integrates the pathwise transformed equation

      dv/dt + lam*v - laplace(v) = z f(x, v/z) + z g(t, x),
      z(t) = exp(-alpha * w(t)),

  with an IMEX step (backward Euler for lam - laplace, explicit
  reaction and forcing frozen at the left endpoint) and returns
  u = v / z.  The noise enters only through the weight z, so the
  scheme is deterministic along a frozen path.

* solve_u_direct discretizes the original equation, treating the
  noise term alpha * u o dW with the Euler-Heun midpoint rule (predict
  with the Euler increment, average the noise coefficient) and the same
  IMEX treatment for the rest.  No transform is involved, which keeps
  the two routes independent down to the level of the scheme.

Both routes run through one integrator core, _integrate, which advances
a C-ordered (K, n) block of columns, one trajectory per row.  The
columns share the grid, the step, the damping, the reaction and the
forcing profile; each has its own initial state, step count, path
weights and forcing clock.  Columns end together: the longest run starts
first and shorter ones join the active prefix of the block when their
remaining step count is reached, so a column costs nothing before it
starts.  A chunk of steps ends at the next join, and a scheme returns
one runner per table window and per join, which steps a whole chunk of
buffer rows: coefficients are prebuilt rows (a float for one column, an
(a, 1[, 1]) view for a > 1), the reaction is its family's in-place
kernel and the forcing one product per chunk, so a step is a few
in-place ufunc calls and one solve for the whole active block.  A buffer
row holds interior nodes only, a C-ordered (K,) + interior block: the
right-hand side is assembled in the destination row and solved there, in
1-d by LAPACK dpttrs (dpttrf factored once per integration), in 2-d by
one type-I sine transform along one axis, one chained dpttrs solve along
the other and the inverse transform (Hockney's method).  No column's
arithmetic depends on another, so column j equals a K = 1 run bit for
bit.  Weights and forcing amplitudes are tabulated per column in windows
of _WINDOW steps counted back from the common end, so the tables stay
small at any horizon and a column sees the same windows alone as in a
block.  The direct route solves by banded Cholesky in every dimension
(LAPACK dpbtrf once, one dpbtrs call per block) and shares no solver
with the transform route's LDL^T; each scheme names its factor per
dimension in its `factors` pair.

Steps write a buffer of consecutive states (at most _CHUNK floats, never
across a table window or a join) into a padded mirror that keeps the
boundary ring; the finite check and the observe hook of _integrate read
the mirror, one row-kernel call per quantity.  An unobserved transform
run first tests the chunk's states against a bound under which every
|v|^2 is finite: when they pass, only the latest state is copied and no
norm is formed; when they do not, and in observed and direct runs, the
whole chunk is copied and checked by its norms.  The chunks of the
built-in reactions, whose ufunc calls are all elementwise, run with a
16-element numpy buffer, which spares copying each broadcast (a, 1[, 1])
coefficient into a full one; norms and custom reactions run with the
caller's.  Every record, a single run's too, is one _records block
whose one observer fills all five per-step ledgers (|v|^2, |grad v|^2,
z^2 |u|_p^p, z^2, |g|^2) of the energy and gradient certificates from
the states and the chunk's table rows: only _tables reads the path and
the forcing clock.  A non-finite state aborts integration with
DivergenceError naming the first bad time, the column and its last
finite |v|^2 and time.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dpttrs

from .errors import DivergenceError
from .fields import Field, Grid, _h1_sq_rows, _l2_sq_rows, _lp_p_rows
from .model import ModelSpec, _profile_norm_sq
from .wiener import WienerPath, _whole_steps

#: steps per table window of path weights and forcing amplitudes
_WINDOW = 1024
#: floats of state per integration chunk, between two finite checks
_CHUNK = 2**16


# -- implicit operator -----------------------------------------------------
#
# Each factor holds (I + dt*(lam - laplace)) on interior nodes; solve(b) overwrites
# every row of a (K, interior...) block b with its solution and returns b, solved in b's
# own buffer when b is C-ordered, else in a copy that is copied back.


class _TridiagonalFactor:
    """Dim 1, LAPACK LDL^T (dpttrf); one dpttrs call per block."""

    def __init__(self, grid: Grid, lam: float, dt: float):
        m = grid.n - 2
        r = dt / grid.h**2
        self._factor(np.full(m, 1.0 + dt * lam + 2.0 * r), np.full(m, -r))

    def _factor(self, d: np.ndarray, e: np.ndarray):
        """Factor diagonal d with off-diagonal e[:-1]; e[-1] is never read."""
        # the f2py wrapper wants one off-diagonal entry even for one unknown, where LAPACK reads none
        d, e, info = dpttrf(d, e[:max(len(d) - 1, 1)])
        if info != 0:
            raise np.linalg.LinAlgError(f"dpttrf failed with info={info}")
        self._d, self._e = d, e

    def solve(self, b: np.ndarray) -> np.ndarray:
        bt = b.T  # Fortran-ordered for a C-ordered b, which dpttrs then solves in place
        x, info = dpttrs(self._d, self._e, bt, overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpttrs failed with info={info}")
        if x is not bt:  # f2py solved a copy
            b[...] = x.T
        return b


class _BandedFactor:
    """Any dim, banded Cholesky (dpbtrf) in upper band storage of bandwidth kd = 1 in 1-d
    and n - 2 in 2-d; one dpbtrs call per block (direct route)."""

    def __init__(self, grid: Grid, lam: float, dt: float):
        m = grid.n - 2
        r = dt / grid.h**2
        kd = m ** (grid.dim - 1)
        ab = np.zeros((kd + 1, m**grid.dim), order="F")  # Fortran-ordered: factored in place
        ab[0, kd:] = -r  # the next grid row in 2-d, the next node in 1-d
        ab[-2, 1:] = -r  # the next node, but none across a grid row's end
        ab[-2, ::m] = 0.0
        ab[-1] = 1.0 + dt * lam + 2.0 * grid.dim * r
        self._cb, info = dpbtrf(ab, lower=0, overwrite_ab=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpbtrf failed with info={info}")

    def solve(self, b: np.ndarray) -> np.ndarray:
        bt = b.reshape(len(b), -1).T  # Fortran-ordered, a view for a C-ordered b
        x, info = dpbtrs(self._cb, bt, lower=0, overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpbtrs failed with info={info}")
        if x is not bt or not b.flags.c_contiguous:  # f2py or the reshape solved a copy
            b[...] = x.T.reshape(b.shape)
        return b


class _SineFactor(_TridiagonalFactor):
    """Dim 2, Fourier analysis in one direction and tridiagonal solves in the other (Hockney
    1965; FACR(0) in Swarztrauber's terms): one type-I sine transform along axis -2, one
    chained dpttrs solve along axis -1, one inverse transform.

    Sine mode p of axis -2 turns the operator into the tridiagonal (1 + dt*lam + 2r + mu_p,
    -r) along axis -1, with r = dt/h^2 and mu_p = 2r (1 - cos(pi p / (n - 1))).  The n - 2
    modes are chained into one system of (n - 2)^2 unknowns, uncoupled at each mode boundary
    and factored once.  pocketfft transforms each line and dpttrs solves each column alone,
    and neither goes through BLAS, so the bits depend neither on K nor on the BLAS thread
    count, which a dense sine matrix's would.
    """

    def __init__(self, grid: Grid, lam: float, dt: float):
        # imported here, so runs that never build a 2-d factor do not pay for it
        from scipy.fft import dst, idst

        m = grid.n - 2
        r = dt / grid.h**2
        mu = 2.0 * r * (1.0 - np.cos(np.pi * np.arange(1, m + 1) / (m + 1)))
        e = np.full((m, m), -r)
        e[:, -1] = 0.0  # the last node of mode p and the first of mode p + 1
        self._factor(np.repeat(1.0 + dt * lam + 2.0 * r + mu, m), e.ravel())
        self._dst, self._idst = dst, idst

    def solve(self, b: np.ndarray) -> np.ndarray:
        coef = self._dst(b, type=1, axis=-2, overwrite_x=True)  # b's buffer for a C-ordered b
        x = super().solve(coef.reshape(len(coef), -1)).reshape(coef.shape)
        x = self._idst(x, type=1, axis=-2, overwrite_x=True)
        if not np.may_share_memory(b, x):  # solved in a copy
            b[...] = x
        return b


# -- trajectory record -------------------------------------------------------


@dataclass
class TrajectoryRecord:
    """Integration output: endpoint states plus the per-step scalar ledger."""

    grid: Grid
    times: np.ndarray
    v_sq: np.ndarray          # |v(t_k)|_{L2}^2
    gradv_sq: np.ndarray      # |grad v(t_k)|_{L2}^2
    zsq_lp_p: np.ndarray      # z(t_k)^2 * |u(t_k)|_{Lp}^p
    z_sq: np.ndarray          # z(t_k)^2
    g_sq: np.ndarray          # |g(t_k + forcing_offset, .)|_{L2}^2
    u_final: Field
    v_final: np.ndarray
    dt: float
    scheme: str
    alpha: float

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


# -- the integrator core -----------------------------------------------------


@dataclass(frozen=True)
class _Column:
    """One trajectory of a block: initial values, time span, path, intensity."""

    u_init: np.ndarray
    t_start: float
    t_end: float
    path: WienerPath
    alpha: float
    forcing_offset: float = 0.0


def _tables(cols, starts, spec: ModelSpec, dt: float, lo: int, hi: int):
    """Per-column weights and step coefficients on ledger indices lo..hi, one row per index.

    Column j starts at global index starts[j]; rows before its start are
    padding that no step reads.
    """
    shape = (hi - lo + 1, len(cols))
    tab = SimpleNamespace(omega=np.zeros(shape), z=np.ones(shape), zinv=np.ones(shape),
                          amp=np.zeros(shape))
    shared: dict = {}  # columns on one path, clock and span share their path values and amplitudes
    for j, c in enumerate(cols[:sum(s <= hi for s in starts)]):
        first = max(lo, starts[j])
        key = (id(c.path), c.t_start, c.forcing_offset, first - starts[j], hi - starts[j])
        if key not in shared:
            times = c.t_start + dt * np.arange(key[3], key[4] + 1)
            mod = np.asarray(spec.g.modulation_at(times + c.forcing_offset), dtype=float)
            shared[key] = np.atleast_1d(c.path.value_at(times)), spec.g.amplitude * mod
        omega, amp = shared[key]
        rows = slice(first - lo, None)
        tab.omega[rows, j] = omega
        tab.z[rows, j] = np.exp(-c.alpha * omega)
        tab.zinv[rows, j] = np.exp(c.alpha * omega)
        tab.amp[rows, j] = amp
    tab.dz, tab.dta = dt * tab.z, dt * tab.amp
    tab.dza = tab.dz * tab.amp
    return tab


class _Scheme:
    """One IMEX step (reaction, forcing, implicit solve), the v, u views of its states, buf,
    the (rows, K) + interior buffer of states, and full, its padded mirror, which keeps the
    ring.  runner(tab, a) returns run(m, i, prev), the steps of the first a columns into
    buffer rows 0..m - 1: row 0 from row prev, each later row from the one before, row r
    at table row i + r, each solved in place in its C-ordered row."""

    #: implicit factor per dimension, 1-d then 2-d; _Direct's is one banded Cholesky in both
    factors: tuple = (_TridiagonalFactor, _SineFactor)
    #: whether the states are v itself, so that a bound on them bounds |v|^2
    holds_v = False

    def __init__(self, spec: ModelSpec, grid: Grid, dt: float, alphas):
        self.dt, self.alphas = dt, alphas
        self.inner = (...,) + (slice(1, -1),) * grid.dim
        self.solve = self.factors[grid.dim - 1](grid, spec.lam, dt).solve
        shape = (len(alphas),) + (grid.n - 2,) * grid.dim
        # preallocated, as fresh blocks per step let glibc trim and refault: w holds u (the
        # noise term on the direct route), t the reaction
        self.w, self.t = np.empty(shape), np.empty(shape)
        rows = max(1, min(_WINDOW, _CHUNK // (len(alphas) * grid.n**grid.dim)))
        self.buf = np.empty((rows,) + shape)
        self.full = np.zeros((rows, len(alphas)) + grid.shape)
        x = np.asarray(grid.coords())[self.inner]  # reaction and forcing: interior nodes only
        self.sign, self.react = spec.f._kernel(x if grid.dim == 1 else tuple(x))
        # a copy: a product with the strided 2-d interior view took 4x as long
        # None for the documented forcing = zero: no product, 11% off an unforced 1-d step
        self.profile = (None if spec.g.is_zero()
                        else spec.g.profile.on_grid(grid)[self.inner].copy())
        self.forcing = None if self.profile is None else np.empty(self.buf.shape)
        # broadcast one scalar per column over the field axes
        self.col = (Ellipsis,) + (None,) * grid.dim
        # a built-in reaction's step is elementwise, so its bits do not depend on numpy's
        # buffer size, and a small buffer spares copying each broadcast coefficient into it
        self.bufsize = np.getbufsize() if spec.f.family == "custom" else 16
        self.views = {}  # per active width: the first a columns of every buffer row

    def v(self, block, tab, rows):  # a (rows, K, ...) block at table rows `rows`
        return block

    u = v

    def rows(self, table, a):
        """Per-step coefficients of the first a columns: floats for one, else broadcast views."""
        return table[:, 0].tolist() if a == 1 else list(table[:, :a][self.col])

    def runner(self, tab, a):
        if a not in self.views:
            self.views[a] = list(self.buf[:, :a])
        rows, rhs, solve, bufsize = self.views[a], self.rhs(tab, a), self.solve, self.bufsize
        coeff = None if self.profile is None else getattr(tab, self.amp)[:, :a][self.col]

        def run(m, i, prev):
            # the caller's size comes back below, or by _integrate's errstate on a raise
            caller = np.setbufsize(bufsize)
            terms = () if coeff is None else np.multiply(  # the chunk's forcing terms
                coeff[i:i + m], self.profile, out=self.forcing[:m, :a])
            for r in range(m):
                dst = rows[r]
                rhs(i + r, rows[prev], dst)
                if coeff is not None:
                    np.add(dst, terms[r], out=dst)
                solve(dst)
                prev = r
            np.setbufsize(caller)

        return run


class _Transform(_Scheme):
    """State v = z u; explicit terms weighted by z at the left endpoint."""

    name = "transform"
    amp = "dza"  # forcing coefficient z * dt * amplitude
    holds_v = True

    def start(self, u0, tab, i, j):
        return tab.z[i, j] * u0

    def u(self, block, tab, rows):
        return tab.zinv[rows, :block.shape[1]][self.col] * block

    def rhs(self, tab, a):
        """rhs(k, src, out): out = src + dz f(x, zinv src) at table row k, forcing aside."""
        zinv, c = self.rows(tab.zinv, a), self.rows(self.sign * tab.dz, a)
        w, t, react = self.w[:a], self.t[:a], self.react

        def rhs(k, src, out):
            np.multiply(src, zinv[k], out=w)
            react(w, c[k], t)
            np.add(t, src, out=out)  # last: with one buffer row, out is src

        return rhs


class _Direct(_Scheme):
    """State u; Euler-Heun noise increment, banded Cholesky solve in every dimension."""

    name = "direct"
    factors = (_BandedFactor, _BandedFactor)
    amp = "dta"  # forcing coefficient dt * amplitude

    def start(self, u0, tab, i, j):
        return u0

    def v(self, block, tab, rows):
        return tab.z[rows, :block.shape[1]][self.col] * block

    def rhs(self, tab, a):
        """rhs(k, u, out): out = u + dt f(x, u) + (alpha dW/2)(u + ubar), ubar = u + alpha dW u."""
        alphas, dw = self.alphas, tab.omega[1:] - tab.omega[:-1]
        adw, hdw = (self.rows(c, a) for c in (alphas * dw, 0.5 * alphas * dw))
        c, w, t, react = self.sign * self.dt, self.w[:a], self.t[:a], self.react

        def rhs(k, u, out):
            np.multiply(u, adw[k], out=w)
            np.add(u, w, out=w)  # ubar
            np.add(u, w, out=w)
            np.multiply(w, hdw[k], out=w)
            react(u, c, t)
            np.add(u, t, out=out)  # with one buffer row, out is u
            np.add(out, w, out=out)

        return rhs


def _block_order(columns, dt: float):
    """Step counts in input order and the block order: decreasing step count, ties kept."""
    if any(c.t_end < c.t_start for c in columns):
        raise ValueError("t_end must be >= t_start")
    ns = [_whole_steps(c.t_end - c.t_start, dt, "t_end - t_start") for c in columns]
    return ns, sorted(range(len(columns)), key=lambda j: -ns[j])


def _integrate(columns, spec: ModelSpec, grid: Grid, dt: float, scheme: type = _Transform,
               observe=None):
    """Advance a block of columns to their common end.

    Returns the final (v, u) blocks, one row per column in input order.
    Each column carries its own intensity; spec.alpha is not read.
    Columns are put in _block_order and the integration works on the active prefix of
    the block.  The finite check and observe(g, v, u, v_sq, z, amp), when given, run once
    per chunk of states, on (rows, K, ...) blocks in block order from ledger index g, where
    a column that has not started holds its first state; z and amp are the chunk's
    (rows, K) table rows of path weights and forcing amplitudes, 1 and 0 before a
    column's start.  A chunk ends at the next join, which runs before the chunk's check, so
    a joining column's start state is checked and observed as its first ledger entry.
    Before a DivergenceError, observe sees the finite prefix.
    Without observe, a transform run's check first tests the chunk's states, and the
    boundary ring of every start, against bound: each |v|^2 is then finite, as the scan
    would find, and only the latest state is copied to the mirror.  A chunk that fails
    the test is scanned, after the |v|^2 of the state before it is read from mirror row
    last for the error's last finite norm.
    """
    ns, order = _block_order(columns, dt)
    cols = [columns[j] for j in order]
    n_max = ns[order[0]]
    starts = [n_max - ns[j] for j in order] + [n_max + 1]  # one past the end: all joined
    sch = scheme(spec, grid, dt, np.array([c.alpha for c in cols]))
    # buffer row r holds the state at ledger index g + r of the current chunk
    buf, full = sch.buf, sch.full
    active = 0
    # |x| <= bound at all n^dim nodes keeps h^dim * sum(x * x) finite, rounding included
    bound = np.sqrt(np.finfo(float).max / (4.0 * grid.n**grid.dim * max(grid.cell_measure, 1.0)))
    screen = observe is None and sch.holds_v  # test chunks against bound before any norm
    prev_sq = np.empty(0)  # the last checked state's |v|^2, all finite; None: not formed

    def join(g, tab, i):
        nonlocal active, screen
        while starts[active] == g:
            # every row: a column holds its first state until it starts; the mirror keeps its ring
            full[:, active] = sch.start(cols[active].u_init, tab, i, active)
            buf[:, active] = full[:, active][sch.inner]
            # the test reads interiors only, so a start beyond bound turns it off
            screen = screen and bool(np.abs(full[0, active]).max() <= bound)
            active += 1

    def check(g, m, tab, i):
        nonlocal prev_sq
        states = buf[:m, :active]
        if screen and -bound <= states.min() and states.max() <= bound:  # NaN fails both
            full[m - 1, :active][sch.inner] = states[-1]
            prev_sq = None
            return
        if prev_sq is None:  # the state before the chunk, which the copy below overwrites
            prev_sq = _l2_sq_rows(full[last, :active], grid)
        block, rows = full[:m, :active], slice(i, i + m)
        block[sch.inner] = states  # the chunk's interiors into the mirror
        v, z, amp = sch.v(block, tab, rows), tab.z[rows, :active], tab.amp[rows, :active]
        v_sq = _l2_sq_rows(v.reshape((-1,) + grid.shape), grid).reshape(m, active)
        u = None if observe is None else sch.u(block, tab, rows)
        # rows before a column's start hold its first state and are not checked
        bad = ~np.isfinite(v_sq) & (g + np.arange(m)[:, None] >= np.array(starts[:active]))
        if bad.any():
            r, j = divmod(int(np.argmax(bad)), active)
            t0, k = cols[j].t_start, g + r - starts[j]
            # a column that starts at g + r has no earlier state
            last_sq, last_t = ((float(v_sq[r - 1, j] if r else prev_sq[j]), t0 + dt * (k - 1))
                               if k else (None, None))
            if observe is not None and r:
                observe(g, v[:r], u[:r], v_sq[:r], z[:r], amp[:r])
            raise DivergenceError(t0 + dt * k, column=order[j], last_v_sq=last_sq, last_t=last_t)
        if observe is not None:
            observe(g, v, u, v_sq, z, amp)
        prev_sq = v_sq[-1]

    # window edges counted back from the common end
    edges = [0] + list(range(n_max, 0, -_WINDOW))[::-1]
    windows = list(zip(edges, edges[1:])) or [(0, 0)]
    last = 0  # the buffer row of the latest state
    # overflow is an expected failure mode, caught by the finite check
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in windows:
            tab = _tables(cols, starts, spec, dt, lo, hi)
            if lo == 0:
                join(0, tab, 0)
                check(0, 1, tab, 0)
            run = sch.runner(tab, active)  # and again whenever the active prefix grows
            g = lo
            while g < hi:  # a chunk ends at the buffer's end, the window's edge or a join
                m = min(len(buf), hi - g, starts[active] - g)
                run(m, g - lo, last)
                if g + m == starts[active]:  # before the check, so the start state is checked
                    join(g + m, tab, g + m - lo)
                    run = sch.runner(tab, active)
                check(g + 1, m, tab, g + 1 - lo)
                g, last = g + m, m - 1
        v, u = (f(full[last:last + 1], tab, slice(n_max - lo, None))[0] for f in (sch.v, sch.u))
    back = np.argsort(order)
    return v[back], u[back]


def _records(scheme: type, columns, spec: ModelSpec, grid: Grid, dt: float) -> list:
    """The columns as one core block, one TrajectoryRecord each in input order; one
    (5, K, n_max + 1) ledger in block order holds every column's |v|^2, |grad v|^2,
    z^2 |u|_p^p, z^2 and |g|^2, each ending at n_max, so every array of a record is a
    row view.  Its one observer fills all five rows from the states and the chunk's table
    rows, so a record reads no path and no forcing of its own."""
    ns, order = _block_order(columns, dt)
    n_max = ns[order[0]]
    prof_sq = _profile_norm_sq(spec.g.profile, grid)
    ledger = np.zeros((5, len(columns), n_max + 1))

    def observe(g, v, u, v_sq, z, amp):
        m, a = v_sq.shape
        at, kernel_rows = (slice(None, a), slice(g, g + m)), (m * a,) + grid.shape
        z_sq = np.square(z)
        ledger[0][at] = v_sq.T
        ledger[1][at] = _h1_sq_rows(v.reshape(kernel_rows), grid).reshape(m, a).T
        ledger[2][at] = _lp_p_rows(u.reshape(kernel_rows), grid, spec.p,
                                   z_sq.ravel()).reshape(m, a).T
        ledger[3][at] = z_sq.T
        ledger[4][at] = ((amp * amp) * prof_sq).T

    v_end, u_end = _integrate(columns, spec, grid, dt, scheme, observe)
    out = [None] * len(columns)
    for j, i in enumerate(order):
        col, u_final = columns[i], u_end[i]
        rows = ledger[:, j, n_max - ns[i]:]  # v_sq, gradv_sq, zsq_lp_p, z_sq, g_sq: record order
        if ns[i] == 0:  # keep a zero-step run an exact identity (no z round trip)
            u_final = col.u_init
            rows[2] = _lp_p_rows(u_final[None], grid, spec.p, rows[3])
        out[i] = TrajectoryRecord(grid, col.t_start + dt * np.arange(ns[i] + 1), *rows,
                                  Field(grid, u_final), v_end[i], dt, scheme.name, col.alpha)
    return out


# -- the two solvers ---------------------------------------------------------


def solve_u_transform(
    u_init: Field,
    t_start: float,
    t_end: float,
    path: WienerPath,
    spec: ModelSpec,
    dt: float = 1e-3,
    forcing_offset: float = 0.0,
) -> TrajectoryRecord:
    """Integrate via the conjugation transform; returns u = v / z.

    The initial state is transformed as v(t_start) = z(t_start) * u_init,
    the transformed equation is stepped to t_end, and the endpoint is
    mapped back.  Forcing is evaluated at t + forcing_offset, which lets
    cocycle code translate the forcing clock without touching the path.
    A zero-step call returns u_init itself.
    """
    col = _Column(u_init.values, t_start, t_end, path, spec.alpha, forcing_offset)
    return _records(_Transform, [col], spec, u_init.grid, dt)[0]


def solve_u_direct(
    u_init: Field,
    t_start: float,
    t_end: float,
    path: WienerPath,
    spec: ModelSpec,
    dt: float = 1e-3,
    forcing_offset: float = 0.0,
) -> TrajectoryRecord:
    """Integrate the original equation; independent oracle for the transform.

    The Stratonovich product alpha * u o dW is discretized with the
    Euler-Heun midpoint rule: predict ubar = u + alpha*u*dW, then apply
    the averaged increment alpha*(u + ubar)/2 * dW.  Reaction and
    forcing are explicit at the left endpoint, damped diffusion is
    implicit, exactly as in the transform route.
    """
    col = _Column(u_init.values, t_start, t_end, path, spec.alpha, forcing_offset)
    return _records(_Direct, [col], spec, u_init.grid, dt)[0]
