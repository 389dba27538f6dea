"""The pathwise solution operator and its inequality certificates.

phi(t, tau, w, u) advances an initial state u from symbol time tau by
elapsed time t along the path w, with the path shifted so that the
noise seen during the run is the segment of w over [0, t].  Two
identities make this implementable without ever forming the shifted
path explicitly:

* the transformed equation is invariant under scaling the conjugation
  weight by a constant (z -> c z rescales v -> c v and leaves u = v / z
  untouched), so the additive constant w(-tau) introduced by the shift
  cancels from the output;
* the forcing clock is the only place tau survives, as an evaluation
  offset g(tau + sigma).

phi therefore integrates over elapsed time [0, t] with weights
exp(-alpha * w(sigma)) and forcing offset tau.  This is algebraically
identical to the textbook route (shift the path, transform, integrate
over [tau, tau + t]), implemented in phi_reference and certified
against phi by a regression test; it avoids exponentials of w(-tau) on
deep pullbacks and makes time-periodicity of the operator exact at the
sample level.

The certificates re-check, on the recorded trajectory ledger, the two
a priori inequalities the dissipativity analysis guarantees: the
integrated energy balance and the windowed gradient bound.  Both are
checked in the normalized form with weights exp(lam*(s - t_k)) <= 1
(multiply the raw exponentially weighted inequality by exp(-lam*t_k)),
so margins live on the scale of the solution norms and the stated
O(dt) tolerance is meaningful uniformly in the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field, l2_distance
from .model import ModelSpec
from .report import CertificateReport
from .solver import TrajectoryRecord, _Column, _integrate, solve_u_transform
from .wiener import WienerPath, _whole_steps, shift_path


@dataclass(frozen=True)
class CocycleQuery:
    """One application of the solution operator.

    alpha overrides the model's noise intensity when not None, which is
    how sweeps vary the intensity without rebuilding the model.
    """

    t: float
    tau: float
    path: WienerPath
    u_init: Field
    alpha: float | None = None

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("elapsed time must be nonnegative")

    def resolve(self, spec: ModelSpec) -> ModelSpec:
        if self.alpha is None or self.alpha == spec.alpha:
            return spec
        return spec.with_alpha(self.alpha)


def phi_record(query: CocycleQuery, spec: ModelSpec, dt: float = 1e-3) -> TrajectoryRecord:
    """Full trajectory record behind phi; times run over elapsed [0, t]."""
    spec = query.resolve(spec)
    return solve_u_transform(
        query.u_init, 0.0, query.t, query.path, spec, dt, forcing_offset=query.tau,
    )


def phi(query: CocycleQuery, spec: ModelSpec, dt: float = 1e-3) -> Field:
    """Endpoint state of the solution operator."""
    return phi_record(query, spec, dt).u_final


def phi_reference(query: CocycleQuery, spec: ModelSpec, dt: float = 1e-3) -> Field:
    """Reference route: explicit path shift, integration over [tau, tau+t].

    Used to certify the shift-cancellation identity behind phi; the two
    routes agree up to roundoff accumulated along the run.
    """
    spec = query.resolve(spec)
    shifted = shift_path(query.path, -query.tau)
    rec = solve_u_transform(
        query.u_init, query.tau, query.tau + query.t, shifted, spec, dt,
    )
    return rec.u_final


def cocycle_law_defect(spec: ModelSpec, t: float, s: float, r: float,
                       path: WienerPath, u_init: Field, dt: float = 1e-3) -> float:
    """L2 defect of the composition law.

    Compares the one-shot run over elapsed t + s from symbol time r with
    the two-leg run: elapsed s from r, then elapsed t from s + r along
    the path shifted by s; the one-shot run and the first leg form one
    block.  Zero for the exact operator; the value reflects roundoff.
    """
    cols = [_Column(u_init.values, 0.0, span, path, spec.alpha, r) for span in (t + s, s)]
    one, inner = _integrate(cols, spec, u_init.grid, dt)[1]
    outer = phi(CocycleQuery(t, s + r, shift_path(path, s), Field(u_init.grid, inner)), spec, dt)
    return l2_distance(Field(u_init.grid, one), outer)


def periodic_cocycle_check(spec: ModelSpec, t: float, tau: float,
                           path: WienerPath, u_init: Field, dt: float = 1e-3) -> float:
    """Distance between runs started at tau and tau + period.

    Requires time-periodic forcing.  Both runs, one two-column block, see
    identical path segments and, with the built-in periodic family,
    identical forcing samples, so the expected value is zero up to roundoff.
    """
    if spec.g.period is None:
        raise ValueError("periodic_cocycle_check needs forcing with a period")
    cols = [_Column(u_init.values, 0.0, t, path, spec.alpha, offset)
            for offset in (tau, tau + spec.g.period)]
    a, b = _integrate(cols, spec, u_init.grid, dt)[1]
    return l2_distance(Field(u_init.grid, a), Field(u_init.grid, b))


# -- certificates ------------------------------------------------------------


def _memory_trapz(f: np.ndarray, lam: float, dt: float) -> np.ndarray:
    """Trapezoid sums I_k of e^{lam (s - t_k)} f(s) over [t_0, t_k].

    Built by the recursion I_k = e^{-lam dt} I_{k-1} + dt/2 (f_k + e^{-lam dt} f_{k-1}),
    I_0 = 0, whose weights never exceed one, so no horizon overflows.
    """
    q = float(np.exp(-lam * dt))
    half = 0.5 * dt
    vals = f.tolist()
    out = [0.0]
    acc = 0.0
    for prev, cur in zip(vals, vals[1:]):
        acc = q * acc + half * (cur + q * prev)
        out.append(acc)
    return np.array(out)


def energy_certificate(rec: TrajectoryRecord, spec: ModelSpec,
                       tolerance: float | None = None) -> CertificateReport:
    """Check the integrated energy inequality along a recorded trajectory.

    In normalized form, for every ledger time t_k,

        |v(t_k)|^2
          + int_{t_0}^{t_k} e^{lam (s - t_k)} [ (lam/2)|v|^2 + 2|grad v|^2
                                           + 2 alpha1 z^2 |u|_p^p ] ds
        <= e^{-lam (t_k - t_0)} |v(t_0)|^2
          + int_{t_0}^{t_k} e^{lam (s - t_k)} [ (2/lam) z^2 |g|^2 + c1 z^2 ] ds
          + tolerance,

    with c1 = 2 * integral(psi1).  Margins are RHS - LHS per time; the
    report carries the worst one and where it occurred.  The default
    tolerance is 10*dt (local truncation of the scheme and of the
    trapezoid sums).
    """
    lam = spec.lam
    dt = rec.dt
    tol = 10.0 * dt if tolerance is None else tolerance
    c1 = 2.0 * spec.psi1_integral(rec.grid)

    decay = np.exp(-lam * (rec.times - rec.times[0]))

    damp = 0.5 * lam * rec.v_sq + 2.0 * rec.gradv_sq + 2.0 * spec.alpha1 * rec.zsq_lp_p
    src = (2.0 / lam) * rec.z_sq * rec.g_sq + c1 * rec.z_sq

    lhs = rec.v_sq + _memory_trapz(damp, lam, dt)
    rhs = decay * rec.v_sq[0] + _memory_trapz(src, lam, dt)
    margins = rhs - lhs
    k = int(np.argmin(margins))
    return CertificateReport(
        name="energy",
        passed=bool(margins[k] >= -tol),
        worst_margin=float(margins[k]),
        tolerance=tol,
        location=float(rec.times[k]),
        details={"c1": c1, "lam": lam, "alpha": rec.alpha, "scheme": rec.scheme,
                 "n_steps": int(rec.times.size - 1)},
    )


def h1_certificate(rec: TrajectoryRecord, spec: ModelSpec, t_audit: float,
                   tolerance: float | None = None) -> CertificateReport:
    """Check the windowed gradient bound at audit time t_audit.

    The uniform-Gronwall consequence of the gradient estimate: with
    c1 = 1 + 2*alpha3,

        |grad v(t_audit)|^2 <= (1 + c1) int_{t_audit - 1}^{t_audit} |grad v|^2 ds
                             + int z^2 |g|^2 ds + int z^2 ds + tolerance,

    all integrals over the trailing unit window, which must lie inside
    the recorded span.  Default tolerance 10*dt.
    """
    dt = rec.dt
    tol = 10.0 * dt if tolerance is None else tolerance
    c1 = 1.0 + 2.0 * spec.alpha3

    ka = _whole_steps(t_audit - rec.t_start, dt, "t_audit - t_start")
    k0 = ka - _whole_steps(1.0, dt, "the unit audit window")
    if k0 < 0 or ka > rec.times.size - 1:
        raise ValueError("audit window [t_audit - 1, t_audit] not inside the record")

    sl = slice(k0, ka + 1)
    int_grad = float(np.trapezoid(rec.gradv_sq[sl], dx=dt))
    int_zg = float(np.trapezoid(rec.z_sq[sl] * rec.g_sq[sl], dx=dt))
    int_z = float(np.trapezoid(rec.z_sq[sl], dx=dt))
    lhs = float(rec.gradv_sq[ka])
    rhs = (1.0 + c1) * int_grad + int_zg + int_z
    margin = rhs - lhs
    return CertificateReport(
        name="gradient-window",
        passed=bool(margin >= -tol),
        worst_margin=margin,
        tolerance=tol,
        location=float(t_audit),
        details={"lhs": lhs, "rhs": rhs, "c1": c1, "int_grad": int_grad,
                 "int_zg": int_zg, "int_z": int_z, "alpha": rec.alpha},
    )
