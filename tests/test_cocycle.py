"""Solution operator laws and the trajectory-ledger certificates."""

import dataclasses

import numpy as np
import pytest

from stochrd import (
    CocycleQuery,
    Field,
    Grid,
    ModelSpec,
    Nonlinearity,
    ZERO_FORCING,
    canonical_cubic,
    cocycle_law_defect,
    energy_certificate,
    h1_certificate,
    l2_distance,
    norms,
    periodic_bump_forcing,
    periodic_cocycle_check,
    phi,
    phi_record,
    phi_reference,
    sample_two_sided_path,
)

G = Grid(dim=1, half_width=8.0, n=257)
SPEC = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))


def gaussian(scale=1.0):
    return Field.from_function(G, lambda x: scale * np.exp(-x * x))


def test_identity_at_zero_time():
    p = sample_two_sided_path(3, 5.0, 1e-3)
    u0 = gaussian()
    out = phi(CocycleQuery(0.0, -1.25, p, u0, 0.7), SPEC)
    assert np.array_equal(out.values, u0.values)


def test_zero_intensity_is_path_independent():
    u0 = gaussian()
    a = phi(CocycleQuery(0.5, 0.0, sample_two_sided_path(3, 1.0, 1e-3), u0, 0.0), SPEC)
    b = phi(CocycleQuery(0.5, 0.0, sample_two_sided_path(99, 1.0, 1e-3), u0, 0.0), SPEC)
    assert np.array_equal(a.values, b.values)


def test_composition_law():
    u0 = gaussian()
    for seed in (1, 2, 3):
        p = sample_two_sided_path(seed, 4.0, 1e-3)
        defect = cocycle_law_defect(SPEC, 0.5, 0.5, 0.0, p, u0, 1e-3)
        assert defect < 1e-10


def test_composition_law_shifted_anchor():
    u0 = gaussian()
    p = sample_two_sided_path(4, 8.0, 1e-3)
    defect = cocycle_law_defect(SPEC, 0.5, 0.75, -3.0, p, u0, 1e-3)
    assert defect < 1e-10


def test_reduced_operator_matches_reference():
    # the production operator never shifts the path; the reference
    # implementation does, and the two must agree
    u0 = gaussian()
    p = sample_two_sided_path(5, 8.0, 1e-3)
    q = CocycleQuery(1.0, -2.5, p, u0, 0.5)
    a = phi(q, SPEC)
    b = phi_reference(q, SPEC)
    assert l2_distance(a, b) < 1e-10


def test_alpha_defaults_to_model():
    q = CocycleQuery(0.5, 0.0, sample_two_sided_path(3, 1.0, 1e-3), gaussian(), None)
    assert q.resolve(SPEC).alpha == SPEC.alpha
    q2 = CocycleQuery(0.5, 0.0, sample_two_sided_path(3, 1.0, 1e-3), gaussian(), 0.25)
    assert q2.resolve(SPEC).alpha == 0.25


def test_rejects_negative_elapsed_time():
    p = sample_two_sided_path(3, 1.0, 1e-3)
    with pytest.raises(ValueError):
        CocycleQuery(-1.0, 0.0, p, gaussian(), 0.5)


# -- energy certificate -----------------------------------------------------


def test_energy_certificate_passes():
    u0 = gaussian()
    for alpha in (0.0, 1.0):
        p = sample_two_sided_path(11, 4.0, 1e-3)
        rec = phi_record(CocycleQuery(3.0, 0.0, p, u0, alpha), SPEC)
        rep = energy_certificate(rec, SPEC)
        assert rep.passed
        assert rep.worst_margin >= -10.0 * rec.dt
        assert 0.0 <= rep.location <= 3.0
        assert rep.tolerance == pytest.approx(10.0 * rec.dt)
        assert rep.to_json_dict()["pass"] is True


def test_energy_certificate_zero_data():
    spec = canonical_cubic(alpha=0.5)  # no forcing
    p = sample_two_sided_path(11, 2.0, 1e-3)
    rec = phi_record(CocycleQuery(1.0, 0.0, p, Field.zeros(G), 0.5), spec)
    rep = energy_certificate(rec, spec)
    assert rep.passed and rep.worst_margin == 0.0


def test_energy_certificate_catches_tampering():
    u0 = gaussian()
    p = sample_two_sided_path(11, 2.0, 1e-3)
    rec = phi_record(CocycleQuery(1.0, 0.0, p, u0, 0.5), SPEC)
    bad = rec.v_sq.copy()
    bad[1:] *= 2.0  # a uniform rescale would cancel through the initial term
    rep = energy_certificate(dataclasses.replace(rec, v_sq=bad), SPEC)
    assert not rep.passed
    assert rep.worst_margin < -10.0 * rec.dt


# -- gradient certificate ----------------------------------------------------


def test_memory_sums_match_exponential_weights():
    # where e^{lam t} is finite, the recursion equals the explicitly
    # weighted trapezoid sum e^{-lam t_k} int_0^{t_k} e^{lam s} f(s) ds
    from stochrd.cocycle import _memory_trapz

    lam, dt = 1.5, 1e-2
    f = np.random.default_rng(0).uniform(0.0, 2.0, 801)
    t = dt * np.arange(f.size)
    g = np.exp(lam * t) * f
    closed = np.exp(-lam * t) * np.concatenate(([0.0], np.cumsum(0.5 * dt * (g[1:] + g[:-1]))))
    assert _memory_trapz(f, lam, dt) == pytest.approx(closed, rel=1e-12, abs=1e-15)


def test_energy_certificate_beyond_exponent_range():
    # lam * t = 750 > 709, where e^{lam t} overflows double precision
    grid = Grid(dim=1, half_width=8.0, n=17)
    spec = canonical_cubic(alpha=0.5, lam=10.0, forcing=periodic_bump_forcing(0.05))
    p = sample_two_sided_path(7, 76.0, 1e-2)
    u0 = Field.from_function(grid, lambda x: np.exp(-x * x))
    rec = phi_record(CocycleQuery(75.0, 0.0, p, u0), spec, 1e-2)
    rep = energy_certificate(rec, spec)
    assert np.isfinite(rep.worst_margin)
    assert rep.passed


def test_h1_certificate_passes():
    u0 = gaussian()
    p = sample_two_sided_path(12, 3.0, 1e-3)
    rec = phi_record(CocycleQuery(2.0, 0.0, p, u0, 0.5), SPEC)
    rep = h1_certificate(rec, SPEC, t_audit=2.0)
    assert rep.passed
    assert rep.location == 2.0


def test_h1_certificate_eigenmode_ledger_arithmetic():
    # no reaction, no noise: the mode decays geometrically, every ledger
    # entry has a closed form, and the report numbers must match it
    spec = ModelSpec(lam=1.0, alpha=0.0, p=4.0, alpha1=1.0, alpha2=1.0,
                     alpha3=0.0, growth_c=3.0, f=Nonlinearity("zero"))
    L, h, dt = G.half_width, G.h, 1e-3
    mode = Field.from_function(G, lambda x: np.sin(np.pi * (x + L) / (2.0 * L)))
    mu = (4.0 / h**2) * np.sin(np.pi * h / (4.0 * L)) ** 2
    rho2 = (1.0 + dt * (spec.lam + mu)) ** -2

    p = sample_two_sided_path(1, 3.0, dt)
    rec = phi_record(CocycleQuery(2.0, 0.0, p, mode, 0.0), spec, dt)
    rep = h1_certificate(rec, spec, t_audit=2.0)

    v0_sq = norms(mode).l2**2
    powers = v0_sq * rho2 ** np.arange(1000, 2001)
    int_grad = mu * dt * (np.sum(powers) - 0.5 * powers[0] - 0.5 * powers[-1])
    lhs = mu * v0_sq * rho2**2000
    assert rep.details["lhs"] == pytest.approx(lhs, rel=1e-9)
    assert rep.details["int_grad"] == pytest.approx(int_grad, rel=1e-9)
    assert rep.details["int_z"] == pytest.approx(1.0, rel=1e-12)
    assert rep.details["rhs"] == pytest.approx(2.0 * int_grad + 1.0, rel=1e-9)
    assert rep.passed


def test_h1_certificate_window_validation():
    u0 = gaussian()
    p = sample_two_sided_path(12, 3.0, 1e-3)
    rec = phi_record(CocycleQuery(2.0, 0.0, p, u0, 0.5), SPEC)
    with pytest.raises(ValueError):
        h1_certificate(rec, SPEC, t_audit=0.5)  # window leaves the record
    with pytest.raises(ValueError):
        h1_certificate(rec, SPEC, t_audit=2.5)
    with pytest.raises(ValueError):
        h1_certificate(rec, SPEC, t_audit=1.00037)  # off the step grid


def test_h1_certificate_unit_window_needs_whole_steps():
    # 1 / 0.003 is not whole: the window [t - 1, t] has no grid start, so
    # the certificate refuses rather than auditing [t - 0.999, t]
    p = sample_two_sided_path(12, 3.0, 3e-3)
    rec = phi_record(CocycleQuery(1.5, 0.0, p, gaussian(), 0.5), SPEC, 3e-3)
    with pytest.raises(ValueError, match="unit audit window"):
        h1_certificate(rec, SPEC, t_audit=1.5)


# -- periodic forcing --------------------------------------------------------


def test_periodic_anchor_translation():
    u0 = gaussian()
    p = sample_two_sided_path(13, 3.0, 1e-3)
    gap = periodic_cocycle_check(SPEC, 1.0, 0.25, p, u0, 1e-3)
    assert gap < 1e-12


def test_periodic_check_needs_a_period():
    spec = canonical_cubic(alpha=0.5, forcing=ZERO_FORCING)
    p = sample_two_sided_path(13, 3.0, 1e-3)
    with pytest.raises(ValueError):
        periodic_cocycle_check(spec, 1.0, 0.0, p, gaussian(), 1e-3)
