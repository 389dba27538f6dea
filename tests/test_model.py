"""Problem data: reaction families, forcing, and the structural checks."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
import scipy.integrate

import stochrd.model
from stochrd import (
    CocycleQuery,
    Field,
    ForcingSpec,
    Grid,
    ModelSpec,
    Nonlinearity,
    Profile,
    ZERO_FORCING,
    ZERO_PROFILE,
    canonical_cubic,
    check_g_tempered,
    energy_certificate,
    g_eval,
    norms,
    periodic_bump_forcing,
    quad_exp,
    sample_two_sided_path,
    solve_u_transform,
    tail_mass,
    validate_dissipativity,
)

G = Grid(dim=1, half_width=8.0, n=257)
NAN = float("nan")


# -- profiles ----------------------------------------------------------------


def test_profile_families():
    r = np.array([0.0, 0.5, 1.0, 2.0])
    assert np.array_equal(Profile("zero").eval_radius(r), np.zeros(4))
    assert np.array_equal(Profile("constant", amplitude=3.0).eval_radius(r),
                          np.full(4, 3.0))
    gauss = Profile("gaussian", amplitude=2.0, width=1.0).eval_radius(r)
    assert gauss[0] == 2.0 and gauss[2] == pytest.approx(2.0 * np.exp(-0.5))


def test_bump_profile_compact_support():
    b = Profile("bump", amplitude=1.0, width=2.0)
    assert b.eval_radius(0.0) == pytest.approx(1.0)
    assert b.eval_radius(2.0) == 0.0
    assert b.eval_radius(5.0) == 0.0
    inside = b.eval_radius(np.linspace(0.0, 1.99, 50))
    assert np.all(inside > 0.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile("wavelet")
    with pytest.raises(ValueError):
        Profile("custom")
    with pytest.raises(ValueError):
        Profile("bump", width=0.0)
    custom = Profile("custom", amplitude=2.0, fn=lambda r: r + 1.0)
    assert custom.eval_radius(1.0) == pytest.approx(4.0)


# -- nonlinearities ------------------------------------------------------------


def test_builtin_reaction_values_and_slopes():
    cubic = Nonlinearity("cubic")
    s = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(cubic.value(0.0, s), -s**3)
    assert np.array_equal(cubic.ds(0.0, s), -3.0 * s**2)
    assert np.array_equal(cubic.dx(0.0, s), np.zeros(3))
    anti = Nonlinearity("anticubic")
    assert np.array_equal(anti.value(0.0, s), s**3)


def test_canonical_model_satisfies_conditions():
    rep = validate_dissipativity(canonical_cubic(alpha=0.5))
    assert rep.passed
    assert rep.worst_margin >= -1e-9
    for cond in ("dissipativity", "growth", "one-sided-slope",
                 "x-derivative", "slope-growth"):
        assert rep.details[cond]["pass"]


def test_anticubic_fails_dissipativity():
    spec = canonical_cubic(alpha=0.5)
    bad = dataclasses.replace(spec, f=Nonlinearity("anticubic"))
    rep = validate_dissipativity(bad)
    assert not rep.passed
    assert rep.details["dissipativity"]["margin"] < -1.0
    assert rep.details["worst_condition"] in ("dissipativity", "one-sided-slope")


def test_zero_reaction_fails_without_comparison_profile():
    # f = 0 cannot dominate alpha1 |s|^p with psi1 = 0
    spec = dataclasses.replace(canonical_cubic(), f=Nonlinearity("zero"))
    rep = validate_dissipativity(spec)
    assert not rep.passed
    assert rep.details["dissipativity"]["margin"] < 0.0


def test_custom_reaction_uses_finite_differences():
    # same cubic supplied as a bare callable: slopes come from central
    # differences and must still clear the tolerance
    custom = Nonlinearity("custom", fn=lambda x, s: -(s**3))
    spec = dataclasses.replace(canonical_cubic(), f=custom)
    rep = validate_dissipativity(spec)
    assert rep.passed


BUMP = Profile("bump", amplitude=4.0, width=3.0)


def _bump_slope(r):
    """|b'(r)| of BUMP: b(r) * 2 (r / w) / (w (1 - (r / w)^2)^2) inside its support."""
    q = (np.asarray(r, dtype=float) / BUMP.width) ** 2
    inside = q < 1.0
    q = np.where(inside, q, 0.5)
    return np.where(inside, BUMP.eval_radius(r) * 2.0 * np.sqrt(q)
                    / (BUMP.width * (1.0 - q) ** 2), 0.0)


#: a bistable reaction that needs every comparison profile: f(x, s) = b(|x|) tanh(s) - s^3
BISTABLE = ModelSpec(
    lam=1.0, alpha=0.5, p=4.0, alpha1=0.5, alpha2=1.0, alpha3=4.0, growth_c=3.0,
    f=Nonlinearity("custom", fn=lambda x, s: BUMP.eval_radius(np.abs(x)) * np.tanh(s) - s**3),
    psi1=Profile("custom", amplitude=0.6, fn=lambda r: BUMP.eval_radius(r) ** (4.0 / 3.0)),
    psi2=BUMP,
    # 1.01 absorbs the rounding of the central-difference x-slope; |b'| alone fails at -5e-9
    psi3=Profile("custom", amplitude=1.01, fn=_bump_slope),
    psi4=BUMP,
)


def test_comparison_profiles_enter_every_condition():
    rep = validate_dissipativity(BISTABLE)
    assert rep.passed
    # each profile carries its own condition: without it, that one fails
    for psi, cond, below in (("psi1", "dissipativity", -3.0), ("psi2", "growth", -1.7),
                             ("psi3", "x-derivative", -2.8), ("psi4", "slope-growth", -3.9)):
        rep = validate_dissipativity(dataclasses.replace(BISTABLE, **{psi: ZERO_PROFILE}))
        assert [c for c in ("dissipativity", "growth", "one-sided-slope", "x-derivative",
                            "slope-growth") if not rep.details[c]["pass"]] == [cond]
        assert not rep.passed and rep.details[cond]["margin"] < below

    # the energy constant c1 = 2 int psi1 is what lets the certificate hold
    assert BISTABLE.psi1_integral(G) == pytest.approx(12.739, abs=1e-3)
    u0 = Field.from_function(G, lambda x: np.exp(-x * x))
    rec = solve_u_transform(u0, 0.0, 2.0, sample_two_sided_path(7, 2.0, 1e-3), BISTABLE)
    rep = energy_certificate(rec, BISTABLE)
    assert rep.passed and rep.details["c1"] == 2.0 * BISTABLE.psi1_integral(G)
    rep = energy_certificate(rec, dataclasses.replace(BISTABLE, psi1=ZERO_PROFILE))
    assert not rep.passed and rep.worst_margin < -100.0


# -- forcing -------------------------------------------------------------------


def test_forcing_gaussian_norm_oracle():
    forcing = ForcingSpec(family="constant", amplitude=0.7,
                          profile=Profile("gaussian", amplitude=1.0, width=1.0))
    field = g_eval(forcing, 0.0, G)
    ref, _ = scipy.integrate.quad(lambda x: 0.49 * np.exp(-x * x), -8.0, 8.0)
    assert norms(field).l2**2 == pytest.approx(ref, rel=1e-10)
    assert forcing.l2norm_sq(123.4, G) == pytest.approx(ref, rel=1e-10)


def test_periodic_modulation_exact_period():
    forcing = periodic_bump_forcing(0.05, period=1.0)
    for t in (0.125, 3.625, 1000.125):
        assert forcing.modulation_at(t + 1.0) == forcing.modulation_at(t)
        assert forcing.modulation_at(t - 1.0) == forcing.modulation_at(t)
    assert forcing.modulation_at(0.0) == 1.0


def test_periodic_norm_vectorized_matches_scalar():
    forcing = periodic_bump_forcing(0.05, period=1.0)
    ts = np.array([-0.3, 0.0, 0.26, 4.75])
    vec = forcing.l2norm_sq(ts, G)
    assert vec.shape == (4,)
    for i, t in enumerate(ts):
        assert vec[i] == pytest.approx(forcing.l2norm_sq(float(t), G), rel=1e-14)


def test_zero_forcing():
    assert ZERO_FORCING.is_zero()
    assert ZERO_FORCING.l2norm_sq(1.0, G) == 0.0
    assert np.array_equal(g_eval(ZERO_FORCING, 0.0, G).values, np.zeros(257))


def test_forcing_validation():
    with pytest.raises(ValueError):
        ForcingSpec(family="periodic", amplitude=1.0)  # missing period
    with pytest.raises(ValueError):
        ForcingSpec(family="custom", amplitude=1.0)  # missing modulation
    with pytest.raises(ValueError):
        ForcingSpec(family="chirp")
    # every |g|^2 ledger reads amplitude**2, which must not overflow
    for amplitude in (1e200, -1e155, np.nan):
        with pytest.raises(ValueError, match="has no finite square"):
            ForcingSpec(family="constant", amplitude=amplitude)
    big = ForcingSpec(family="constant", amplitude=-1e150, profile=Profile("constant"))
    assert 0.0 < big.l2norm_sq(0.0, G) < np.inf


# -- model validation -----------------------------------------------------------


def test_model_spec_validation():
    good = canonical_cubic()
    with pytest.raises(ValueError):
        good.with_alpha(1.5)
    with pytest.raises(ValueError):
        canonical_cubic(lam=0.0)
    with pytest.raises(ValueError):
        canonical_cubic(delta=1.0)  # must stay below lam
    with pytest.raises(ValueError):
        ModelSpec(lam=1.0, alpha=0.5, p=1.5, alpha1=1.0, alpha2=1.0,
                  alpha3=0.0, growth_c=3.0, f=Nonlinearity("cubic"))


def test_with_alpha_changes_only_alpha():
    spec = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))
    other = spec.with_alpha(0.1)
    assert other.alpha == 0.1
    assert other.lam == spec.lam and other.g == spec.g and other.f == spec.f


def test_psi1_integral_default_zero():
    assert canonical_cubic().psi1_integral(G) == 0.0


# -- tempered forcing checks ------------------------------------------------------


def test_periodic_forcing_is_tempered():
    forcing = periodic_bump_forcing(0.05, period=1.0)
    rep = check_g_tempered(forcing, delta=0.5, c_probe=1.0,
                           probe_times=[0.0, -10.0, -20.0, -30.0], grid=G)
    assert rep.passed


def test_memory_integral_of_constant_forcing():
    # |g|^2 constant B gives integral B (1 - e^{-2 delta S}) / delta
    forcing = ForcingSpec(family="constant", amplitude=0.7,
                          profile=Profile("gaussian", amplitude=1.0, width=1.0))
    b = forcing.l2norm_sq(0.0, G)
    delta = 0.5
    rep = check_g_tempered(forcing, delta=delta, c_probe=1.0,
                           probe_times=[0.0, -10.0, -20.0, -30.0], grid=G)
    assert rep.passed
    got = rep.details["probes"][repr(0.0)]["memory_integral"]
    assert got == pytest.approx(b / delta, rel=2e-2)


def test_divergent_forcing_fails_not_raises():
    # modulation e^{-2t} explodes backward in time faster than the
    # memory weight e^{delta s} can damp
    forcing = ForcingSpec(family="custom", amplitude=1.0,
                          profile=Profile("gaussian", amplitude=1.0, width=1.0),
                          modulation=lambda t: np.exp(-2.0 * np.asarray(t)))
    rep = check_g_tempered(forcing, delta=0.5, c_probe=1.0,
                           probe_times=[0.0, -5.0, -10.0], grid=G,
                           s_trunc=20.0)
    assert not rep.passed
    assert rep.worst_margin < 0.0


def test_tempered_check_at_a_late_anchor(tmp_path):
    # exp(delta * tau) overflows at tau = 2000; the margins never use it,
    # so the probe records null and the verdict stands
    forcing = periodic_bump_forcing(0.05, period=1.0)
    rep = check_g_tempered(forcing, delta=0.5, c_probe=1.0,
                           probe_times=[2000.0, -10.0, -20.0, -30.0], grid=G)
    probe = rep.details["probes"][repr(2000.0)]
    assert probe["memory_integral"] is None
    assert np.isfinite(probe["margin"]) and np.isfinite(rep.worst_margin)
    assert rep.passed
    rep.write_json(tmp_path / "forcing_report.json")
    assert '"memory_integral": null' in (tmp_path / "forcing_report.json").read_text()


def test_each_probe_integral_is_taken_once():
    forcing = periodic_bump_forcing(0.05, period=1.0)
    with mock.patch.object(stochrd.model, "quad_exp", wraps=quad_exp) as quad:
        check_g_tempered(forcing, delta=0.5, c_probe=1.0,
                         probe_times=[0.0, -10.0, -20.0, -30.0], grid=G)
    assert quad.call_count == 8  # two depths per probe; the decay check reuses depth s_trunc

    # no negative probe: the decay check integrates -s/4, -s/2 and -3s/4 itself
    with mock.patch.object(stochrd.model, "quad_exp", wraps=quad_exp) as quad:
        rep = check_g_tempered(forcing, delta=0.5, c_probe=1.0, probe_times=[0.0], grid=G)
    assert quad.call_count == 5
    assert rep.details["decay_times"] == [-10.0, -20.0, -30.0]
    assert rep.details["decay_values"] == [
        math.exp(1.0 * tau) * quad_exp(lambda s: forcing.l2norm_sq(s + tau, G), 0.5, 40.0)
        for tau in (-10.0, -20.0, -30.0)]


def test_tempered_check_validation():
    forcing = periodic_bump_forcing(0.05)
    with pytest.raises(ValueError):
        check_g_tempered(forcing, delta=0.5, c_probe=0.0, probe_times=[0.0], grid=G)
    with pytest.raises(ValueError):
        check_g_tempered(forcing, delta=-0.1, c_probe=1.0, probe_times=[0.0], grid=G)


def test_tempered_check_rejects_a_nan_delta(monkeypatch):
    # a NaN delta passed `delta < 0` and was integrated as delta = 0
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature before the boundary check")

    monkeypatch.setattr(stochrd.model, "quad_exp", no_quadrature)
    with pytest.raises(ValueError, match="delta"):
        check_g_tempered(periodic_bump_forcing(0.05), delta=float("nan"), c_probe=1.0,
                         probe_times=[0.0], grid=G)


@pytest.mark.parametrize("call, named", [
    (lambda: dataclasses.replace(canonical_cubic(), alpha3=NAN), "alpha3"),
    (lambda: dataclasses.replace(canonical_cubic(), growth_c=NAN), "growth_c"),
    (lambda: tail_mass(Field.zeros(G), NAN), "k must"),
    (lambda: CocycleQuery(NAN, 0.0, sample_two_sided_path(1, 1.0, 0.01), Field.zeros(G)),
     "elapsed time"),
], ids=["alpha3", "growth_c", "tail_mass-k", "cocycle-t"])
def test_nan_arguments_are_rejected(call, named):
    # each check read x < 0, which a NaN fails, so the NaN got through
    with pytest.raises(ValueError, match=named):
        call()


@pytest.mark.parametrize("delta", [0.0, 0.5])
@pytest.mark.parametrize("s_trunc", [0.0, -1.0])
def test_tempered_check_needs_a_positive_depth(delta, s_trunc):
    # at delta = 0 a depth of 0 integrated nothing and passed
    with pytest.raises(ValueError, match="s_trunc must be positive"):
        check_g_tempered(periodic_bump_forcing(0.05), delta=delta, c_probe=1.0,
                         probe_times=[0.0], grid=G, s_trunc=s_trunc)


def test_nan_reaction_fails_dissipativity():
    # every condition is NaN at |s| > 9.9; the report passed with an infinite margin
    spec = dataclasses.replace(canonical_cubic(), f=Nonlinearity(
        "custom", fn=lambda x, s: np.where(np.abs(s) > 9.9, np.nan, -s**3)))
    with np.errstate(invalid="ignore"):
        rep = validate_dissipativity(spec)
    assert not rep.passed
    assert np.isnan(rep.worst_margin)
    assert rep.details["worst_condition"] == "dissipativity"
    assert rep.location == -10.0
    assert not any(rep.details[c]["pass"] for c in (
        "dissipativity", "growth", "one-sided-slope", "x-derivative", "slope-growth"))


def test_overflowing_memory_integral_fails_tempered_check():
    # e^{-4(s + tau)} outgrows e^{delta s} for delta < 4: both depths overflow to inf at
    # tau = -200, so the growth margin is NaN; the report passed with location None
    forcing = ForcingSpec("custom", amplitude=1.0, profile=Profile("constant"),
                          modulation=lambda t: np.exp(-2.0 * np.asarray(t)))
    with np.errstate(over="ignore", invalid="ignore"):
        rep = check_g_tempered(forcing, delta=0.5, c_probe=1.0, probe_times=[-200.0],
                               grid=Grid(dim=1, half_width=8.0, n=65))
    assert np.isnan(rep.details["probes"][repr(-200.0)]["margin"])
    assert not rep.passed
    assert np.isnan(rep.worst_margin)
    assert rep.location == -200.0
