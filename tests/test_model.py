"""Problem data: reaction families, forcing, and the structural checks."""

import numpy as np
import pytest
import scipy.integrate

from stochrd import (
    ForcingSpec,
    Grid,
    ModelSpec,
    Nonlinearity,
    Profile,
    ZERO_FORCING,
    canonical_cubic,
    check_g_tempered,
    g_eval,
    norms,
    periodic_bump_forcing,
    validate_dissipativity,
)

G = Grid(dim=1, half_width=8.0, n=257)


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
    import dataclasses
    bad = dataclasses.replace(spec, f=Nonlinearity("anticubic"))
    rep = validate_dissipativity(bad)
    assert not rep.passed
    assert rep.details["dissipativity"]["margin"] < -1.0
    assert rep.details["worst_condition"] in ("dissipativity", "one-sided-slope")


def test_zero_reaction_fails_without_comparison_profile():
    # f = 0 cannot dominate alpha1 |s|^p with psi1 = 0
    import dataclasses
    spec = dataclasses.replace(canonical_cubic(), f=Nonlinearity("zero"))
    rep = validate_dissipativity(spec)
    assert not rep.passed
    assert rep.details["dissipativity"]["margin"] < 0.0


def test_custom_reaction_uses_finite_differences():
    # same cubic supplied as a bare callable: slopes come from central
    # differences and must still clear the tolerance
    import dataclasses
    custom = Nonlinearity("custom", fn=lambda x, s: -(s**3))
    spec = dataclasses.replace(canonical_cubic(), f=custom)
    rep = validate_dissipativity(spec)
    assert rep.passed


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


def test_tempered_check_validation():
    forcing = periodic_bump_forcing(0.05)
    with pytest.raises(ValueError):
        check_g_tempered(forcing, delta=0.5, c_probe=0.0, probe_times=[0.0], grid=G)
    with pytest.raises(ValueError):
        check_g_tempered(forcing, delta=-0.1, c_probe=1.0, probe_times=[0.0], grid=G)


@pytest.mark.parametrize("delta", [0.0, 0.5])
@pytest.mark.parametrize("s_trunc", [0.0, -1.0])
def test_tempered_check_needs_a_positive_depth(delta, s_trunc):
    # at delta = 0 a depth of 0 integrated nothing and passed
    with pytest.raises(ValueError, match="s_trunc must be positive"):
        check_g_tempered(periodic_bump_forcing(0.05), delta=delta, c_probe=1.0,
                         probe_times=[0.0], grid=G, s_trunc=s_trunc)


def test_nan_reaction_fails_dissipativity():
    # every condition is NaN at |s| > 9.9; the report passed with an infinite margin
    import dataclasses
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
