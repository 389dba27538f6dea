"""Path sampling, shifts, and the exponential-memory quadrature."""

import numpy as np
import pytest
import scipy.integrate

from stochrd import (
    WienerPath,
    WindowExceededError,
    quad_exp,
    sample_two_sided_path,
    shift_path,
    sublinearity_report,
    z_value,
)
from stochrd.wiener import _snap, _window


def test_anchored_at_zero():
    p = sample_two_sided_path(7, 5.0, 0.01)
    assert p.value_at(0.0) == 0.0
    assert p.t_min == -5.0 and p.t_max == 5.0


def test_increment_statistics():
    # one long path gives 20k iid increments of variance equal to the step
    h = 0.01
    p = sample_two_sided_path(42, 100.0, h)
    inc = np.diff(p.samples)
    n = inc.size
    assert abs(inc.mean()) < 4.0 * np.sqrt(h / n)
    assert abs(inc.var() / h - 1.0) < 0.05


def test_forward_backward_independent():
    p = sample_two_sided_path(43, 50.0, 0.01)
    t = p.times
    fwd = np.diff(p.samples[t >= -1e-12])
    bwd = np.diff(p.samples[t <= 1e-12])
    m = min(fwd.size, bwd.size)
    corr = np.corrcoef(fwd[:m], bwd[:m])[0, 1]
    assert abs(corr) < 0.05


def test_bit_exact_reproducibility():
    a = sample_two_sided_path(7, 10.0, 0.001)
    b = sample_two_sided_path(7, 10.0, 0.001)
    assert np.array_equal(a.samples, b.samples)
    c = sample_two_sided_path(8, 10.0, 0.001)
    assert not np.array_equal(a.samples, c.samples)


def test_value_at_nodes_is_exact():
    p = sample_two_sided_path(7, 5.0, 0.01)
    vals = p.value_at(p.times)
    assert np.array_equal(vals, p.samples)


def test_value_at_linear_between_nodes():
    p = sample_two_sided_path(7, 5.0, 0.5)
    mid = p.value_at(0.25)
    assert mid == pytest.approx(0.5 * (p.value_at(0.0) + p.value_at(0.5)), abs=1e-15)


def test_shift_group_law_bit_exact():
    p = sample_two_sided_path(11, 20.0, 0.01)
    once = shift_path(shift_path(p, 3.0), -1.0)
    direct = shift_path(p, 2.0)
    assert np.array_equal(once.samples, direct.samples)
    assert np.array_equal(shift_path(p, 0.0).samples, p.samples)


def test_shift_reanchors():
    p = sample_two_sided_path(11, 20.0, 0.01)
    s = 4.0
    q = shift_path(p, s)
    assert q.value_at(0.0) == 0.0
    for u in (-2.0, 0.5, 3.25):
        assert q.value_at(u) == pytest.approx(p.value_at(u + s) - p.value_at(s), abs=1e-12)


def test_window_errors():
    p = sample_two_sided_path(7, 2.0, 0.01)
    with pytest.raises(WindowExceededError):
        p.value_at(2.5)
    with pytest.raises(WindowExceededError):
        p.value_at(-2.01)
    with pytest.raises(WindowExceededError):
        shift_path(p, 3.0)


def test_window_rejects_spans_of_2_53_steps_or_more():
    # beyond 2**53 every float is a whole number: no on-grid rule, and no path to draw
    for span, step in ((1e300, 1e-3), (1.0, 1e-300), (2.0**53, 1.0), (np.nan, 1.0)):
        with pytest.raises(ValueError, match=r"the span = .* steps of .*, 2\*\*53 or more"):
            _window(span, step, "the span")
    assert _window(2.0**53 - 1.0, 1.0, "the span") == 2.0**53 - 1.0


def test_from_samples_needs_zero_at_origin():
    with pytest.raises(ValueError):
        WienerPath.from_samples(np.array([0.5, 1.0, 2.0]), 1.0, -1.0)
    p = WienerPath.from_samples(np.array([-1.0, 0.0, 3.0]), 1.0, -1.0)
    assert p.value_at(1.0) == 3.0


def test_shift_shares_the_read_only_base():
    # the constructor copies and checks a caller's samples; a shift reuses its parent's
    samples = np.array([-1.0, 0.0, 3.0, 5.0])
    p = WienerPath.from_samples(samples, 1.0, -1.0)
    assert not np.shares_memory(p._base, samples) and not p._base.flags.writeable
    q = shift_path(shift_path(p, 2.0), -1.0)
    assert np.shares_memory(q._base, p._base) and not q._base.flags.writeable
    assert (q.grid_step, q.seed, q.t_min, q.t_max, q.value_at(1.0)) == (1.0, None, -2.0, 1.0, 2.0)
    samples[3] = np.nan
    assert p.value_at(2.0) == 5.0
    with pytest.raises(ValueError, match="finite"):
        WienerPath(samples, 1, 1.0)


def test_shift_requires_grid_time():
    p = sample_two_sided_path(7, 2.0, 0.5)
    with pytest.raises(ValueError):
        shift_path(p, 0.3)


def test_z_value_known_path():
    # w(1) = ln 2, so the conjugation weight at intensity 1 is exactly 1/2
    samples = np.array([0.0, np.log(2.0), 2.0 * np.log(2.0)])
    p = WienerPath.from_samples(samples, 1.0, 0.0)
    assert z_value(p, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)
    assert z_value(p, 0.0, 1.0) == 1.0
    assert z_value(p, 1.0, 0.0) == 1.0


def test_z_value_vectorized():
    p = sample_two_sided_path(7, 2.0, 0.01)
    t = np.array([-1.0, 0.0, 1.0])
    out = z_value(p, 0.5, t)
    assert out.shape == (3,)
    assert np.allclose(out, np.exp(-0.5 * p.value_at(t)), rtol=0, atol=1e-15)


def test_quad_exp_constant_integrand():
    # int_{-S}^0 e^s ds = 1 - e^{-S}
    val = quad_exp(lambda s: np.ones_like(s), 1.0, 40.0)
    assert val == pytest.approx(1.0 - np.exp(-40.0), abs=1e-4)


def test_quad_exp_exponential_integrand():
    # int_{-S}^0 e^s * e^s ds = (1 - e^{-2S}) / 2
    val = quad_exp(lambda s: np.exp(s), 1.0, 40.0)
    assert val == pytest.approx(0.5, abs=1e-4)


def test_quad_exp_against_adaptive_quadrature():
    def h(s):
        return 1.0 + np.cos(3.0 * s) ** 2

    ours = quad_exp(h, 1.5, 30.0, step=0.005)
    ref, _ = scipy.integrate.quad(lambda s: np.exp(1.5 * s) * h(s), -30.0, 0.0,
                                  limit=400)
    assert ours == pytest.approx(ref, rel=1e-5)


def test_quad_exp_monotone_in_truncation():
    vals = [quad_exp(lambda s: np.ones_like(s), 0.3, S) for S in (5.0, 10.0, 20.0, 40.0)]
    assert vals == sorted(vals)
    gaps = np.diff(vals)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_quad_exp_rejects_bad_arguments():
    for rate in (-1.0, float("nan")):  # a NaN rate fails every comparison
        with pytest.raises(ValueError, match="rate"):
            quad_exp(lambda s: np.ones_like(s), rate, 10.0)
    with pytest.raises(ValueError):
        quad_exp(lambda s: np.ones_like(s), 1.0, -1.0)
    with pytest.raises(ValueError):
        quad_exp(lambda s: 1.0, 1.0, 10.0)  # scalar return, wrong shape


def test_quad_exp_at_rate_zero_is_the_plain_trapezoid():
    # every weight exp(0 * s) is exactly 1, so the bits are the trapezoid's
    def h(s):
        return np.cos(3.0 * s) + 0.1 * s * s

    step = 0.005
    s = -10.0 + step * np.arange(2001)
    assert quad_exp(h, 0.0, 10.0, step) == float(np.trapezoid(h(s), dx=step))


def test_sublinearity_square_root_growth():
    # w(t) = sqrt(|t|) has max |w/t| = 1/sqrt(t_min) at |t| = t_min
    step = 0.5
    t = np.arange(-40.0, 40.0 + step / 2, step)
    p = WienerPath.from_samples(np.sqrt(np.abs(t)), step, -40.0)
    rep = sublinearity_report(p, 10.0)
    assert rep.max_ratio == pytest.approx(1.0 / np.sqrt(10.0), rel=1e-12)
    assert abs(rep.at_t) == pytest.approx(10.0)


def test_sublinearity_shrinks_with_window():
    p = sample_two_sided_path(3, 200.0, 0.1)
    r_small = sublinearity_report(p, 5.0)
    r_large = sublinearity_report(p, 50.0)
    assert r_large.max_ratio <= r_small.max_ratio


def test_csv_roundtrip(tmp_path):
    p = sample_two_sided_path(7, 1.0, 0.25)
    f = tmp_path / "w.csv"
    p.to_csv(f)
    lines = f.read_text().splitlines()
    assert lines[0] == "t,omega"
    back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(back[:, 0], p.times)
    assert np.array_equal(back[:, 1], p.samples)


def test_value_at_matches_np_interp():
    p = sample_two_sided_path(3, 54.25, 1e-3)
    base, i0 = p._base, p._i0

    def reference(t):
        # steps counted from the anchor, not from the window's left end
        k = _snap(t / p.grid_step)
        return np.interp(k, np.arange(base.size) - i0, base) - base[i0]

    off_grid = np.random.default_rng(0).uniform(p.t_min, p.t_max, 5000)
    for t in (off_grid, p.times, np.array([p.t_min, p.t_max])):
        assert np.array_equal(p.value_at(t), reference(t))
    for t in off_grid[:50]:
        assert p.value_at(float(t)) == reference(t)


def test_value_at_does_not_depend_on_the_window():
    # one draw over two windows: equal bits between grid times as well as on them
    short, wide = (sample_two_sided_path(5, span, 4e-3) for span in (3.0, 4.0))
    t = np.random.default_rng(1).uniform(-3.0, 3.0, 2000)
    assert np.array_equal(short.value_at(t), wide.value_at(t))
    assert short.value_at(3.0) == short.samples[-1]
    for bad in (np.nan, [0.0, np.nan], np.inf):
        with pytest.raises(WindowExceededError):
            short.value_at(bad)
