"""Grids, discrete norms, the Laplacian stencil, and field IO."""

import struct

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from stochrd import (
    Field,
    Grid,
    field_to_csv,
    l2_distance,
    laplacian,
    norms,
    read_field_block,
    tail_mass,
    write_field_block,
)

G1 = Grid(dim=1, half_width=8.0, n=257)
G2 = Grid(dim=2, half_width=4.0, n=33)


def interior(mask_cells, grid):
    """Indices at least mask_cells away from the boundary."""
    idx = np.arange(grid.n)
    return (idx >= mask_cells) & (idx < grid.n - mask_cells)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(dim=3, half_width=1.0, n=9)
    with pytest.raises(ValueError):
        Grid(dim=1, half_width=1.0, n=2)
    with pytest.raises(ValueError):
        Grid(dim=1, half_width=0.0, n=9)
    with pytest.raises(ValueError, match="n has no float value"):
        Grid(dim=1, half_width=1.0, n=10**400)


@pytest.mark.parametrize("dim, half_width, n", [
    (1, 1e300, 17), (1, 1e-300, 17), (2, 1e160, 3), (2, 1e-170, 3)])
def test_grid_rejects_a_spacing_without_a_finite_square(dim, half_width, n):
    # the implicit solves divide by h**2: an overflowing or vanishing square has no scheme
    with pytest.raises(ValueError, match="grid spacing .* has no positive finite square"):
        Grid(dim=dim, half_width=half_width, n=n)
    assert Grid(dim=dim, half_width=1e150, n=n).h ** 2 < np.inf


def test_grid_geometry():
    assert G1.h == pytest.approx(16.0 / 256.0)
    assert G1.axis[0] == -8.0 and G1.axis[-1] == 8.0
    assert G1.cell_measure == G1.h
    assert G2.cell_measure == pytest.approx(G2.h**2)
    assert G2.shape == (33, 33)


def test_field_zeroes_boundary():
    f = Field(G1, np.ones(257))
    assert f.values[0] == 0.0 and f.values[-1] == 0.0
    assert np.all(f.values[1:-1] == 1.0)
    g = Field.from_function(G2, lambda x, y: 1.0 + 0.0 * x)
    assert np.all(g.values[0, :] == 0.0) and np.all(g.values[:, -1] == 0.0)


def test_field_rejects_nonfinite():
    bad = np.ones(257)
    bad[5] = np.nan
    with pytest.raises(ValueError):
        Field(G1, bad)


def test_field_values_frozen():
    f = Field.zeros(G1)
    with pytest.raises(ValueError):
        f.values[3] = 1.0


def test_laplacian_affine_is_zero():
    f = Field.from_function(G1, lambda x: 2.0 * x + 1.0)
    lap = laplacian(f).values
    keep = interior(2, G1)
    assert np.max(np.abs(lap[keep])) < 1e-10


def test_laplacian_quadratic():
    f = Field.from_function(G1, lambda x: x * x)
    lap = laplacian(f).values
    keep = interior(2, G1)
    assert lap[keep] == pytest.approx(np.full(keep.sum(), 2.0), abs=1e-9)


def test_laplacian_2d_quadratic():
    f = Field.from_function(G2, lambda x, y: x * x + y * y)
    lap = laplacian(f).values
    inner = lap[2:-2, 2:-2]
    assert inner == pytest.approx(np.full(inner.shape, 4.0), abs=1e-9)


def test_discrete_eigenmode_identity():
    # the lowest Dirichlet mode solves -lap(v) = mu * v for the stencil,
    # mu = (4 / h^2) sin^2(pi h / (4 L)); checked against dense eigenvalues
    L, h = G1.half_width, G1.h
    mode = Field.from_function(G1, lambda x: np.sin(np.pi * (x + L) / (2.0 * L)))
    mu = (4.0 / h**2) * np.sin(np.pi * h / (4.0 * L)) ** 2
    lap = laplacian(mode).values
    keep = interior(1, G1)
    assert lap[keep] == pytest.approx(-mu * mode.values[keep], abs=1e-10)

    m = G1.n - 2
    diag = np.full(m, 2.0 / h**2)
    off = np.full(m - 1, -1.0 / h**2)
    evals = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                          select_range=(0, 0))[0]
    assert mu == pytest.approx(evals[0], rel=1e-12)


def test_summation_by_parts():
    # the gradient seminorm is exactly the quadratic form of the stencil
    rng = np.random.default_rng(5)
    f = Field(G1, rng.normal(size=257))
    lhs = -G1.cell_measure * float(np.sum(laplacian(f).values * f.values))
    rhs = norms(f).h1_semi**2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_summation_by_parts_2d():
    rng = np.random.default_rng(6)
    f = Field(G2, rng.normal(size=G2.shape))
    lhs = -G2.cell_measure * float(np.sum(laplacian(f).values * f.values))
    rhs = norms(f).h1_semi**2
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_l2_of_unit_field():
    f = Field(G1, np.ones(257))
    # two boundary nodes are clamped to zero, so the mass is 2L - h
    assert norms(f).l2**2 == pytest.approx(2.0 * G1.half_width - G1.h, rel=1e-12)


def test_norm_scaling_exact():
    f = Field.from_function(G1, lambda x: np.exp(-x * x))
    n1 = norms(f, p=4.0)
    n2 = norms(Field(G1, 2.0 * f.values), p=4.0)
    assert n2.l2 == 2.0 * n1.l2
    assert n2.h1_semi == 2.0 * n1.h1_semi
    assert n2.lp == 2.0 * n1.lp


def test_lp_norm_gaussian_oracle():
    f = Field.from_function(G1, lambda x: np.exp(-x * x))
    ref, _ = scipy.integrate.quad(lambda x: np.exp(-4.0 * x * x), -8.0, 8.0)
    assert norms(f, p=4.0).lp**4 == pytest.approx(ref, rel=1e-10)


def test_l2_distance():
    a = Field.from_function(G1, lambda x: np.exp(-x * x))
    b = Field.zeros(G1)
    assert l2_distance(a, b) == norms(a).l2
    assert l2_distance(a, a) == 0.0
    with pytest.raises(ValueError):
        l2_distance(a, Field.zeros(G2))


def test_tail_mass_gaussian_oracle():
    # the node sum gives the two cut nodes full cell weight, so the
    # discrete tail exceeds the integral by h * f(k)^2 when k is a node
    f = Field.from_function(G1, lambda x: np.exp(-x * x / 4.0))
    for k in (2.0, 4.0):
        ref = 2.0 * scipy.integrate.quad(lambda x: np.exp(-x * x / 2.0), k, 8.0)[0]
        expected = ref + G1.h * np.exp(-k * k / 2.0)
        assert tail_mass(f, k) == pytest.approx(expected, rel=0.01)


def test_tail_mass_monotone_and_bounded():
    f = Field.from_function(G1, lambda x: np.exp(-x * x / 4.0))
    vals = [tail_mass(f, k) for k in (0.0, 2.0, 4.0, 6.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(norms(f).l2**2, rel=1e-12)


def test_tail_mass_2d():
    f = Field.from_function(G2, lambda x, y: np.exp(-(x * x + y * y)))
    full = tail_mass(f, 0.0)
    assert full == pytest.approx(norms(f).l2**2, rel=1e-12)
    assert tail_mass(f, 2.0) < 1e-2 * full


def test_binary_roundtrip(tmp_path):
    f = Field.from_function(G1, lambda x: np.sin(x))
    p = tmp_path / "f.bin"
    write_field_block(f, p)
    g = read_field_block(p)
    assert g.grid == G1
    assert np.array_equal(g.values, f.values)


def test_binary_roundtrip_2d(tmp_path):
    f = Field.from_function(G2, lambda x, y: np.sin(x) * np.cos(y))
    p = tmp_path / "f2.bin"
    write_field_block(f, p)
    g = read_field_block(p)
    assert g.grid == G2
    assert np.array_equal(g.values, f.values)


def test_binary_header_layout(tmp_path):
    f = Field.zeros(G1)
    p = tmp_path / "f.bin"
    write_field_block(f, p)
    raw = p.read_bytes()
    dims, n, half = struct.unpack("<IId", raw[:16])
    assert (dims, n, half) == (1, 257, 8.0)
    assert len(raw) == 16 + 257 * 8


@pytest.mark.parametrize("cut, want", [
    (lambda raw: raw[:-8], "expected 152"),    # one value short
    (lambda raw: raw + bytes(8), "expected 152"),  # one value over
    (lambda raw: raw[:-3], "expected 152"),    # not a whole value
    (lambda raw: raw[:10], "expected at least 16"),  # a cut header
    (lambda raw: b"", "expected at least 16"),
], ids=["short", "long", "partial", "cut-header", "empty"])
def test_binary_size_mismatch_names_file_and_sizes(tmp_path, cut, want):
    # the file AttractorApprox.read goes through: a 1-d n = 17 block of 16 + 17 * 8 bytes
    p = tmp_path / "f.bin"
    write_field_block(Field.zeros(Grid(dim=1, half_width=4.0, n=17)), p)
    p.write_bytes(cut(p.read_bytes()))
    with pytest.raises(ValueError) as err:
        read_field_block(p)
    assert str(err.value) == f"field block {p}: {p.stat().st_size} bytes, {want}"


@pytest.mark.parametrize("header, fault", [
    ((3, 17, 4.0), "dim must be 1 or 2"),
    ((1, 17, -4.0), "half_width must be positive and finite"),
    ((1, 17, float("nan")), "half_width must be positive and finite"),
    ((1, 17, float("inf")), "half_width must be positive and finite"),
    ((1, 2, 4.0), "need at least 3 points per axis"),
    ((2, 1, 4.0), "need at least 3 points per axis"),
    ((1, 3, 1e300), "grid spacing 1e+300 has no positive finite square"),
], ids=["dim-3", "negative-half-width", "nan-half-width", "inf-half-width", "1d-n-2", "2d-n-1",
        "overflowing-spacing"])
def test_binary_bad_header_names_file_and_fault(tmp_path, header, fault):
    # a header that gives no Grid fails before any size is compared, naming the file too
    p = tmp_path / "f.bin"
    dim, n, half_width = header
    p.write_bytes(struct.pack("<IId", *header))
    with pytest.raises(ValueError) as err:
        read_field_block(p)
    assert str(err.value) == (f"field block {p}: header dim={dim}, n={n}, "
                              f"half_width={half_width!r}: {fault}")


def test_csv_export(tmp_path):
    f = Field.from_function(G1, lambda x: x)
    p = tmp_path / "f.csv"
    field_to_csv(f, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 1 + 257
    x0, v0 = (float(s) for s in lines[1].split(","))
    assert (x0, v0) == (-8.0, 0.0)  # boundary node is clamped
