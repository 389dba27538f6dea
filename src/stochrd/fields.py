"""Truncated-domain grids, Dirichlet fields, and their discrete calculus.

The unbounded spatial domain is truncated to the box [-L, L]^d with
homogeneous Dirichlet boundary values.  Fields store all grid values
including the (zero) boundary ring; constructors enforce the ring so a
Field is always an admissible Dirichlet state.

Quadrature conventions are chosen so the discrete summation-by-parts
identity holds exactly: with the node measure h^d (equal to the
trapezoid rule for fields vanishing on the boundary) and the squared
gradient accumulated over cells by forward differences,

    (-laplacian(v), v) = h1 seminorm of v, squared,

with no quadrature slack.  The energy certificates rely on this.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .report import _rows, _write_csv


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [-L, L]^dim with Dirichlet boundary.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    half_width : float
        Box half-width L, positive and finite.
    n : int
        Points per axis including both boundary points, at least 3, with a float
        value, such that the spacing h = 2 L / (n - 1) has a positive finite square.
    """

    dim: int
    half_width: float
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if not 0.0 < self.half_width < np.inf:
            raise ValueError("half_width must be positive and finite")
        if self.n < 3:
            raise ValueError("need at least 3 points per axis")
        try:
            float(self.n)
        except OverflowError:
            raise ValueError("n has no float value") from None
        if not 0.0 < self.h * self.h < np.inf:
            raise ValueError(f"grid spacing {self.h!r} has no positive finite square")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.n - 1)

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n)

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def cell_measure(self) -> float:
        return self.h**self.dim

    def coords(self):
        """Coordinate array(s): x for dim 1, (x, y) meshgrid for dim 2."""
        if self.dim == 1:
            return self.axis
        return np.meshgrid(self.axis, self.axis, indexing="ij")

    def radius(self) -> np.ndarray:
        """Euclidean distance of every node from the origin."""
        if self.dim == 1:
            return np.abs(self.axis)
        x, y = self.coords()
        return np.sqrt(x * x + y * y)


class Field:
    """Real-valued Dirichlet state on a Grid.

    The boundary ring is zeroed on construction and the value array is
    frozen; all-zero boundary and finiteness are invariants.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        values = np.array(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        _zero_boundary(values)
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable) -> "Field":
        if grid.dim == 1:
            return cls(grid, fn(grid.axis))
        x, y = grid.coords()
        return cls(grid, fn(x, y))

    def __repr__(self) -> str:
        return f"Field(grid={self.grid}, sup={np.abs(self.values).max():.4g})"


def _zero_boundary(values: np.ndarray) -> None:
    if values.ndim == 1:
        values[0] = 0.0
        values[-1] = 0.0
    else:
        values[0, :] = 0.0
        values[-1, :] = 0.0
        values[:, 0] = 0.0
        values[:, -1] = 0.0


def laplacian(field: Field) -> Field:
    """Second-order central Laplacian; output boundary ring is zero.

    The stencil reproduces the Laplacian of polynomials of degree <= 3
    exactly (up to roundoff) at nodes whose full stencil lies in the
    stored data.
    """
    g = field.grid
    v = field.values
    out = np.zeros_like(v)
    h2 = g.h * g.h
    if g.dim == 1:
        out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h2
    else:
        out[1:-1, 1:-1] = (
            v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2] + v[1:-1, 2:] - 4.0 * v[1:-1, 1:-1]
        ) / h2
    return Field(g, out)


@dataclass(frozen=True)
class FieldNorms:
    l2: float
    h1_semi: float
    lp: float
    p: float


# The norm kernels give each row of a C-ordered block (a[:, mask] is not) its own bits.
def _l2_sq_rows(block: np.ndarray, grid: Grid) -> np.ndarray:
    """Squared grid L2 norm of every row of a (K, ...) block."""
    return grid.cell_measure * np.sum((block * block).reshape(len(block), -1), axis=1)


def _h1_sq_rows(block: np.ndarray, grid: Grid) -> np.ndarray:
    """Squared H1 seminorm of every row; in 1-d np.vecdot has the bits of np.dot per row."""
    dx = np.diff(block, axis=1)
    if grid.dim == 1:
        return np.vecdot(dx, dx) / grid.h
    dy = np.diff(block, axis=2)
    return (np.sum((dx * dx).reshape(len(block), -1), axis=1)
            + np.sum((dy * dy).reshape(len(block), -1), axis=1))  # h^2 / h^2 = 1


def _lp_p_rows(block: np.ndarray, grid: Grid, p: float, weight: float = 1.0) -> np.ndarray:
    """weight * |row|_{Lp}^p for every row, exact products at p = 2 and 4; weight * h^dim
    is formed first, so a weighted call rounds as weight * h^dim * sum does."""
    q = block * block if p in (2.0, 4.0) else np.abs(block) ** p
    if p == 4.0:
        q = q * q
    return weight * grid.cell_measure * np.sum(q.reshape(len(block), -1), axis=1)


def _l2_distances(a: np.ndarray, b: np.ndarray, grid: Grid) -> np.ndarray:
    """Grid L2 distance of every row of block a to every row of block b, (len(a), len(b))."""
    d = (a[:, None] - b[None, :]).reshape(len(a) * len(b), -1)
    return np.sqrt(_l2_sq_rows(d, grid)).reshape(len(a), len(b))


def norms(field: Field, p: float = 2.0) -> FieldNorms:
    """L2 norm, H1 seminorm, and Lp norm of a field.

    L2 and Lp use the node measure h^dim (the trapezoid rule for
    Dirichlet fields); the H1 seminorm accumulates forward differences
    over cells, which pairs exactly with the discrete Laplacian.
    """
    if not p >= 1:
        raise ValueError("p must be >= 1")
    g = field.grid
    v = field.values[None]
    return FieldNorms(
        l2=float(np.sqrt(_l2_sq_rows(v, g)[0])),
        h1_semi=float(np.sqrt(_h1_sq_rows(v, g)[0])),
        lp=float(_lp_p_rows(v, g, p)[0]) ** (1.0 / p),
        p=p,
    )


def l2_distance(a: Field, b: Field) -> float:
    """Grid L2 distance; both fields must share a grid."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    return float(_l2_distances(a.values[None], b.values[None], a.grid)[0, 0])


def tail_mass(field: Field, k: float) -> float:
    """Squared L2 mass of the field outside the ball of radius k.

    Sharp node indicator |x| >= k; nonincreasing in k by construction
    and equal to the full squared L2 norm as k -> 0+ (up to the single
    excluded origin node).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return float(_l2_sq_rows(field.values[None, field.grid.radius() >= k], field.grid)[0])


# -- serialization --------------------------------------------------------

_HEADER = struct.Struct("<IId")  # dims, n per axis, half-width


def write_field_block(field: Field, path) -> None:
    """Binary field block: header (uint32 dims, uint32 N, float64 L,
    little-endian) followed by the N^dims float64 payload in C order."""
    g = field.grid
    payload = np.ascontiguousarray(field.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(g.dim, g.n, g.half_width))
        fh.write(payload.tobytes())


def read_field_block(path) -> Field:
    """The field of a write_field_block file; ValueError naming the file unless its header
    gives a valid Grid and its size fits that header."""
    with open(path, "rb") as fh:
        raw = fh.read()
    want = f"at least {_HEADER.size}"
    if len(raw) >= _HEADER.size:
        dim, n, half_width = _HEADER.unpack_from(raw)
        try:
            grid = Grid(dim, half_width, n)
        except ValueError as exc:
            raise ValueError(f"field block {path}: header dim={dim}, n={n}, "
                             f"half_width={half_width!r}: {exc}") from None
        want = _HEADER.size + 8 * n**dim
    if len(raw) != want:
        raise ValueError(f"field block {path}: {len(raw)} bytes, expected {want}")
    return Field(grid, np.frombuffer(raw, "<f8", offset=_HEADER.size).reshape(grid.shape))


def field_to_csv(field: Field, path) -> None:
    """CSV export: columns x,value (dim 1) or x,y,value (dim 2)."""
    g = field.grid
    _write_csv(path, ("x", "y")[:g.dim] + ("value",),
               _rows(*np.reshape(g.coords(), (g.dim, -1)), field.values.ravel()))
