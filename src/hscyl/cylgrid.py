"""Finite-difference machinery on the cylindrically reduced quadrant.

Functions of (|x|, |y|) live on a tensor grid in (rho, r) with strictly
positive nodes; the axes themselves are never grid nodes.  Ghost values at
the axes come from even reflection (the cylindrically symmetric fields we
difference are even there), outer boundaries use one-sided second-order
stencils, and all stencil weights are generated for the actual node
positions, so graded grids cost no accuracy.  Interior rows use the
closed-form nonuniform 3-point weights, computed for every node at once;
only the edge rows (axis ghost or one-sided head, one-sided tail) come
from the generic Vandermonde solve in ``_fd_weights``.

The reduced Laplacian is

    L U = U_rho_rho + (a/rho) U_rho + U_rr + (b/r) U_r,
    a = k - 1,  b = n - k - 1,

acting on U(rho, r).  Every operation is written once, as a loop over the
grid's active axes (``CylGrid.axes``): each axis keeps its first
derivative D1 and its share of L, L_axis = D2 + diag(c/x) D1, as sparse
1-D operators, applied along one axis at a time and summed in.  Sums over
the grid weight each node by ``CylGrid.measure``.  For k = n the r
direction is absent, grids are one-dimensional, and the same loops run
over the rho axis alone.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridError, ParameterDomainError, require_int, require_split
from .exponents import hs_conjugate
from .specfn import sphere_measure

__all__ = [
    "CylGrid",
    "GridSpec",
    "build_grid",
    "window_grid",
    "cyl_laplacian",
    "gradient_energy",
    "el_residual",
    "shifted_quadratic_residual",
    "dump_grid",
    "load_grid",
    "axis_derivative_operators",
]


@dataclass(frozen=True)
class CylGrid:
    """Immutable tensor grid with function values.

    values has shape (len(rho_nodes), len(r_nodes)), or (len(rho_nodes),)
    when k = n and the r direction is absent.  ``axis_ghost`` records
    whether the innermost nodes sit next to the axes (even-reflection
    ghosts apply there); window grids cut out of the open quadrant set it
    False and get one-sided stencils at both edges instead.
    """

    n: int
    k: int
    rho_nodes: np.ndarray
    r_nodes: np.ndarray
    values: np.ndarray
    grading: float = 1.0
    axis_ghost: bool = True

    def __post_init__(self):
        n, k = require_split(self.n, self.k)
        rho = np.array(self.rho_nodes, dtype=float)
        r = np.array(self.r_nodes, dtype=float)
        vals = np.array(self.values, dtype=float)
        for name, nodes in (("rho_nodes", rho), ("r_nodes", r)):
            if nodes.size and (np.any(nodes <= 0.0) or np.any(np.diff(nodes) <= 0.0)):
                raise GridError(f"{name} must be strictly increasing and positive")
        if k == n:
            if r.size:
                raise GridError("k = n grids carry no r nodes")
            if vals.shape != rho.shape:
                raise GridError(f"values shape {vals.shape} does not match 1-D grid")
        else:
            if vals.shape != (rho.size, r.size):
                raise GridError(
                    f"values shape {vals.shape} does not match grid "
                    f"({rho.size}, {r.size})"
                )
        if not np.all(np.isfinite(vals)):
            raise GridError("grid values must be finite")
        for arr in (rho, r, vals):
            arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rho_nodes", rho)
        object.__setattr__(self, "r_nodes", r)
        object.__setattr__(self, "values", vals)

    @property
    def a(self) -> int:
        return self.k - 1

    @property
    def b(self) -> int:
        return self.n - self.k - 1

    @property
    def axes(self) -> tuple:
        """The active axes as (nodes, drift coefficient) pairs: (rho_nodes, a),
        then (r_nodes, b) when k < n."""
        rho = ((self.rho_nodes, self.a),)
        return rho + ((self.r_nodes, self.b),) if self.k < self.n else rho

    def with_values(self, values) -> "CylGrid":
        return replace(self, values=values)

    def cell_volumes(self) -> list:
        """Exact moments of x^c over the cells of each active axis: faces
        at the midpoints and the last node, and the first face at the axis
        (at the first node on window grids)."""
        vols = []
        for nodes, c in self.axes:
            start = 0.0 if self.axis_ghost else nodes[0]
            faces = np.concatenate(([start], 0.5 * (nodes[1:] + nodes[:-1]), nodes[-1:]))
            p = c + 1.0
            vols.append((faces[1:] ** p - faces[:-1] ** p) / p)
        return vols

    def measure(self) -> np.ndarray:
        """Node weights of sums over the grid: sigma_k sigma_(n-k) times
        the cell moments of rho^a r^b."""
        sigma = math.prod(sphere_measure(c + 1) for _, c in self.axes)
        return sigma * functools.reduce(np.multiply.outer, self.cell_volumes())

    def sampled(self, profile) -> "CylGrid":
        """New grid with values = profile(rho, r) (profile(rho, 0) if k = n)."""
        if self.k == self.n:
            return self.with_values(profile(self.rho_nodes, 0.0))
        P, R = np.meshgrid(self.rho_nodes, self.r_nodes, indexing="ij")
        return self.with_values(profile(P, R))


@dataclass(frozen=True)
class GridSpec:
    """Build parameters for a grid (see :func:`build_grid`)."""

    rho_max: float
    r_max: float
    n_rho: int
    n_r: int
    grading: float = 1.5


def build_grid(n: int, k: int, rho_max: float, r_max: float,
               n_rho: int, n_r: int, grading: float = 2.0) -> CylGrid:
    """Graded tensor grid with nodes rho_i = rho_max (i/n_rho)^grading,
    i = 1..n_rho (never 0), and likewise in r.  Values start at zero."""
    n, k = require_split(n, k)
    n_rho = require_int(n_rho, "n_rho")
    n_r = require_int(n_r, "n_r")
    if n_rho < 8 or (k < n and n_r < 8):
        raise ParameterDomainError("need at least 8 nodes per active dimension")
    if not grading >= 1.0:
        raise ParameterDomainError(f"grading must be >= 1, got {grading}")
    if not rho_max > 0.0 or (k < n and not r_max > 0.0):
        raise ParameterDomainError("domain extents must be positive")
    rho = rho_max * (np.arange(1, n_rho + 1) / n_rho) ** grading
    if k == n:
        return CylGrid(n, k, rho, np.empty(0), np.zeros(n_rho), grading)
    r = r_max * (np.arange(1, n_r + 1) / n_r) ** grading
    return CylGrid(n, k, rho, r, np.zeros((n_rho, n_r)), grading)


def window_grid(n: int, k: int, rho_lo: float, rho_hi: float,
                r_lo: float, r_hi: float, n_rho: int, n_r: int) -> CylGrid:
    """Uniform grid on a window of the open quadrant, away from the axes.

    Both edges get one-sided stencils (axis reflection would be wrong for
    a grid that does not touch the axis).  Used for residual checks of
    explicit solutions on a fixed box.
    """
    n, k = require_split(n, k)
    n_rho = require_int(n_rho, "n_rho")
    n_r = require_int(n_r, "n_r")
    if not (0.0 < rho_lo < rho_hi) or (k < n and not (0.0 < r_lo < r_hi)):
        raise ParameterDomainError("window bounds must satisfy 0 < lo < hi")
    if n_rho < 8 or (k < n and n_r < 8):
        raise ParameterDomainError("need at least 8 nodes per active dimension")
    rho = np.linspace(rho_lo, rho_hi, n_rho)
    if k == n:
        return CylGrid(n, k, rho, np.empty(0), np.zeros(n_rho), 1.0, axis_ghost=False)
    r = np.linspace(r_lo, r_hi, n_r)
    return CylGrid(n, k, rho, r, np.zeros((n_rho, n_r)), 1.0, axis_ghost=False)


# ---------------------------------------------------------------------------
# Stencils
# ---------------------------------------------------------------------------

def _fd_weights(x0: float, xs: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for d^order/dx^order at x0 on nodes xs
    (exact for polynomials up to degree len(xs)-1)."""
    m = len(xs)
    A = np.vander(xs - x0, m, increasing=True).T
    rhs = np.zeros(m)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(A, rhs)


def axis_derivative_operators(nodes: np.ndarray, axis_ghost: bool = True) -> tuple:
    """(D1, D2) as CSR matrices for one radial direction: centred 3-point
    stencils inside, one-sided 4-point at the outer edge, and at the inner
    edge either an even-reflection ghost (axis-adjacent grids) or another
    one-sided stencil (window grids).

    The interior rows are the closed-form 3-point weights for the spacings
    h1 = x_i - x_(i-1), h2 = x_(i+1) - x_i (Fornberg, Math. Comp. 51, 1988),
    computed for all nodes at once; only the edge rows use _fd_weights.
    """
    import scipy.sparse as sp

    x = np.asarray(nodes, dtype=float)
    m = x.size
    if m < 3:
        raise GridError("need at least 3 nodes per active dimension")
    h = np.diff(x)
    h1, h2 = h[:-1], h[1:]
    h12, hh = h1 + h2, h1 * h2
    interior = {
        1: (-h2 / (h1 * h12), (h2 - h1) / hh, h1 / (h2 * h12)),
        2: (2.0 / (h1 * h12), -2.0 / hh, 2.0 / (h2 * h12)),
    }
    ops = []
    for order, (lower, centre, upper) in interior.items():
        # band k holds entry (i, i + k) at index min(i, i + k)
        bands = {k: np.zeros(m - abs(k)) for k in range(-3, 4)}
        bands[-1][:-1] = lower
        bands[0][1:-1] = centre
        bands[1][1:] = upper
        if axis_ghost:
            # ghost at -x0 carries the value at x0
            w = _fd_weights(x[0], np.array([-x[0], x[0], x[1]]), order)
            head = (w[0] + w[1], w[2])
        else:
            head = _fd_weights(x[0], x[:4], order)
        for k, w in enumerate(head):
            bands[k][0] = w
        tail = _fd_weights(x[-1], x[-4:], order)
        for k, w in enumerate(tail, start=1 - len(tail)):
            bands[k][-1] = w
        ops.append(sp.diags(list(bands.values()), list(bands), format="csr"))
    return ops[0], ops[1]


def _axis_operators(grid: CylGrid) -> list:
    """(D1, L_axis) of each active axis, L_axis = D2 + diag(c/x) D1 its
    share of the reduced Laplacian (c = a on rho and b on r)."""
    ops = []
    for nodes, c in grid.axes:
        d1, d2 = axis_derivative_operators(nodes, grid.axis_ghost)
        ops.append((d1, d2 + d1.multiply((c / nodes)[:, None])))
    return ops


def _along(op, u: np.ndarray, axis: int) -> np.ndarray:
    """Apply a sparse 1-D operator along one axis of u."""
    return np.moveaxis(op @ np.moveaxis(u, axis, 0), 0, axis)


def _per_node(coef: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """A 1-D array of per-node coefficients along one axis, shaped to
    broadcast against the grid's values."""
    return coef.reshape((-1,) + (1,) * (ndim - 1 - axis))


def _apply_reduced_laplacian(grid: CylGrid, ops) -> np.ndarray:
    """Sum over the axes of L_axis U."""
    out = np.zeros_like(grid.values)
    for axis, (_, lap) in enumerate(ops):
        out += _along(lap, grid.values, axis)
    return out


def _gradient_sq(grid: CylGrid, ops) -> np.ndarray:
    """|grad U|^2: the squared D1 derivatives summed over the axes."""
    return sum(_along(d1, grid.values, axis) ** 2 for axis, (d1, _) in enumerate(ops))


def cyl_laplacian(grid: CylGrid) -> CylGrid:
    """Apply L = d_rho_rho + (a/rho) d_rho + d_rr + (b/r) d_r to the grid."""
    return grid.with_values(_apply_reduced_laplacian(grid, _axis_operators(grid)))


def gradient_energy(grid: CylGrid, p_exp: float = 2.0) -> float:
    """Weighted Dirichlet energy

        sigma_k sigma_(n-k) * double sum of |grad U|^p rho^(k-1) r^(n-k-1)

    over the grid's cell measure; |grad U|^2 = U_rho^2 + U_r^2.
    """
    if not p_exp >= 1.0:
        raise ParameterDomainError(f"need p_exp >= 1, got {p_exp}")
    weighted = _gradient_sq(grid, _axis_operators(grid)) ** (0.5 * p_exp)
    return float(np.sum(grid.measure() * weighted))


def el_residual(grid: CylGrid, Lambda: float, s: float) -> CylGrid:
    """Residual of the constrained-minimiser equation at the grid values:

        L U + Lambda rho^(-s) U^(q-1),   q = 2(n-s)/(n-2).

    Vanishes (to truncation error) exactly when U solves
    Delta U = -Lambda |x|^(-s) U^(q-1).
    """
    if np.any(grid.values <= 0.0):
        raise ParameterDomainError("el_residual requires strictly positive values")
    q = hs_conjugate(2.0, s, grid.n)
    lap = _apply_reduced_laplacian(grid, _axis_operators(grid))
    coef = _per_node(Lambda * grid.rho_nodes ** (-s), 0, lap.ndim)
    return grid.with_values(lap + coef * grid.values ** (q - 1.0))


def shifted_quadratic_residual(phi_grid: CylGrid, params) -> CylGrid:
    """Residual of the quadratic-solution equation at the grid values:

        L phi - (n/2) |grad phi|^2 / phi
              - 2 a lam^2 alpha / rho - 2 b lam^2 beta / r,

    where L carries the drift coefficients a, b of ``params`` (the grid's
    split must agree with them) and n = a + b + 2.
    """
    if np.any(phi_grid.values <= 0.0):
        raise ParameterDomainError("shifted_quadratic_residual requires strictly positive values")
    if (phi_grid.a, phi_grid.b) != (params.a, params.b):
        raise ParameterDomainError(
            f"grid split (a={phi_grid.a}, b={phi_grid.b}) does not match "
            f"params (a={params.a}, b={params.b})"
        )
    ops = _axis_operators(phi_grid)
    lap = _apply_reduced_laplacian(phi_grid, ops)
    res = lap - 0.5 * params.n * _gradient_sq(phi_grid, ops) / phi_grid.values
    shifts = (params.alpha, params.beta)
    for axis, ((nodes, c), shift) in enumerate(zip(phi_grid.axes, shifts)):
        res -= _per_node(2.0 * c * params.lam**2 * shift / nodes, axis, res.ndim)
    return phi_grid.with_values(res)


# ---------------------------------------------------------------------------
# Grid dumps
# ---------------------------------------------------------------------------

_DUMP_BLOCK_ROWS = 4096


def dump_grid(grid: CylGrid, path) -> None:
    """Write the grid as a comma-separated table with header rho,r,value.

    Floats are printed with 17 significant digits so a reload is
    bit-exact; a leading comment line carries (n, k, grading).  A 1-D
    grid's r column is 0.  The rows are the bytes ``np.savetxt`` writes
    with fmt "%.17g" and delimiter ",", formatted a block at a time.
    """
    if grid.k == grid.n:
        rho, r = grid.rho_nodes, np.zeros_like(grid.rho_nodes)
    else:
        rho, r = np.meshgrid(grid.rho_nodes, grid.r_nodes, indexing="ij")
    table = np.column_stack((rho.ravel(), r.ravel(), grid.values.ravel()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# hscyl-grid n={grid.n} k={grid.k} grading={grid.grading:.17g} "
                 f"axis_ghost={int(grid.axis_ghost)}\n")
        fh.write("rho,r,value\n")
        # one format per block: the text of a whole large grid at once
        # would raise the peak memory
        for start in range(0, len(table), _DUMP_BLOCK_ROWS):
            block = table[start:start + _DUMP_BLOCK_ROWS]
            fh.write("%.17g,%.17g,%.17g\n" * len(block) % tuple(block.ravel().tolist()))


def load_grid(path) -> CylGrid:
    """Read a grid written by :func:`dump_grid` (bit-exact round trip)."""
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline()
        meta = (dict(token.split("=", 1) for token in first[1:].split() if "=" in token)
                if first.startswith("#") else {})
        try:
            n, k = int(meta["n"]), int(meta["k"])
            grading = float(meta.get("grading", 1.0))
            ghost = bool(int(meta.get("axis_ghost", 1)))
        except (KeyError, ValueError):
            raise GridError("grid dump has a missing or malformed metadata line") from None
        if fh.readline().strip() != "rho,r,value":
            raise GridError("grid dump has no rho,r,value header line")
        try:
            with warnings.catch_warnings():
                # loadtxt warns on a dump without rows, which is rejected below
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
        except UnicodeDecodeError:
            raise  # an unreadable file, not a malformed row
        except ValueError as exc:
            raise GridError(f"malformed grid row: {exc}") from None
    if not table.size:
        raise GridError("grid dump has no rows")
    if table.shape[1:] != (3,):
        raise GridError(f"grid rows must hold rho,r,value, got {table.shape[1]} columns")
    rho, i = np.unique(table[:, 0], return_inverse=True)
    if k == n:
        if len(table) != rho.size:
            raise GridError("grid dump is not a full 1-D table")
        vals = np.empty(rho.size)
        vals[i] = table[:, 2]
        return CylGrid(n, k, rho, np.empty(0), vals, grading, ghost)
    r, j = np.unique(table[:, 1], return_inverse=True)
    if len(table) != rho.size * r.size or np.unique(i * r.size + j).size != len(table):
        raise GridError("grid dump is not a full tensor table")
    vals = np.empty((rho.size, r.size))
    vals[i, j] = table[:, 2]
    return CylGrid(n, k, rho, r, vals, grading, ghost)
