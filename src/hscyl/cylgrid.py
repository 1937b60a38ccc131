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
derivative D1 and its share of L, L_axis = D2 + diag(c/x) D1, as a
stencil in difference form, applied by slicing to one block of whole rows
at a time, so that D1, L and |grad U|^2 are formed while the block is in
cache.  Sums over the grid weight each node by ``CylGrid.measure``.  For
k = n the r direction is absent, grids are one-dimensional, and the same
loops run over the rho axis alone.

The leading and the trailing axis keep separate sweeps, ``_lead_rows``
and ``_trail_rows``.  A block of whole rows is contiguous along the
trailing axis, so that sweep runs over the block as one flat array.
Running the trailing axis through ``_lead_rows`` instead needs a
transposed copy of each block.  On 32 x 1024 blocks (2-core Xeon) that
route agreed to rounding, bit for bit away from the outer edge row, but
took 1.7-1.9 times as long per block (184 against 95 us).

A grid owns its values, read-only.  Values from outside the library are
checked to be finite numbers: those given to the ``CylGrid`` constructor
or ``with_values`` and the array a ``sampled`` profile returns are also
copied, while the column ``load_grid`` parsed from a file is not.  An
array the library allocated and filled itself is taken as it is, without
the copy or the scan: the zeros of ``build_grid`` and ``window_grid`` are
one stored number broadcast to the grid's shape, and the residual
operators and the flow hand over their output arrays.  Their results are the arithmetic's: a result
that overflows holds inf or nan (numpy warns), where a copy and scan
would raise GridError.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (GridError, ParameterDomainError, _float_array, require_int, require_nodes,
                     require_real, require_split)
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
]


class _Owned(NamedTuple):
    """Grid values that the library allocated and filled itself, and that
    nothing else references: a CylGrid takes ``array`` as it is."""

    array: np.ndarray


def _finite(values):
    """``values``, a float array or None, if it holds finite numbers only;
    otherwise GridError."""
    if values is None or not np.all(np.isfinite(values)):
        raise GridError("grid values must be finite numbers")
    return values


def _values_shape(n: int, k: int, n_rho: int, n_r: int) -> tuple:
    """The shape of grid values: (n_rho, n_r), or (n_rho,) when k = n."""
    return (n_rho, n_r) if k < n else (n_rho,)


@dataclass(frozen=True)
class CylGrid:
    """Immutable tensor grid with function values.

    Each active axis is a node axis (``errors.require_nodes``).  A k = n
    grid is the one-axis case: it has no r nodes, and its values have
    shape (len(rho_nodes),) where a k < n grid's have shape
    (len(rho_nodes), len(r_nodes)).  ``axis_ghost`` records
    whether the innermost nodes sit next to the axes (even-reflection
    ghosts apply there); window grids cut out of the open quadrant set it
    False and get one-sided stencils at both edges instead.

    The grid owns ``values`` and makes them read-only.  Given values are
    copied and must be finite, so changing the array passed in leaves the
    grid as it was.  Grids that the library's functions build take the
    arrays those functions filled, without a copy or a scan (module
    docstring), and the zeros of a fresh grid store one number.
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
        rho = require_nodes(self.rho_nodes, "rho_nodes", GridError)
        r = require_nodes(self.r_nodes, "r_nodes", GridError)
        if (k == n) != (r.size == 0):
            raise GridError("k = n grids carry no r nodes, and k < n grids some")
        vals = (self.values.array if isinstance(self.values, _Owned)
                else _finite(_float_array(self.values)))
        shape = _values_shape(n, k, rho.size, r.size)
        if vals.shape != shape:
            raise GridError(f"values shape {vals.shape} does not match "
                            f"{len(shape)}-D grid {shape}")
        for arr in (rho, r, vals):
            arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rho_nodes", rho)
        object.__setattr__(self, "r_nodes", r)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "grading", require_real(self.grading, "grading", 1.0, ends="[)"))

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
        """New grid with values = profile(rho, r) on the open mesh: rho is
        the column rho_nodes[:, None] and r the row r_nodes[None, :] (rho_nodes
        and the scalar 0.0 if k = n); the result is broadcast to the grid."""
        rho, r = ((self.rho_nodes, 0.0) if self.k == self.n
                  else (self.rho_nodes[:, None], self.r_nodes[None, :]))
        return self.with_values(np.broadcast_to(profile(rho, r), self.values.shape))


@dataclass(frozen=True)
class GridSpec:
    """Build parameters for a grid (see :func:`build_grid`)."""

    rho_max: float
    r_max: float
    n_rho: int
    n_r: int
    grading: float = 1.5


def _node_counts(n: int, k: int, n_rho: int, n_r: int) -> tuple[int, int]:
    """(n_rho, n_r) as ints, 8 or more on each active axis, or ParameterDomainError."""
    n_rho = require_int(n_rho, "n_rho")
    n_r = require_int(n_r, "n_r")
    if n_rho < 8 or (k < n and n_r < 8):
        raise ParameterDomainError("need at least 8 nodes per active dimension")
    return n_rho, n_r


def _zeros(n: int, k: int, n_rho: int, n_r: int) -> _Owned:
    """Zero values of a fresh grid: one stored 0.0, broadcast read-only."""
    return _Owned(np.broadcast_to(0.0, _values_shape(n, k, n_rho, n_r)))


def build_grid(n: int, k: int, rho_max: float, r_max: float,
               n_rho: int, n_r: int, grading: float) -> CylGrid:
    """Graded tensor grid with nodes rho_i = rho_max (i/n_rho)^grading,
    i = 1..n_rho (never 0), and likewise in r.  Values start at zero."""
    n, k = require_split(n, k)
    n_rho, n_r = _node_counts(n, k, n_rho, n_r)
    grading = require_real(grading, "grading", 1.0, ends="[)")
    rho_max = require_real(rho_max, "rho_max", 0.0)
    if k < n:
        r_max = require_real(r_max, "r_max", 0.0)
    rho = rho_max * (np.arange(1, n_rho + 1) / n_rho) ** grading
    r = np.empty(0) if k == n else r_max * (np.arange(1, n_r + 1) / n_r) ** grading
    return CylGrid(n, k, rho, r, _zeros(n, k, n_rho, n_r), grading)


def window_grid(n: int, k: int, rho_lo: float, rho_hi: float,
                r_lo: float, r_hi: float, n_rho: int, n_r: int) -> CylGrid:
    """Uniform grid on a window of the open quadrant, away from the axes.

    Both edges get one-sided stencils (axis reflection would be wrong for
    a grid that does not touch the axis).  Used for residual checks of
    explicit solutions on a fixed box.
    """
    n, k = require_split(n, k)
    n_rho, n_r = _node_counts(n, k, n_rho, n_r)
    rho_hi = require_real(rho_hi, "rho_hi", require_real(rho_lo, "rho_lo", 0.0))
    if k < n:
        r_hi = require_real(r_hi, "r_hi", require_real(r_lo, "r_lo", 0.0))
    rho = np.linspace(rho_lo, rho_hi, n_rho)
    r = np.empty(0) if k == n else np.linspace(r_lo, r_hi, n_r)
    return CylGrid(n, k, rho, r, _zeros(n, k, n_rho, n_r), 1.0, axis_ghost=False)


# ---------------------------------------------------------------------------
# Stencils
# ---------------------------------------------------------------------------

#: nodes per block of a stencil sweep, small enough to stay in cache
_BLOCK_NODES = 2**15
#: the terms a sweep sums over the axes, numbered as in (D1, L_axis)
_GRAD_SQ, _LAP = 0, 1


def _fd_weights(x0: float, xs: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for d^order/dx^order at x0 on nodes xs
    (exact for polynomials up to degree len(xs)-1)."""
    m = len(xs)
    A = np.vander(xs - x0, m, increasing=True).T
    rhs = np.zeros(m)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(A, rhs)


def _axis_stencils(nodes: np.ndarray, c: float, axis_ghost: bool) -> tuple:
    """(D1, L_axis) of one radial direction, L_axis = D2 + diag(c/x) D1
    (c = a on rho and b on r), each as (p, q, head, tail): interior row i
    is p[i-1] (u[i+1] - u[i]) + q[i-1] (u[i] - u[i-1]), the closed-form
    3-point weights (Fornberg, Math. Comp. 51, 1988); row 0 weights the
    first nodes by head, with an even-reflection ghost on axis-adjacent
    grids and one-sided on window grids, and row m-1 the last four by tail.
    """
    x = np.asarray(nodes, dtype=float)
    if x.size < 3:
        raise GridError("need at least 3 nodes per active dimension")
    h1, h2 = x[1:-1] - x[:-2], x[2:] - x[1:-1]
    h12 = h1 + h2
    edges = []
    for order in (1, 2):
        if axis_ghost:
            # ghost at -x0 carries the value at x0
            w = _fd_weights(x[0], np.array([-x[0], x[0], x[1]]), order)
            head = np.array([w[0] + w[1], w[2]])
        else:
            head = _fd_weights(x[0], x[:4], order)
        edges.append((head, _fd_weights(x[-1], x[-4:], order)))
    (head1, tail1), (head2, tail2) = edges
    p1, q1 = h1 / (h2 * h12), h2 / (h1 * h12)
    drift = c / x
    return ((p1, q1, head1, tail1),
            (2.0 / (h2 * h12) + drift[1:-1] * p1, -2.0 / (h1 * h12) + drift[1:-1] * q1,
             head2 + drift[0] * head1, tail2 + drift[-1] * tail1))


def _per_node(coef: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """A 1-D array of per-node coefficients along one axis, shaped to
    broadcast against the grid's values."""
    return coef.reshape((-1,) + (1,) * (ndim - 1 - axis))


def _lead_rows(stencils, u: np.ndarray, lo: int, hi: int, outs, work) -> None:
    """Rows lo..hi-1 of each stencil along the leading axis of u, into
    ``outs``; ``work`` holds two scratch arrays of hi - lo + 1 rows."""
    m = u.shape[0]
    a, b = max(lo - 1, 0), min(hi + 1, m)
    i0, i1 = max(lo, 1), min(hi, m - 1)
    diff = np.subtract(u[a + 1:b], u[a:b - 1], out=work[0][:b - a - 1])
    for (p, q, head, tail), out in zip(stencils, outs):
        interior = out[i0 - lo:i1 - lo]
        np.multiply(_per_node(p[i0 - 1:i1 - 1], 0, u.ndim), diff[i0 - a:i1 - a], out=interior)
        interior += np.multiply(_per_node(q[i0 - 1:i1 - 1], 0, u.ndim),
                                diff[i0 - a - 1:i1 - a - 1], out=work[1][:i1 - i0])
        if lo == 0:
            out[0] = head @ u[:head.size]
        if hi == m:
            out[-1] = tail @ u[m - tail.size:]


def _trail_rows(stencils, tiled, block: np.ndarray, outs, work) -> None:
    """Each stencil along the trailing axis of a block of rows, into
    ``outs``.  The block is swept as one flat array, with each stencil's
    (p, q) in ``tiled`` row after row, 0 at the row ends; the first and
    last column, where the sweep mixes two rows, then get the edge rows."""
    n = block.size
    diff = work[0][:n + 1]
    np.subtract(block.reshape(-1)[1:], block.reshape(-1)[:-1], out=diff[1:n])
    diff[0] = diff[n] = 0.0
    for (_, _, head, tail), (p, q), out in zip(stencils, tiled, outs):
        flat = out.reshape(-1)
        np.multiply(p[:n], diff[1:], out=flat)
        flat += np.multiply(q[:n], diff[:-1], out=work[1][:n])
        out[:, 0] = block[:, :head.size] @ head
        out[:, -1] = block[:, -tail.size:] @ tail


def _row_blocks(grid: CylGrid, terms: tuple):
    """Yield (rows, sums) for blocks of whole leading-axis rows: sums[j]
    is terms[j], (D1 U)^2 for _GRAD_SQ or L_axis U for _LAP, summed over
    the active axes on those rows.  The sweep allocates its arrays once,
    so each block overwrites the arrays yielded for the last one."""
    u = grid.values
    m, width = u.shape[0], u[0].size
    step = min(m, max(1, _BLOCK_NODES // width))
    lead, *trail = [[pair[t] for t in terms] for pair in
                    (_axis_stencils(nodes, c, grid.axis_ghost) for nodes, c in grid.axes)]
    sums = np.empty((1 + len(trail), len(terms), step) + u.shape[1:])
    work = np.empty((2, (step + 1) * width + 1))
    lead_work = work[:, :(step + 1) * width].reshape((2, step + 1) + u.shape[1:])
    tiled = [[np.tile(np.pad(coef, 1), step) for coef in st[:2]]
             for axis in trail for st in axis]
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        blocks = sums[:, :, :hi - lo]
        _lead_rows(lead, u, lo, hi, blocks[0], lead_work)
        if trail:
            _trail_rows(trail[0], tiled, u[lo:hi], blocks[1], work)
        if _GRAD_SQ in terms:
            grad = blocks[:, terms.index(_GRAD_SQ)]
            np.square(grad, out=grad)
        for other in blocks[1:]:
            blocks[0] += other
        yield slice(lo, hi), blocks[0]


def cyl_laplacian(grid: CylGrid) -> CylGrid:
    """Apply L = d_rho_rho + (a/rho) d_rho + d_rr + (b/r) d_r to the grid."""
    out = np.empty_like(grid.values)
    for rows, (lap,) in _row_blocks(grid, (_LAP,)):
        out[rows] = lap
    return grid.with_values(_Owned(out))


def gradient_energy(grid: CylGrid) -> float:
    """Weighted Dirichlet (p = 2) energy

        sigma_k sigma_(n-k) * double sum of |grad U|^2 rho^(k-1) r^(n-k-1)

    over the grid's cell measure; |grad U|^2 = U_rho^2 + U_r^2.
    """
    measure = grid.measure()
    return sum(float(np.sum(measure[rows] * grad_sq))
               for rows, (grad_sq,) in _row_blocks(grid, (_GRAD_SQ,)))


def _nonpositive(u: np.ndarray) -> bool:
    """Whether some entry of u is <= 0, as ``np.any(u <= 0.0)`` decides
    (nan is not), by a reduction in place of a full-size mask."""
    return bool(np.fmin.reduce(u, axis=None) <= 0.0)


def el_residual(grid: CylGrid, Lambda: float, s: float) -> CylGrid:
    """Residual of the constrained-minimiser equation at the grid values:

        L U + Lambda rho^(-s) U^(q-1),   q = 2(n-s)/(n-2).

    Vanishes (to truncation error) exactly when U solves
    Delta U = -Lambda |x|^(-s) U^(q-1).
    """
    u = grid.values
    if _nonpositive(u):
        raise ParameterDomainError("el_residual requires strictly positive values")
    q = hs_conjugate(2.0, s, grid.n)
    coef = _per_node(require_real(Lambda, "Lambda") * grid.rho_nodes ** (-s), 0, u.ndim)
    out = np.empty_like(u)
    for rows, (lap,) in _row_blocks(grid, (_LAP,)):
        out[rows] = lap + coef[rows] * u[rows] ** (q - 1.0)
    return grid.with_values(_Owned(out))


def shifted_quadratic_residual(phi_grid: CylGrid, params) -> CylGrid:
    """Residual of the quadratic-solution equation at the grid values:

        L phi - (n/2) |grad phi|^2 / phi
              - 2 a lam^2 alpha / rho - 2 b lam^2 beta / r,

    where L carries the drift coefficients a, b of ``params`` (the grid's
    split must agree with them) and n = a + b + 2.
    """
    u = phi_grid.values
    if _nonpositive(u):
        raise ParameterDomainError("shifted_quadratic_residual requires strictly positive values")
    if (phi_grid.a, phi_grid.b) != (params.a, params.b):
        raise ParameterDomainError(
            f"grid split (a={phi_grid.a}, b={phi_grid.b}) does not match "
            f"params (a={params.a}, b={params.b})"
        )
    shifts = [_per_node(2.0 * c * params.lam**2 * shift / nodes, axis, u.ndim)
              for axis, ((nodes, c), shift)
              in enumerate(zip(phi_grid.axes, (params.alpha, params.beta)))]
    out = np.empty_like(u)
    for rows, (grad_sq, lap) in _row_blocks(phi_grid, (_GRAD_SQ, _LAP)):
        res = out[rows]
        grad_sq *= 0.5 * params.n
        np.subtract(lap, np.divide(grad_sq, u[rows], out=grad_sq), out=res)
        for axis, shift in enumerate(shifts):
            res -= shift[rows] if axis == 0 else shift
    return phi_grid.with_values(_Owned(out))


# ---------------------------------------------------------------------------
# Grid dumps
# ---------------------------------------------------------------------------

_DUMP_BLOCK_ROWS = 4096


def dump_grid(grid: CylGrid, path) -> None:
    """Write the grid as a comma-separated table with header rho,r,value.

    Floats are printed with 17 significant digits so a reload is
    bit-exact; a leading comment line carries (n, k, grading).  The rows
    run over the rho nodes, and within each over the r nodes; a 1-D grid
    has the one r value 0, so its rows are (rho_i, 0, value_i).  The rows
    are the bytes ``np.savetxt`` writes with fmt "%.17g" and delimiter
    ",".  Each rho and r node is formatted once, into a template for a
    block of whole rho rows, and the values fill it one block at a time.
    """
    rho_text = ["%.17g" % x for x in grid.rho_nodes.tolist()]
    # each row is its rho text, then ",<r>,%.17g\n"; a 1-D grid's one r is 0
    tails = [",%.17g,%%.17g\n" % x for x in (grid.r_nodes.tolist() or [0.0])]
    values = grid.values.reshape(len(rho_text), len(tails))
    # blocks of whole rho rows, at most _DUMP_BLOCK_ROWS table rows or one
    # rho row: the text of a whole large grid at once would raise the peak memory
    step = max(1, _DUMP_BLOCK_ROWS // len(tails))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# hscyl-grid n={grid.n} k={grid.k} grading={grid.grading:.17g} "
                 f"axis_ghost={int(grid.axis_ghost)}\n")
        fh.write("rho,r,value\n")
        for start in range(0, len(rho_text), step):
            template = "".join(rho + rho.join(tails) for rho in rho_text[start:start + step])
            fh.write(template % tuple(values[start:start + step].ravel().tolist()))


def load_grid(path) -> CylGrid:
    """Read a grid written by :func:`dump_grid` (bit-exact round trip).

    The rows must fill the tensor table of their rho and r values once
    each.  A 1-D dump is the table with the one r value 0, which is no r
    node; a table whose r values do not fit k is a GridError.
    """
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline()
        meta = (dict(token.split("=", 1) for token in first[1:].split() if "=" in token)
                if first.startswith("#") else {})
        try:
            n, k = require_split(int(meta["n"]), int(meta["k"]))
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
    r, j = np.unique(table[:, 1], return_inverse=True)
    shape = _values_shape(n, k, rho.size, r.size)
    # the rows in row-major order of their (rho, r) cells, each cell once
    order = np.unique(i * r.size + j, return_index=True)[1]
    if not len(table) == rho.size * r.size == math.prod(shape) == order.size:
        raise GridError("grid dump is not a full tensor table")
    # a fresh column, but outside input: checked, not copied
    return CylGrid(n, k, rho, r[r != 0.0], _Owned(_finite(table[order, 2].reshape(shape))),
                   grading, ghost)
