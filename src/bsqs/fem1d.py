"""1D vertical finite elements: uniform meshes on (0,1) or (-1,0), quadratic
(P2) and linear (P1) nodal bases, and exactly-integrated element matrices.

Velocity/displacement components use P2, pressures use P1 (a Taylor-Hood-type
pairing per Fourier mode).  Both meshes place nodes exactly at the interface
x3 = 0, so interface terms are point evaluations with no interpolation error.

Every vertical form is one cell matrix summed over the cells of the uniform
mesh, by assemble() alone, into a read-only sparse CSR matrix: none is ever an
(n_nodes x n_nodes) array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse

from .config import BIOT_X3, FLUID_X3

# 3-point Gauss-Legendre on [0,1]: exact through polynomial degree 5,
# enough for P2 x P2 mass entries (degree 4).
_GQ_X = np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10])
_GQ_W = np.array([5.0, 8.0, 5.0]) / 18.0


def _p2_shapes(x):
    """P2 shape functions and derivatives on the reference cell [0,1]."""
    n = np.stack([(1 - x) * (1 - 2 * x), 4 * x * (1 - x), x * (2 * x - 1)])
    d = np.stack([4 * x - 3, 4 - 8 * x, 4 * x - 1])
    return n, d


def _p1_shapes(x):
    n = np.stack([1 - x, x])
    d = np.stack([-np.ones_like(x), np.ones_like(x)])
    return n, d


_SHAPES = {2: _p2_shapes, 1: _p1_shapes}
_LOCAL_NODES = {2: 3, 1: 2}


@dataclass(frozen=True)
class VerticalMesh:
    """Uniform vertical mesh on one box.  box is "biot" ((0,1), essential
    constraints at the top x3=1) or "fluid" ((-1,0), essential constraint at
    the bottom x3=-1)."""

    box: str
    ncells: int

    def __post_init__(self):
        if self.box not in ("biot", "fluid"):
            raise ValueError(f"unknown box {self.box!r}")
        if self.ncells < 2:
            raise ValueError("need at least 2 vertical cells")

    @property
    def span(self):
        return BIOT_X3 if self.box == "biot" else FLUID_X3

    @property
    def h(self):
        lo, hi = self.span
        return (hi - lo) / self.ncells

    def nodes(self, degree):
        """Node coordinates, ascending in x3."""
        lo, hi = self.span
        return np.linspace(lo, hi, degree * self.ncells + 1)

    def n_nodes(self, degree):
        return degree * self.ncells + 1

    def interface_node(self, degree):
        """Index of the node at x3 = 0."""
        return 0 if self.box == "biot" else degree * self.ncells

    def clamped_node(self, degree):
        """Index of the essentially-constrained boundary node (Gamma_b or Gamma_f)."""
        return degree * self.ncells if self.box == "biot" else 0

    def free_mask(self, degree):
        mask = np.ones(self.n_nodes(degree), dtype=bool)
        mask[self.clamped_node(degree)] = False
        return mask

    def free_position(self, degree):
        """Position of each node among the free nodes in node order, -1 for
        the clamped node: the band order of a single free field."""
        free = self.free_mask(degree)
        return np.where(free, np.cumsum(free) - 1, -1)

    def cell_dofs(self, degree, cell):
        start = degree * cell
        return np.arange(start, start + degree + 1)


def cell_matrix(mesh: VerticalMesh, deg_test: int, deg_trial: int,
                d_test: int, d_trial: int) -> np.ndarray:
    """The matrix of  integral( D^{d_trial} phi_j  *  D^{d_test} psi_i )  over
    one cell, the same on every cell of the uniform mesh."""
    h = mesh.h
    nt, dt_ = _SHAPES[deg_test](_GQ_X)
    ntr, dtr = _SHAPES[deg_trial](_GQ_X)
    test = dt_ / h if d_test else nt
    trial = dtr / h if d_trial else ntr
    return h * np.einsum("q,iq,jq->ij", _GQ_W, test, trial)


def assemble(mesh: VerticalMesh, deg_test: int, deg_trial: int,
             cells) -> scipy.sparse.csr_matrix:
    """A uniform cell matrix summed over the cells, as a read-only CSR
    matrix with degree-deg_test rows and degree-deg_trial columns.

    cells is one cell matrix, or an (R, C, ...) grid of them whose block
    (r, c) couples test component r to trial component c on component-major
    profiles.  Each entry sums its cells' terms in cell order, and exact
    zeros are not stored."""
    cells = np.asarray(cells)
    if cells.ndim == 2:
        cells = cells[None, None]
    nr, nc, a, b = cells.shape
    rows = (np.arange(nr)[:, None, None] * mesh.n_nodes(deg_test)
            + deg_test * np.arange(mesh.ncells)[:, None] + np.arange(a))
    cols = (np.arange(nc)[:, None, None] * mesh.n_nodes(deg_trial)
            + deg_trial * np.arange(mesh.ncells)[:, None] + np.arange(b))
    shape = (nr * mesh.n_nodes(deg_test), nc * mesh.n_nodes(deg_trial))
    # row-major keys of the (r, c, cell, i, j) terms; a stable sort keeps
    # the terms of one entry in cell order
    keys = (rows[:, None, :, :, None] * shape[1]
            + cols[None, :, :, None, :]).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat(np.broadcast_to(
        cells[:, :, None], (nr, nc, mesh.ncells, a, b)).ravel()[order], start)
    stored = sums != 0
    row, col = np.divmod(keys[start[stored]], shape[1])
    out = scipy.sparse.csr_matrix(
        (sums[stored], col.astype(np.int32),
         np.searchsorted(row, np.arange(shape[0] + 1)).astype(np.int32)),
        shape=shape)
    for arr in (out.data, out.indices, out.indptr):
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def operator_matrix(mesh: VerticalMesh, deg_test: int, deg_trial: int,
                    d_test: int, d_trial: int, ncomp: int = 1
                    ) -> scipy.sparse.csr_matrix:
    """Global matrix of  integral( D^{d_trial} phi_j  *  D^{d_test} psi_i )
    over the mesh, with psi in the degree-deg_test space (rows) and phi in the
    degree-deg_trial space (columns), in each diagonal block of `ncomp`
    components' profiles.  A shared read-only real CSR matrix."""
    cell = cell_matrix(mesh, deg_test, deg_trial, d_test, d_trial)
    return assemble(mesh, deg_test, deg_trial,
                    np.eye(ncomp)[:, :, None, None] * cell)


def mass(mesh, degree=2, ncomp=1):
    """The mass (Gram) matrix of `ncomp` degree-`degree` components."""
    return operator_matrix(mesh, degree, degree, 0, 0, ncomp)


def stiffness(mesh, degree=2):
    return operator_matrix(mesh, degree, degree, 1, 1)


def d_trial(mesh, degree=2):
    """integral( phi_j' psi_i ) on one space: trial derivative, test value."""
    return operator_matrix(mesh, degree, degree, 0, 1)


def mixed_mass(mesh):
    """integral( phi_j^{P2} psi_i^{P1} ): P1 test rows, P2 trial columns."""
    return operator_matrix(mesh, 1, 2, 0, 0)


def mixed_div(mesh):
    """integral( (phi_j^{P2})' psi_i^{P1} ): P1 test rows, P2 trial columns."""
    return operator_matrix(mesh, 1, 2, 0, 1)


def quadrature_points(mesh):
    """All Gauss point coordinates, cell-major: shape (ncells * 3,)."""
    lo, _ = mesh.span
    cells = lo + mesh.h * np.arange(mesh.ncells)
    return (cells[:, None] + mesh.h * _GQ_X[None, :]).ravel()


@lru_cache(maxsize=None)
def load_matrix(mesh, degree):
    """Matrix Q with  load_i = integral( f phi_i ) = (Q @ f(quadrature_points))_i
    exact for f polynomial up to degree 5 - degree per cell."""
    n, _ = _SHAPES[degree](_GQ_X)
    rows = mesh.n_nodes(degree)
    out = np.zeros((rows, mesh.ncells * 3))
    for c in range(mesh.ncells):
        ri = mesh.cell_dofs(degree, c)
        out[np.ix_(ri, np.arange(3 * c, 3 * c + 3))] = mesh.h * _GQ_W * n
    out.setflags(write=False)
    return out


def evaluate(mesh, degree, coeffs, x):
    """Evaluate a FE function (nodal coefficients, possibly complex) at
    points x inside the mesh span."""
    lo, hi = mesh.span
    x = np.asarray(x, dtype=float)
    cell = np.clip(((x - lo) / mesh.h).astype(int), 0, mesh.ncells - 1)
    xi = (x - (lo + cell * mesh.h)) / mesh.h
    shapes, _ = _SHAPES[degree](xi)
    idx = np.stack([mesh.cell_dofs(degree, c) for c in np.atleast_1d(cell)], axis=1)
    vals = np.einsum("ip,ip->p", shapes.reshape(degree + 1, -1),
                     np.asarray(coeffs)[idx])
    return vals.reshape(np.shape(x)) if np.ndim(x) else vals[0]


def evaluate_derivative(mesh, degree, coeffs, x, order=1):
    """One-sided derivative of a FE function at points x (element polynomial)."""
    lo, hi = mesh.span
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cell = np.clip(((x - lo) / mesh.h * (1 - 1e-12)).astype(int), 0, mesh.ncells - 1)
    xi = (x - (lo + cell * mesh.h)) / mesh.h
    coeffs = np.asarray(coeffs)
    out = np.zeros(x.shape, dtype=coeffs.dtype)
    for p, (c, s) in enumerate(zip(cell, xi)):
        dofs = mesh.cell_dofs(degree, c)
        local = coeffs[dofs]
        if order == 1:
            _, d = _SHAPES[degree](np.array([s]))
            out[p] = (d[:, 0] @ local) / mesh.h
        elif order == 2:
            if degree != 2:
                raise ValueError("second derivatives need P2")
            # P2 second derivative is constant per cell: shapes'' = (4, -8, 4)
            out[p] = (np.array([4.0, -8.0, 4.0]) @ local) / mesh.h ** 2
        else:
            raise ValueError(f"unsupported derivative order {order}")
    return out[0] if scalar else out
