"""Per-Fourier-mode assembly and solution of one implicit-Euler step of the
coupled Biot-Stokes weak formulation, plus the discrete dynamics generator.

For a lateral mode (k1, k2) the lateral derivatives become multiplication by
i*2*pi*k1 and i*2*pi*k2, and all interface integrals reduce to point
evaluations at x3 = 0.  Unknowns per mode: displacement u (3 x P2 on the Biot
box, clamped at x3=1), pore pressure p (P1 Biot, zero at x3=1), fluid
velocity v (3 x P2 on the fluid box, clamped at x3=-1), and fluid pressure
p_f (P1 fluid, unconstrained).  The elastic velocity w is eliminated
algebraically (w^{n+1} = (u^{n+1} - u^n)/dt) when rho_b > 0.

The free DOFs are ordered node by node in x3 (see Layout.free_indices), so
each mode's step matrix is banded with a half-bandwidth that does not grow
with the mesh.  It is stored in O(N) memory and factored with LAPACK's band
LU.  In the frame of its wave vector (Layout.rotate) a mode's step matrix
depends only on |k|, so one factorization serves every mode with the same
k1^2 + k2^2 (ModeOperator, wave_frames).  There, with a factor i on the
longitudinal components, the forms are real (frame_split); the energy norms
and the audit's dual source norms use that frame.

BandForm is the product's one band solve path: the step matrix, the audit's
dual source norms and the initial pressure projection are each assembled,
factored and solved through one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse

from .config import PhysicalParams
from .errors import DegenerateParams, MeshMismatch, SingularSystem, TooLarge
from .fem1d import (VerticalMesh, assemble, cell_matrix, d_trial, mass,
                    mixed_div, mixed_mass, stiffness)
from .spectral import ModeIndex, signed_k2

TWO_PI = 2.0 * np.pi

# element degree of each slot (u1, u2, u3, p, v1, v2, v3, pf) of the
# per-mode vector: P2 displacements and velocities, P1 pressures
DEGREES = (2, 2, 2, 1, 2, 2, 2, 1)


@dataclass(frozen=True)
class Layout:
    """DOF bookkeeping for one mode system (mode independent)."""

    mb: VerticalMesh
    mf: VerticalMesh

    @property
    def full_sizes(self):
        nbu = self.mb.n_nodes(2)
        nbp = self.mb.n_nodes(1)
        nfu = self.mf.n_nodes(2)
        nfp = self.mf.n_nodes(1)
        return (nbu, nbu, nbu, nbp, nfu, nfu, nfu, nfp)

    @cached_property
    def free_masks(self):
        ub = self.mb.free_mask(2)
        pb = self.mb.free_mask(1)
        vf = self.mf.free_mask(2)
        pf = np.ones(self.mf.n_nodes(1), dtype=bool)
        return (ub, ub, ub, pb, vf, vf, vf, pf)

    @cached_property
    def n_free(self):
        return sum(int(m.sum()) for m in self.free_masks)

    def free_indices(self):
        """Indices of free DOFs within the concatenated full-node vector, in
        node-interleaved order: ascending x3 from the fluid bottom through
        the interface (fluid DOFs before Biot DOFs at x3 = 0) to the Biot top,
        with all fields of one node together in slot order.  A coupling then
        spans at most one element of one box, or the interface, so the step
        matrix is banded.  The returned array is shared; do not modify it."""
        return self._free_order

    @cached_property
    def _free_order(self):
        box, pos, slot = [], [], []
        for s, (size, deg) in enumerate(zip(self.full_sizes, DEGREES)):
            box.append(np.full(size, s < 4))  # slots 0-3 are Biot: sort last
            pos.append(np.arange(size) * (2 // deg))      # in half-cells
            slot.append(np.full(size, s))
        order = np.lexsort((np.concatenate(slot), np.concatenate(pos),
                            np.concatenate(box)))
        order = order[np.concatenate(self.free_masks)[order]]
        order.setflags(write=False)
        return order

    @cached_property
    def free_position(self):
        """Position of each full-vector DOF in the free-DOF vector (-1 for a
        constrained one).  The returned array is shared and read-only."""
        position = np.full(sum(self.full_sizes), -1)
        position[self.free_indices()] = np.arange(self.n_free)
        position.setflags(write=False)
        return position

    @cached_property
    def tangential_pairs(self):
        """Free-DOF positions of the u1 and v1 DOFs and, at the same nodes,
        of the u2 and v2 DOFs: the pairs a turn of the lateral frame mixes."""
        offs = self.full_offsets()
        ub = np.flatnonzero(self.free_masks[0])
        vf = np.flatnonzero(self.free_masks[4])
        return tuple(self.free_position[np.concatenate([offs[a] + ub,
                                                        offs[b] + vf])]
                     for a, b in ((0, 4), (1, 5)))

    def rotate(self, x, c, s):
        """Free-DOF rows x (rows, n_free) with their tangential pairs turned
        into the frame (c, s) of each row: u_L = c u1 + s u2 and
        u_T = c u2 - s u1, and v alike; the frame (c, -s) turns them back."""
        first, second = self.tangential_pairs
        a, b = x[:, first], x[:, second]
        out = x.copy()
        out[:, first] = c[:, None] * a + s[:, None] * b
        out[:, second] = c[:, None] * b - s[:, None] * a
        return out

    def full_offsets(self):
        offs, off = [], 0
        for size in self.full_sizes:
            offs.append(off)
            off += size
        return offs

    def pack(self, u, p, v, pf=None):
        """Full-node arrays -> concatenated full vectors (..., n_full), with
        any leading axes (one per mode, say) kept; pf None means zero."""
        lead = np.shape(p)[:-1]
        if pf is None:
            pf = np.zeros(lead + (self.full_sizes[-1],), dtype=complex)
        return np.concatenate([np.reshape(u, lead + (-1,)), p,
                               np.reshape(v, lead + (-1,)), pf], axis=-1)

    def unpack(self, x_free):
        """Free-DOF solution vectors (..., n_free) -> full nodal arrays
        u (..., 3, nbu), p (..., nbp), v (..., 3, nfu), pf (..., nfp), with
        any leading axes (one per mode, say) kept."""
        lead = x_free.shape[:-1]
        full = np.zeros(lead + (sum(self.full_sizes),), dtype=complex)
        full[..., self.free_indices()] = x_free
        offs = self.full_offsets() + [full.shape[-1]]
        u, p, v, pf = (np.ascontiguousarray(full[..., offs[a]:offs[b]])
                       for a, b in ((0, 3), (3, 4), (4, 7), (7, 8)))
        return (u.reshape(lead + (3, -1)), p, v.reshape(lead + (3, -1)), pf)


def elastic_blocks(kap1, kap2, M, K, Ct, mu, lam):
    """3x3 block grid of the stress-strain sesquilinear form a_E with lateral
    Fourier symbols: 2*mu*(D(u), D(xi)) + lam*(div u, div xi).

    The Stokes viscous form 2*nu*(D(v), D(zeta)) is the same grid with
    mu -> nu, lam -> 0.  Ct[i, j] = integral(phi_j' phi_i); Cg = Ct^T.
    """
    Cg = Ct.T
    k1s, k2s = kap1 * kap1, kap2 * kap2
    B = np.empty((3, 3), dtype=object)
    B[0, 0] = (2 * mu * k1s + mu * k2s + lam * k1s) * M + mu * K
    B[1, 1] = (2 * mu * k2s + mu * k1s + lam * k2s) * M + mu * K
    B[2, 2] = (2 * mu + lam) * K + mu * (k1s + k2s) * M
    B[0, 1] = B[1, 0] = (mu + lam) * kap1 * kap2 * M
    B[0, 2] = 1j * kap1 * (mu * Cg - lam * Ct)
    B[1, 2] = 1j * kap2 * (mu * Cg - lam * Ct)
    B[2, 0] = 1j * kap1 * (lam * Cg - mu * Ct)
    B[2, 1] = 1j * kap2 * (lam * Cg - mu * Ct)
    return B


@lru_cache(maxsize=None)
def _mats(mesh: VerticalMesh):
    return {
        "M": mass(mesh, 2), "K": stiffness(mesh, 2), "Ct": d_trial(mesh, 2),
        "Mp": mass(mesh, 1), "Kp": stiffness(mesh, 1),
        "Mm": mixed_mass(mesh), "Cm": mixed_div(mesh),
    }


def _symbols(mode):
    k1, k2 = mode
    return TWO_PI * k1, TWO_PI * k2


def wave_frames(modes):
    """Group modes by k1^2 + k2^2 and give each the frame of its wave vector.

    Returns (first, shell, c, s): the index of the first mode of each distinct
    |k|^2, the group of each mode, and each mode's frame (c, s) = k / |k|,
    which is (1, 0) at k = 0."""
    k = np.array(modes, dtype=float).reshape(-1, 2)
    _, first, shell = np.unique((k * k).sum(axis=1), return_index=True,
                                return_inverse=True)
    r = np.hypot(k[:, 0], k[:, 1])
    safe = np.where(r > 0, r, 1.0)
    return first, shell, np.where(r > 0, k[:, 0] / safe, 1.0), k[:, 1] / safe


# Powers of (kap1, kap2) of the monomials every form is a combination of:
# A(kap) = sum over m of kap1**m[0] * kap2**m[1] * A_m.
MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1))


def monomial_weights(kap1, kap2):
    """kap1**i * kap2**j for each (i, j) in MONOMIALS, stacked on a new last
    axis; kap1 and kap2 may be scalars or arrays of symbols."""
    return np.stack([kap1**i * kap2**j for i, j in MONOMIALS], axis=-1)


def dense_split(split, rows, cols):
    """A split's matrices on `rows` x `cols` (index arrays or slices), stacked
    dense as (len(MONOMIALS), rows, cols): the form at the symbols
    (kap1, kap2) is np.tensordot(monomial_weights(kap1, kap2), this, 1)."""
    return np.stack([S[rows][:, cols].toarray() for S in split])


@lru_cache(maxsize=None)
def elastic_split(mesh: VerticalMesh, mu: float, lam: float):
    """The coefficients A_m of the elastic block grid, A(kap) = sum over
    MONOMIALS of kap1**m[0] * kap2**m[1] * A_m, as sparse CSR matrices on the
    component-major (3 * n_nodes) profile of a P2 vector field.

    Each A_m is elastic_blocks at unit symbols with only the cell matrices
    of the monomial's degree kept, summed over the cells, so the split is
    exact; kap1*kap2 is the half-difference of the (1, 1) and (1, -1)
    evaluations.  The result is shared and read-only."""
    cells = {"M": cell_matrix(mesh, 2, 2, 0, 0),
             "K": cell_matrix(mesh, 2, 2, 1, 1),
             "Ct": cell_matrix(mesh, 2, 2, 0, 1)}
    # powers of the symbols each vertical matrix carries in the form: M
    # pairs two lateral derivatives, Ct one, K none
    degree_of = {"M": 2, "Ct": 1, "K": 0}
    # (kap1, kap2, degree) of the evaluations, in MONOMIALS order but for
    # the last two, which give kap1*kap2
    evaluations = ((0.0, 0.0, 0), (1.0, 0.0, 1), (0.0, 1.0, 1),
                   (1.0, 0.0, 2), (0.0, 1.0, 2), (1.0, 1.0, 2), (1.0, -1.0, 2))
    grids = []
    for kap1, kap2, degree in evaluations:
        g = {k: cells[k] if d == degree else np.zeros_like(cells[k])
             for k, d in degree_of.items()}
        B = elastic_blocks(kap1, kap2, g["M"], g["K"], g["Ct"], mu, lam)
        grids.append(np.array(B.tolist(), dtype=complex))
    return tuple(assemble(mesh, 2, 2, g)
                 for g in grids[:5] + [(grids[5] - grids[6]) / 2])


def _split(mesh, deg_test, deg_trial, parts):
    """A split's complex CSR matrices over MONOMIALS: the cell block grids
    `parts` of the monomials it holds, assembled, and zero elsewhere."""
    zero = np.zeros_like(next(iter(parts.values())), dtype=complex)
    empty = assemble(mesh, deg_test, deg_trial, zero)
    return tuple(assemble(mesh, deg_test, deg_trial,
                          np.asarray(parts[k], dtype=complex))
                 if k in parts else empty for k in MONOMIALS)


@lru_cache(maxsize=None)
def divergence_split(mesh: VerticalMesh):
    """The (div u, q) pairing split over MONOMIALS as elastic_split splits
    a_E, with P1 test rows and component-major P2 trial columns: i*Mm on u1
    at (1, 0), i*Mm on u2 at (0, 1), Cm on u3 at (0, 0), zero elsewhere.
    The result is shared; do not modify it."""
    Mm, Cm = cell_matrix(mesh, 1, 2, 0, 0), cell_matrix(mesh, 1, 2, 0, 1)
    Z = np.zeros_like(Mm)
    return _split(mesh, 1, 2, {(0, 0): [[Z, Z, Cm]], (1, 0): [[1j * Mm, Z, Z]],
                               (0, 1): [[Z, 1j * Mm, Z]]})


@lru_cache(maxsize=None)
def darcy_split(mesh: VerticalMesh):
    """The Darcy form (grad p, grad q), without the permeability, split over
    MONOMIALS on P1 profiles: Kp at (0, 0), Mp at (2, 0) and (0, 2), zero
    elsewhere.  The result is shared; do not modify it."""
    Mp = cell_matrix(mesh, 1, 1, 0, 0)
    return _split(mesh, 1, 1, {(0, 0): cell_matrix(mesh, 1, 1, 1, 1),
                               (2, 0): Mp, (0, 2): Mp})


def _coo(A):
    """(rows, cols, values) of the stored entries of the CSR matrix A."""
    return (np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)), A.indices,
            A.data)


@lru_cache(maxsize=None)
def _entries(split, *args):
    """(rows, cols, values) of the stored entries of each CSR matrix of the
    split split(*args), read once; the arrays are shared."""
    return tuple(map(_coo, split(*args)))


# The monomials that survive at a frame symbol (kap, 0): the coefficients of
# 1, kap and kap**2 of a form there
FRAME_MONOMIALS = ((0, 0), (1, 0), (2, 0))


@lru_cache(maxsize=None)
def frame_split(split, mesh: VerticalMesh, *args):
    """The matrices of split(mesh, *args) at the frame symbols (kap, 0), as
    real CSR matrices on the split's rows and columns: the coefficients of
    1, kap and kap**2 (FRAME_MONOMIALS) with D^-1 A D applied, where D puts
    a factor i on the longitudinal (first) component of a P2 vector profile
    and 1 elsewhere.

    The forms are laterally isotropic, so at (kap, 0) each lateral
    derivative pairs the longitudinal component with the others by a factor
    i, which D absorbs: the imaginary parts vanish exactly.  A field z with
    longitudinal component -i times its frame-turned u_L then has
    Re(z^H A z) equal to the form of the field.  The result is shared and
    read-only."""
    nn = mesh.n_nodes(2)
    out = []
    for m in map(MONOMIALS.index, FRAME_MONOMIALS):
        A = split(mesh, *args)[m]
        rows, cols, values = _entries(split, mesh, *args)[m]
        # D^-1 = -i on the longitudinal rows, D = i on the longitudinal cols
        if A.shape[0] == 3 * nn:
            values = np.where(rows < nn, -1j * values, values)
        if A.shape[1] == 3 * nn:
            values = np.where(cols < nn, 1j * values, values)
        assert not np.any(values.imag), "frame matrix is not real"
        values = np.ascontiguousarray(values.real)
        values.setflags(write=False)
        out.append(scipy.sparse.csr_matrix((values, A.indices, A.indptr),
                                           shape=A.shape))
    return tuple(out)


def _step_entries(p, lay, dt, steady, m):
    """Entries (full-vector rows, cols, values, time parts) of the coefficient
    of MONOMIALS[m] in the step matrix, read from the splits of the forms;
    the symbol-free terms (inertia, storage, interface couplings) enter at
    m = 0, the monomial (0, 0).  An entry's time part is what the
    right-hand side also applies to the previous time level."""
    mb, mf = lay.mb, lay.mf
    offs = lay.full_offsets()
    ou, op, ov, opf = offs[0], offs[3], offs[4], offs[7]
    const = MONOMIALS[m] == (0, 0)
    rows, cols, vals, times = [], [], [], []

    def put(row, col, value, time=None):
        """time: the entries' time parts, or True when all of each is one."""
        rows.append(row)
        cols.append(col)
        vals.append(value)
        times.append(value if time is True else
                     np.zeros_like(value) if time is None else time)

    ub_if = [offs[a] + mb.interface_node(2) for a in range(3)]
    p_if = op + mb.interface_node(1)
    v_if = [offs[4 + a] + mf.interface_node(2) for a in range(3)]

    # --- E-rows: Biot momentum tested with xi ---
    r, c, e = _entries(elastic_split, mb, p.mu, p.lam)[m]
    kv = 0.0 if steady else p.delta / dt
    put(ou + r, ou + c, (1.0 + kv) * e, kv * e)
    if const and p.rho_b > 0 and not steady:
        r, c, mm = _coo(mass(mb, 2, 3))
        put(ou + r, ou + c, (p.rho_b / dt**2) * mm, True)
    # -alpha (p, div xi): Hermitian transpose of the divergence pairing
    rd, cd, d = _entries(divergence_split, mb)[m]
    put(ou + cd, op + rd, -p.alpha * np.conj(d))
    if const:
        # interface: -p(0) conj(xi3(0))
        put(ub_if[2], p_if, -1.0)
        # BJS slip: -beta (v_j(0) - Dt u_j(0)) conj(xi_j(0)), j = 1, 2
        for j in range(2):
            put(ub_if[j], v_if[j], -p.beta)
            if not steady:
                put(ub_if[j], ub_if[j], p.beta / dt, True)

    # --- D-row: fluid content balance tested with q ---
    r, c, k = _entries(darcy_split, mb)[m]
    put(op + r, op + c, p.k_perm * k)
    if not steady:
        if const and p.c0 > 0:
            r, c, mm = _coo(mass(mb, 1))
            put(op + r, op + c, (p.c0 / dt) * mm, True)
        put(op + rd, ou + cd, (p.alpha / dt) * d, True)
    if const:
        # interface: -(v3(0) - Dt u3(0)) conj(q(0))
        put(p_if, v_if[2], -1.0)
        if not steady:
            put(p_if, ub_if[2], 1.0 / dt, True)

    # --- F-rows: Stokes momentum tested with zeta ---
    r, c, e = _entries(elastic_split, mf, p.nu, 0.0)[m]
    put(ov + r, ov + c, e)
    if const and p.rho_f > 0 and not steady:
        r, c, mm = _coo(mass(mf, 2, 3))
        put(ov + r, ov + c, (p.rho_f / dt) * mm, True)
    rd, cd, d = _entries(divergence_split, mf)[m]
    put(ov + cd, opf + rd, -np.conj(d))
    if const:
        # interface: +p(0) conj(zeta3(0))
        put(v_if[2], p_if, 1.0)
        # BJS slip: +beta (v_j(0) - Dt u_j(0)) conj(zeta_j(0))
        for j in range(2):
            put(v_if[j], v_if[j], p.beta)
            if not steady:
                put(v_if[j], ub_if[j], -p.beta / dt, True)

    # --- C-row: incompressibility tested with q_f ---
    put(opf + rd, ov + cd, d)

    return (np.hstack(rows), np.hstack(cols), np.hstack(vals).astype(complex),
            np.hstack(times).astype(complex))


class BandForm:
    """A form sum over m of w_m A_m on n unknowns, on one sparsity pattern in
    band order, and the one band LU path of the product (LAPACK ?gbtrf /
    ?gbtrs, Anderson et al., LAPACK Users' Guide, 3rd ed., sec. 5.3.3).

    entries: per m, the (rows, cols, values) of A_m in a local index space
    that `position` maps to the band order (-1 drops a DOF); duplicates are
    summed in entry order.  The pattern is the union of the A_m, without the
    positions where every A_m is exactly zero.  Holds `values` (A_m on the
    pattern, one row per m), the read-only CSR `indices` and `indptr` of
    the pattern, the half-bandwidths kl, ku and `band_rows`, the row of each
    entry in band storage with kl rows of fill on top.  The LAPACK routines
    are those of the values' dtype (real or complex)."""

    def __init__(self, entries, position, n):
        keys, values = [], []
        for r, c, v in entries:
            r, c = position[r], position[c]
            keep = (r >= 0) & (c >= 0)
            keys.append(r[keep] * n + c[keep])
            values.append(v[keep])
        keys, slot = np.unique(np.concatenate(keys), return_inverse=True)
        coeffs = np.zeros((len(values), keys.size),
                          dtype=np.result_type(*values))
        start = 0
        for m, v in enumerate(values):
            np.add.at(coeffs[m], slot[start:start + v.size], v)
            start += v.size
        nonzero = np.any(coeffs != 0, axis=0)
        self.n = n
        self.values = coeffs[:, nonzero]
        rows, cols = np.divmod(keys[nonzero], n)      # row-major: CSR order
        self.indices = cols.astype(np.int32)
        self.indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
        # every csr() matrix shares the pattern: an in-place edit of one
        # (eliminate_zeros, say) raises instead of corrupting the others
        for a in (self.indices, self.indptr):
            a.setflags(write=False)
        self.kl = int((rows - cols).max(initial=0))
        self.ku = int((cols - rows).max(initial=0))
        self.band_rows = self.kl + self.ku + rows - cols
        self._gbtrf, self._gbtrs = scipy.linalg.get_lapack_funcs(
            ("gbtrf", "gbtrs"), dtype=self.values.dtype)

    def csr(self, weights):
        """sum over m of weights[m] A_m as a CSR matrix on the pattern."""
        return scipy.sparse.csr_matrix(
            (weights @ self.values, self.indices, self.indptr),
            shape=(self.n, self.n))

    def factor(self, data, mode):
        """Band LU (lu, piv) of the matrix with entries `data` on the pattern
        (CSR order, the data of csr()); a singular matrix raises
        SingularSystem naming `mode`."""
        band = np.zeros((2 * self.kl + self.ku + 1, self.n),
                        dtype=self.values.dtype, order="F")
        band[self.band_rows, self.indices] = data
        lu, piv, info = self._gbtrf(band, self.kl, self.ku, overwrite_ab=1)
        if info != 0:
            name = self._gbtrf.typecode + "gbtrf"
            raise SingularSystem(mode, f"band LU failed ({name} info {info})")
        return lu, piv

    def solve(self, lu, piv, rhs):
        """The solution of the factored system for rhs (n,) or (n, k)."""
        return self._gbtrs(lu, self.kl, self.ku, rhs, piv)[0]


class StepCoefficients:
    """The mode-independent part of the step matrix for one (params, meshes,
    dt): `form`, the BandForm of A(kap) = sum_m kap**m A_m over MONOMIALS on
    the free DOFs in Layout.free_indices order.

    Each A_m is assembled from the m-th matrices of the forms' splits
    (elastic_split, divergence_split, darcy_split), so the split is exact.

    The time terms of the same entries give the prior-level operator
    B(kap) = A(kap) - A_steady(kap), split the same way: `prior` holds each
    B_m as an (n_free, n_free) CSR matrix of its nonzero entries.
    """

    def __init__(self, p: PhysicalParams, mb: VerticalMesh, mf: VerticalMesh,
                 dt: float, steady: bool = False):
        if mb.box != "biot" or mf.box != "fluid":
            raise MeshMismatch("expected (biot, fluid) mesh pair")
        self.params = p
        self.dt = dt
        self.steady = steady
        self.layout = lay = Layout(mb, mf)
        parts = [_step_entries(p, lay, dt, steady, m)
                 for m in range(len(MONOMIALS))]
        self.form = BandForm([(r, c, v) for r, c, v, _ in parts],
                             lay.free_position, lay.n_free)
        time = BandForm([(r, c, t) for r, c, _, t in parts],
                        lay.free_position, lay.n_free)
        # copies: eliminate_zeros edits the pattern, which csr() shares
        self.prior = [time.csr(w).copy() for w in np.eye(len(MONOMIALS))]
        for B in self.prior:
            B.eliminate_zeros()


def build_step_matrix(mode, coeffs: StepCoefficients
                      ) -> scipy.sparse.csr_matrix:
    """The free-DOF system matrix A(k1, k2) of one implicit-Euler step for the
    wave vector mode = (k1, k2), a stored ModeIndex or the frame vector
    (|k|, 0) of one, in CSR form on the pattern of `coeffs.form` (rows and
    columns in Layout.free_indices order)."""
    return coeffs.form.csr(monomial_weights(*_symbols(mode)))


def divergence_modes(kap1, kap2, U, mesh: VerticalMesh):
    """divergence_split(mesh) at each mode's symbols applied to P2 vector
    profiles of many modes at once: U (modes, 3, n) with symbols kap1, kap2
    (modes,) -> (div u, q) rows (modes, nq)."""
    X = U.reshape(len(U), -1).T
    return sum(w[:, None] * (A @ X).T for w, A in zip(
        monomial_weights(kap1, kap2).T, divergence_split(mesh)) if A.nnz)


def mass_modes(U, mesh: VerticalMesh, degree: int):
    """U @ M.T for the mass matrix M of degree-`degree` profiles, per mode
    and component of U (modes, ncomp, n) or (modes, n)."""
    X = U.reshape(len(U), -1)
    G = mass(mesh, degree, X.shape[1] // mesh.n_nodes(degree))
    return (G @ X.T).T.reshape(U.shape)


def mode_symbols(modes):
    """Lateral symbols (2 pi k1, 2 pi k2) of a sequence of modes, as two
    arrays in the order given."""
    k = np.array(modes, dtype=float).reshape(-1, 2)
    return TWO_PI * k[:, 0], TWO_PI * k[:, 1]


def build_step_rhs(kap1, kap2, coeffs: StepCoefficients, prior=None,
                   sources=None, loads=None) -> np.ndarray:
    """Right-hand sides of the step systems of many modes at once, as a
    (modes, n_free) array in Layout.free_indices order.

    kap1, kap2: (modes,) lateral symbols.  Every other array is mode-major.
    prior: (u, w, p_b, v) of the previous time level with shapes
    (modes, 3, nbu), (modes, 3, nbu) or None when rho_b = 0, (modes, nbp) and
    (modes, 3, nfu); it enters as B(kap) x + (rho_b/dt) M w, with x its free
    DOFs and B the prior-level operator of `coeffs` (zero when steady).
    sources: (Fb, S, Ff) mode coefficients on the fields' nodal grids
    (multiplied by mass matrices here); loads: (Lb, LS, Lf) pre-integrated
    mode load vectors added verbatim; in both any entry may be None.
    """
    lay = coeffs.layout
    mb, mf = lay.mb, lay.mf
    offs = lay.full_offsets()
    nbu, nbp, nfu = lay.full_sizes[0], lay.full_sizes[3], lay.full_sizes[4]
    rhs = np.zeros((len(kap1), sum(lay.full_sizes)), dtype=complex)
    # views of the u, p and v slots of every mode
    ru = rhs[:, offs[0]:offs[3]].reshape(-1, 3, nbu)
    rp = rhs[:, offs[3]:offs[3] + nbp]
    rv = rhs[:, offs[4]:offs[7]].reshape(-1, 3, nfu)

    for view, (mesh, degree), source, load in zip(
            (ru, rp, rv), ((mb, 2), (mb, 1), (mf, 2)),
            sources or (None,) * 3, loads or (None,) * 3):
        if source is not None:
            view += mass_modes(source, mesh, degree)
        if load is not None:
            view += load

    if prior is not None:
        un, wn, pn, vn = prior
        if wn is not None and not coeffs.steady:
            ru += (coeffs.params.rho_b / coeffs.dt) * mass_modes(wn, mb, 2)

    rhs = rhs[:, lay.free_indices()]
    if prior is not None:
        # sum over MONOMIALS of kap**m * (B_m x), in (n_free, modes) layout
        x = np.ascontiguousarray(lay.pack(un, pn, vn)[:, lay.free_indices()].T)
        bx = np.zeros_like(x)
        for c, B in zip(monomial_weights(kap1, kap2).T, coeffs.prior):
            if B.nnz:
                bx += c * (B @ x)
        rhs += bx.T
    return rhs


class ModeOperator:
    """The step matrix of every mode with the |k|^2 of `mode`, in the frame of
    its wave vector: A(|k|, 0), factored once by the step's BandForm
    (coeffs.form) and reused every step.

    The solid and the fluid are laterally isotropic and the slip coefficient
    is a scalar, so A(k1, k2) = Q A(|k|, 0) Q^T exactly, with Q the turn of
    the (u1, u2) and (v1, v2) pairs by (k1, k2) / |k| (Layout.rotate).  Holds
    O(N) memory: the CSR matrix, which also serves the residual check, and
    the band LU factors with their pivots."""

    def __init__(self, mode: ModeIndex, coeffs: StepCoefficients):
        self.mode = mode
        self.layout = coeffs.layout
        self.form = coeffs.form
        self.matrix = build_step_matrix((float(np.hypot(*mode)), 0.0), coeffs)
        self.band_lu, self.piv = self.form.factor(self.matrix.data, mode)
        self.norm = np.linalg.norm(self.matrix.data)  # |A|_F, each entry once

    def step(self, rhs, modes=None):
        """Solve the frame system for free-DOF right-hand sides already turned
        into the frame: one vector (n_free,) or one per column (n_free, k).
        Returns (x, residual): the solutions, shaped as rhs, and each
        column's normwise backward error |A x - b| / (|A|_F |x| + |b|)
        (Higham, Accuracy and Stability, 7.1), which must not exceed 1e-11
        and which a backward stable solve meets at any conditioning; Q is
        orthogonal, so it equals the mode's own.  A column that fails raises
        SingularSystem naming its mode in `modes` (default: this operator's
        mode).  A zero column gives x = 0, residual 0."""
        x = self.form.solve(self.band_lu, self.piv, rhs)
        scale = self.norm * np.linalg.norm(x, axis=0) + np.linalg.norm(
            rhs, axis=0)
        res = np.linalg.norm(self.matrix @ x - rhs, axis=0) / np.where(
            scale > 0, scale, 1.0)
        bad = ~(res <= 1e-11)
        if bad.any():
            col = int(np.argmax(bad))
            raise SingularSystem(self.mode if modes is None else modes[col],
                                 f"backward error {np.ravel(res)[col]:.3e}")
        return x, res


# ---------------------------------------------------------------------------
# Discrete generator of the damped inertial semigroup
# ---------------------------------------------------------------------------

def assemble_generator(mode: ModeIndex, p: PhysicalParams, mb: VerticalMesh,
                       mf: VerticalMesh):
    """Discrete generator G of the damped inertial dynamics for one mode and
    the Gram matrix W of the energy inner product.

    State coordinates: (u, w, p, c) where c parameterizes the discretely
    divergence-free fluid velocity subspace (the fluid pressure is eliminated
    through the incompressibility rows).  Requires rho_b, rho_f, c0 > 0.
    """
    if not (p.rho_b > 0 and p.rho_f > 0 and p.c0 > 0):
        raise DegenerateParams("assemble_generator needs rho_b, rho_f, c0 > 0")
    kap1, kap2 = _symbols(mode)
    iu, ip_, iv = (np.flatnonzero(m) for m in (
        mb.free_mask(2), mb.free_mask(1), mf.free_mask(2)))
    nu_, np_ = iu.size, ip_.size
    # free DOFs of the component-major u and v profiles
    uf = np.concatenate([a * mb.n_nodes(2) + iu for a in range(3)])
    vf = np.concatenate([a * mf.n_nodes(2) + iv for a in range(3)])

    weights = monomial_weights(kap1, kap2)

    def form(split, rows, cols):
        return np.tensordot(weights, dense_split(split, rows, cols), 1)

    AE = form(elastic_split(mb, p.mu, p.lam), uf, uf)
    AV = form(elastic_split(mf, p.nu, 0.0), vf, vf)
    DivB = form(divergence_split(mb), ip_, uf)
    DivF = form(divergence_split(mf), slice(None), vf)
    Kdar = p.k_perm * form(darcy_split(mb), ip_, ip_)
    Mu = mass(mb, 2, 3)[uf][:, uf].toarray().astype(complex)
    Mp = mass(mb, 1)[ip_][:, ip_].toarray().astype(complex)
    Mv = mass(mf, 2, 3)[vf][:, vf].toarray().astype(complex)

    # divergence-free fluid subspace
    Z = scipy.linalg.null_space(DivF)
    nc = Z.shape[1]

    # interface selector vectors on free DOFs, one per component of u and v
    Eu = np.eye(uf.size)[uf % mb.n_nodes(2) == mb.interface_node(2)]
    Ep = (ip_ == mb.interface_node(1)).astype(float)
    Ev = np.eye(vf.size)[vf % mf.n_nodes(2) == mf.interface_node(2)]

    # weak action L: rows in the test metric, columns over (u, w, p, c)
    n_tot = 3 * nu_ + 3 * nu_ + np_ + nc
    L = np.zeros((n_tot, n_tot), dtype=complex)
    su = slice(0, 3 * nu_)
    sw = slice(3 * nu_, 6 * nu_)
    sp = slice(6 * nu_, 6 * nu_ + np_)
    sc = slice(6 * nu_ + np_, n_tot)

    # u-row in the a_E metric: a_E(du/dt, xi) = a_E(w, xi)
    L[su, sw] = AE
    # w-row: rho_b (dw/dt, xi) = -a_E(u) - delta a_E(w) + alpha(p, div xi)
    #        + p(0) conj(xi3(0)) + beta sum_j (v_j - w_j)(0) conj(xi_j(0))
    L[sw, su] = -AE
    L[sw, sw] = -p.delta * AE
    L[sw, sp] = p.alpha * DivB.conj().T + np.outer(Eu[2], Ep)
    slipW = sum(np.outer(Eu[j], Eu[j]) for j in range(2))
    slipWV = sum(np.outer(Eu[j], Ev[j]) for j in range(2))
    L[sw, sw] += -p.beta * slipW
    L[sw, sc] = p.beta * slipWV @ Z
    # p-row: c0 (dp/dt, q) = -alpha(div w, q) - k(grad p, grad q)
    #        + (v3 - w3)(0) conj(q(0))
    L[sp, sw] = -p.alpha * DivB - np.outer(Ep, Eu[2])
    L[sp, sp] = -Kdar
    L[sp, sc] = np.outer(Ep, Ev[2]) @ Z
    # v-row (tested in the div-free subspace): rho_f (dv/dt, zeta) =
    #   -2 nu (D(v), D(zeta)) - p(0) conj(zeta3(0))
    #   - beta sum_j (v_j - w_j)(0) conj(zeta_j(0))
    slipV = sum(np.outer(Ev[j], Ev[j]) for j in range(2))
    slipVW = slipWV.conj().T
    L[sc, sc] = Z.conj().T @ (-AV - p.beta * slipV) @ Z
    L[sc, sp] = Z.conj().T @ (-np.outer(Ev[2], Ep))
    L[sc, sw] = Z.conj().T @ (p.beta * slipVW)

    # energy Gram matrix (block diagonal in the same coordinates)
    W = np.zeros_like(L)
    W[su, su] = AE
    W[sw, sw] = p.rho_b * Mu
    W[sp, sp] = p.c0 * Mp
    W[sc, sc] = p.rho_f * (Z.conj().T @ Mv @ Z)

    G = np.zeros_like(L)
    G[su] = scipy.linalg.solve(AE, L[su], assume_a="her")
    G[sw] = scipy.linalg.solve(p.rho_b * Mu, L[sw], assume_a="her")
    G[sp] = scipy.linalg.solve(p.c0 * Mp, L[sp], assume_a="her")
    G[sc] = scipy.linalg.solve(W[sc, sc], L[sc], assume_a="her")
    return G, W


# ---------------------------------------------------------------------------
# Dense real-space verification oracle (test use only)
# ---------------------------------------------------------------------------

def dense_real_space_oracle(cfg, prior, sources):
    """Solve one implicit step as ONE monolithic system over all lateral
    sample points, with dense spectral differentiation matrices in x1/x2 and
    the same vertical elements.  Independent verification path for the
    per-mode pipeline; restricted to tiny grids.

    prior: dict with real-space sample arrays "u" (n1,n2,3,nodes), "w" (or
    None), "p", "v".  sources: dict with "Fb", "S", "Ff" sample arrays (or
    None).  Returns a dict of (complex) sample arrays for the next level.
    """
    d = cfg.disc
    pp = cfg.params
    n1, n2, nb, nf = d.n1, d.n2, d.nb, d.nf
    if n1 * n2 * (nb + nf) > 5000:
        raise TooLarge("oracle restricted to n1*n2*(nb+nf) <= 5000")
    dt = d.dt
    mb = VerticalMesh("biot", nb)
    mf = VerticalMesh("fluid", nf)
    b = {k: A.toarray() for k, A in _mats(mb).items()}
    f = {k: A.toarray() for k, A in _mats(mf).items()}

    # lateral spectral differentiation matrices on the flattened n1*n2 grid
    N = n1 * n2
    F1 = np.exp(-2j * np.pi * np.outer(np.arange(n1), np.arange(n1)) / n1)
    F2 = np.exp(-2j * np.pi * np.outer(np.arange(n2), np.arange(n2)) / n2)
    kk1 = TWO_PI * np.array([signed_k2(j, n1) for j in range(n1)], dtype=float)
    kk2 = TWO_PI * np.array([signed_k2(j, n2) for j in range(n2)], dtype=float)
    # Nyquist represented with the positive sign, matching the mode pipeline
    kk1[n1 // 2] = abs(kk1[n1 // 2])
    kk2[n2 // 2] = abs(kk2[n2 // 2])
    D1x = F1.conj().T @ np.diag(1j * kk1) @ F1 / n1
    D2x = F2.conj().T @ np.diag(1j * kk2) @ F2 / n2
    L1 = np.kron(D1x, np.eye(n2))
    L2 = np.kron(np.eye(n1), D2x)
    Ilat = np.eye(N)

    nbu, nbp = mb.n_nodes(2), mb.n_nodes(1)
    nfu, nfp = mf.n_nodes(2), mf.n_nodes(1)
    sizes = (nbu, nbu, nbu, nbp, nfu, nfu, nfu, nfp)
    offs = np.concatenate([[0], np.cumsum(np.array(sizes) * N)])
    Ntot = offs[-1]
    A = np.zeros((Ntot, Ntot), dtype=complex)
    rhs = np.zeros(Ntot, dtype=complex)

    def put(r, c, lat, vert):
        A[offs[r]:offs[r + 1], offs[c]:offs[c + 1]] += np.kron(lat, vert)

    def add_rhs(r, lat, vert, samples):
        # samples flattened lat-major per slot
        rhs[offs[r]:offs[r + 1]] += np.kron(lat, vert) @ samples

    LH1, LH2 = L1.conj().T, L2.conj().T
    mu, lam, nu = pp.mu, pp.lam, pp.nu

    # point-evaluation vertical matrices
    ib = mb.interface_node(2)
    ibp = mb.interface_node(1)
    iv = mf.interface_node(2)

    def pt(nr, ir, ncol, ic):
        m = np.zeros((nr, ncol))
        m[ir, ic] = 1.0
        return m

    def strain_matrix(M, K, Ct, m_, l_):
        """Full 3x3 component grid of the strain form as one kron matrix."""
        Cg = Ct.T
        nn = M.shape[0]
        S = np.zeros((3 * N * nn, 3 * N * nn), dtype=complex)

        def sput(a, c, lat, vert):
            S[a * N * nn:(a + 1) * N * nn,
              c * N * nn:(c + 1) * N * nn] += np.kron(lat, vert)

        sput(0, 0, (2 * m_ + l_) * LH1 @ L1 + m_ * LH2 @ L2, M)
        sput(0, 0, Ilat, m_ * K)
        sput(1, 1, (2 * m_ + l_) * LH2 @ L2 + m_ * LH1 @ L1, M)
        sput(1, 1, Ilat, m_ * K)
        sput(2, 2, Ilat, (2 * m_ + l_) * K)
        sput(2, 2, LH1 @ L1 + LH2 @ L2, m_ * M)
        sput(0, 1, LH1 @ L2, (m_ + l_) * M)
        sput(1, 0, LH2 @ L1, (m_ + l_) * M)
        sput(0, 2, L1, m_ * Cg)
        sput(0, 2, LH1, l_ * Ct)
        sput(1, 2, L2, m_ * Cg)
        sput(1, 2, LH2, l_ * Ct)
        sput(2, 0, LH1, m_ * Ct)
        sput(2, 0, L1, l_ * Cg)
        sput(2, 1, LH2, m_ * Ct)
        sput(2, 1, L2, l_ * Cg)
        return S

    # --- E-rows ---
    coeff = 1.0 + pp.delta / dt
    SE = strain_matrix(b["M"], b["K"], b["Ct"], mu, lam)
    A[offs[0]:offs[3], offs[0]:offs[3]] += coeff * SE
    if pp.rho_b > 0:
        for a in range(3):
            put(a, a, Ilat, (pp.rho_b / dt**2) * b["M"])
    # -alpha (p, div xi): conj of divergence pairing
    Mm, Cm = b["Mm"], b["Cm"]
    put(0, 3, LH1, -pp.alpha * Mm.T)
    put(1, 3, LH2, -pp.alpha * Mm.T)
    put(2, 3, Ilat, -pp.alpha * Cm.T)
    # interface pressure and slip
    put(2, 3, Ilat, -pt(nbu, ib, nbp, ibp))
    for j in range(2):
        put(j, 4 + j, Ilat, -pp.beta * pt(nbu, ib, nfu, iv))
        put(j, j, Ilat, (pp.beta / dt) * pt(nbu, ib, nbu, ib))

    # --- D-row ---
    put(3, 3, LH1 @ L1 + LH2 @ L2, pp.k_perm * b["Mp"])
    put(3, 3, Ilat, pp.k_perm * b["Kp"])
    if pp.c0 > 0:
        put(3, 3, Ilat, (pp.c0 / dt) * b["Mp"])
    put(3, 0, L1, (pp.alpha / dt) * Mm)
    put(3, 1, L2, (pp.alpha / dt) * Mm)
    put(3, 2, Ilat, (pp.alpha / dt) * Cm)
    put(3, 6, Ilat, -pt(nbp, ibp, nfu, iv))
    put(3, 2, Ilat, (1.0 / dt) * pt(nbp, ibp, nbu, ib))

    # --- F-rows ---
    A[offs[4]:offs[7], offs[4]:offs[7]] += strain_matrix(f["M"], f["K"],
                                                         f["Ct"], nu, 0.0)
    if pp.rho_f > 0:
        for a in range(3):
            put(4 + a, 4 + a, Ilat, (pp.rho_f / dt) * f["M"])
    Mmf, Cmf = f["Mm"], f["Cm"]
    put(4, 7, LH1, -Mmf.T)
    put(5, 7, LH2, -Mmf.T)
    put(6, 7, Ilat, -Cmf.T)
    put(6, 3, Ilat, pt(nfu, iv, nbp, ibp))
    for j in range(2):
        put(4 + j, 4 + j, Ilat, pp.beta * pt(nfu, iv, nfu, iv))
        put(4 + j, j, Ilat, -(pp.beta / dt) * pt(nfu, iv, nbu, ib))

    # --- C-row ---
    put(7, 4, L1, Mmf)
    put(7, 5, L2, Mmf)
    put(7, 6, Ilat, Cmf)

    # --- right-hand side ---
    def flat(arr):
        # (n1, n2, nodes) -> lat-major flattening with vertical innermost
        return np.asarray(arr, dtype=complex).reshape(-1)

    if sources is not None:
        Fb, S, Ff = sources.get("Fb"), sources.get("S"), sources.get("Ff")
        if Fb is not None:
            for a in range(3):
                add_rhs(a, Ilat, b["M"], flat(Fb[:, :, a, :]))
        if S is not None:
            add_rhs(3, Ilat, b["Mp"], flat(S))
        if Ff is not None:
            for a in range(3):
                add_rhs(4 + a, Ilat, f["M"], flat(Ff[:, :, a, :]))

    un = prior["u"]
    wn = prior.get("w")
    pn = prior["p"]
    vn = prior["v"]
    uf = [flat(un[:, :, a, :]) for a in range(3)]
    for a in range(3):
        if pp.rho_b > 0:
            wa = flat(wn[:, :, a, :])
            add_rhs(a, Ilat, (pp.rho_b / dt**2) * b["M"], uf[a] + dt * wa)
    if pp.delta > 0:
        rhs[offs[0]:offs[3]] += (pp.delta / dt) * (SE @ np.concatenate(uf))
    if pp.c0 > 0:
        add_rhs(3, Ilat, (pp.c0 / dt) * b["Mp"], flat(pn))
    add_rhs(3, L1, (pp.alpha / dt) * Mm, uf[0])
    add_rhs(3, L2, (pp.alpha / dt) * Mm, uf[1])
    add_rhs(3, Ilat, (pp.alpha / dt) * Cm, uf[2])
    add_rhs(3, Ilat, (1.0 / dt) * pt(nbp, ibp, nbu, ib), uf[2])
    for j in range(2):
        add_rhs(j, Ilat, (pp.beta / dt) * pt(nbu, ib, nbu, ib), uf[j])
        add_rhs(4 + j, Ilat, -(pp.beta / dt) * pt(nfu, iv, nbu, ib), uf[j])
    if pp.rho_f > 0:
        for a in range(3):
            add_rhs(4 + a, Ilat, (pp.rho_f / dt) * f["M"], flat(vn[:, :, a, :]))

    # essential constraints: clamp top Biot nodes and bottom fluid nodes.
    # flattening is lat-major: dof index = base + lat * size + node
    free = np.ones(Ntot, dtype=bool)
    for slot, size in enumerate(sizes):
        if slot == 7:
            continue
        mesh = mb if slot <= 3 else mf
        deg = 1 if slot in (3, 7) else 2
        node = mesh.clamped_node(deg)
        base = offs[slot]
        for lat in range(N):
            free[base + lat * size + node] = False

    idx = np.flatnonzero(free)
    x = np.zeros(Ntot, dtype=complex)
    sub = A[np.ix_(idx, idx)]
    try:
        x[idx] = scipy.linalg.solve(sub, rhs[idx])
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystem(ModeIndex(-1, -1), str(exc)) from None

    out = {}
    names = ("u1", "u2", "u3", "p", "v1", "v2", "v3", "pf")
    for slot, (name, size) in enumerate(zip(names, sizes)):
        out[name] = x[offs[slot]:offs[slot + 1]].reshape(n1, n2, size)
    res = {
        "u": np.stack([out["u1"], out["u2"], out["u3"]], axis=2),
        "p": out["p"],
        "v": np.stack([out["v1"], out["v2"], out["v3"]], axis=2),
        "pf": out["pf"],
    }
    return res
