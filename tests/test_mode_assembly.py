"""Per-mode assembly: block forms, layout bookkeeping, one-step solves, the
generator, and the dense real-space oracle."""

import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from bsqs import integrator
from bsqs.errors import (DegenerateParams, MeshMismatch, SingularSystem,
                         TooLarge)
from bsqs.fem1d import VerticalMesh, mass
from bsqs.integrator import Simulator, _zero_state
from bsqs.mode_assembly import (BandForm, Layout, ModeOperator,
                                StepCoefficients, assemble_generator,
                                build_step_matrix,
                                build_step_rhs, darcy_split,
                                dense_real_space_oracle, dense_split,
                                divergence_modes, divergence_split,
                                elastic_blocks,
                                elastic_split, frame_split, mode_symbols,
                                monomial_weights, _mats)
from bsqs.spectral import (ModeIndex, forward_transform, inverse_transform,
                           mode_table)
from conftest import (dense_mats, every_mode_live, frame_rotation,
                      make_config, make_params)

MB = VerticalMesh("biot", 4)
MF = VerticalMesh("fluid", 4)


def quad_form(blocks, prof):
    return sum(np.vdot(prof[a], np.asarray(blocks[a][c], dtype=complex)
                       @ prof[c]) for a in range(3) for c in range(3))


def test_elastic_energy_of_uniaxial_compression():
    # u = (0, 0, 1 - x3), lam = mu = 1, mode (0,0):
    # a_E(u, u) = (2 mu + lam) * integral(u3'^2) = 3
    m = dense_mats(MB)
    B = elastic_blocks(0.0, 0.0, m["M"], m["K"], m["Ct"], 1.0, 1.0)
    prof = np.zeros((3, MB.n_nodes(2)), dtype=complex)
    prof[2] = 1.0 - MB.nodes(2)
    assert quad_form(B, prof) == pytest.approx(3.0)


def test_elastic_form_hermitian_nonnegative(rng):
    m = dense_mats(MB)
    kap1, kap2 = 2 * np.pi * 1, 2 * np.pi * (-2)
    B = elastic_blocks(kap1, kap2, m["M"], m["K"], m["Ct"], 1.3, 0.7)
    for _ in range(5):
        prof = (rng.standard_normal((3, MB.n_nodes(2)))
                + 1j * rng.standard_normal((3, MB.n_nodes(2))))
        val = quad_form(B, prof)
        assert abs(val.imag) < 1e-10 * abs(val)
        assert val.real > 0


def test_viscous_form_is_elastic_form_with_zero_lambda():
    # 2 nu (D(v), D(v)) for v = (0, 0, (1+x3)^2), mode 0: 2 nu int (2(1+x3))^2
    m = dense_mats(MF)
    B = elastic_blocks(0.0, 0.0, m["M"], m["K"], m["Ct"], 0.7, 0.0)
    prof = np.zeros((3, MF.n_nodes(2)), dtype=complex)
    prof[2] = (1.0 + MF.nodes(2)) ** 2
    # (2 mu + 0) * int(v3'^2) = 2 * 0.7 * 4/3
    assert quad_form(B, prof) == pytest.approx(2 * 0.7 * 4.0 / 3.0)


def block_matrix(blocks):
    """A 3x3 object grid as one dense component-major matrix."""
    return np.block([[np.asarray(blocks[a, c], dtype=complex)
                      for c in range(3)] for a in range(3)])


def form_at(split, kap1, kap2):
    """A split form at the symbols (kap1, kap2), as a dense matrix."""
    every = slice(None)
    return np.tensordot(monomial_weights(kap1, kap2),
                        dense_split(split, every, every), 1)


@pytest.mark.parametrize("box, mu, lam", [("biot", 1.3, 0.7),
                                          ("fluid", 0.9, 0.0)])
def test_elastic_split_reproduces_block_grid(rng, box, mu, lam):
    """sum_m kap**m A_m equals elastic_blocks at random symbols, for the
    elastic (mu, lam) and the viscous (nu, 0) form; the divergence and
    Darcy splits likewise give [i kap1 Mm, i kap2 Mm, Cm] and
    |kap|^2 Mp + Kp."""
    mesh = VerticalMesh(box, 8)
    m = dense_mats(mesh)
    split = elastic_split(mesh, mu, lam)

    def assert_close(combined, dense):
        assert np.abs(combined - dense).max() <= 1e-14 * np.abs(dense).max()

    for kap1, kap2 in 2 * np.pi * rng.uniform(-8.0, 8.0, (6, 2)):
        dense = block_matrix(elastic_blocks(kap1, kap2, m["M"], m["K"],
                                            m["Ct"], mu, lam))
        combined = sum(c * A for c, A in
                       zip(monomial_weights(kap1, kap2), split)).toarray()
        assert_close(combined, dense)
        assert_close(form_at(divergence_split(mesh), kap1, kap2),
                     np.hstack([1j * kap1 * m["Mm"], 1j * kap2 * m["Mm"],
                                m["Cm"]]))
        assert_close(form_at(darcy_split(mesh), kap1, kap2),
                     (kap1**2 + kap2**2) * m["Mp"] + m["Kp"])


def test_elastic_split_is_sparse():
    """The six coefficients hold O(nn) entries: 15 nonzero (nn x nn) blocks
    between them, each a P2 matrix with at most 5 entries per row."""
    mesh = VerticalMesh("biot", 64)
    nn = mesh.n_nodes(2)
    split = elastic_split(mesh, 1.0, 1.0)
    assert all(scipy.sparse.issparse(A) for A in split)
    assert sum(A.nnz for A in split) <= 15 * 5 * nn


def test_shared_vertical_matrices_are_read_only():
    """The vertical operators, mass Gram matrices and splits are CSR
    matrices shared through lru_cache, so an in-place edit of one would
    reach every later user: it raises instead."""
    mesh = VerticalMesh("biot", 4)
    shared = [*_mats(mesh).values(), mass(mesh, 2, 3)]
    for split, args in ((elastic_split, (1.3, 0.7)), (divergence_split, ()),
                        (darcy_split, ())):
        shared += [*split(mesh, *args), *frame_split(split, mesh, *args)]
    for A in shared:
        assert A.format == "csr"
        with pytest.raises(ValueError, match="read-only"):
            A.data[:1] = 1.0
        with pytest.raises((ValueError, TypeError), match="read-only"):
            A.eliminate_zeros()


def test_divergence_blocks_pair_constant_divergence():
    # u = (0, 0, x3 - 1) on the Biot box has div u = 1; pairing with q = 1
    # gives the box volume 1
    m = dense_mats(MB)
    nn = MB.n_nodes(2)
    split = divergence_split(MB)
    u = np.zeros(3 * nn, dtype=complex)
    u[2 * nn:] = MB.nodes(2) - 1.0
    q = np.ones(MB.n_nodes(1))
    assert q @ (form_at(split, 0.0, 0.0) @ u) == pytest.approx(1.0)
    # lateral components carry the i*kappa symbols
    kb = form_at(split, 3.0, -2.0)
    assert np.allclose(kb[:, :nn], 3j * m["Mm"])
    assert np.allclose(kb[:, nn:2 * nn], -2j * m["Mm"])


def test_divergence_modes_is_the_split_at_each_modes_symbols(rng):
    """divergence_modes evaluates divergence_split at every mode's own
    symbols: the lateral components pair with i kappa times the mixed mass
    matrix, the vertical one with the mixed divergence matrix."""
    m = _mats(MB)
    kap1, kap2 = mode_symbols(mode_table(6, 4))
    U = (rng.standard_normal((kap1.size, 3, MB.n_nodes(2)))
         + 1j * rng.standard_normal((kap1.size, 3, MB.n_nodes(2))))
    want = (1j * kap1[:, None] * (U[:, 0] @ m["Mm"].T)
            + 1j * kap2[:, None] * (U[:, 1] @ m["Mm"].T) + U[:, 2] @ m["Cm"].T)
    got = divergence_modes(kap1, kap2, U, MB)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_layout_pack_unpack_round_trip(rng):
    lay = Layout(MB, MF)
    u = rng.standard_normal((3, MB.n_nodes(2))) + 0j
    p = rng.standard_normal(MB.n_nodes(1)) + 0j
    v = rng.standard_normal((3, MF.n_nodes(2))) + 0j
    pf = rng.standard_normal(MF.n_nodes(1)) + 0j
    full = lay.pack(u, p, v, pf)
    assert full.size == sum(lay.full_sizes)
    # unpack zeroes the constrained DOFs, so clamp them first
    u[:, MB.clamped_node(2)] = 0
    p[MB.clamped_node(1)] = 0
    v[:, MF.clamped_node(2)] = 0
    x_free = lay.pack(u, p, v, pf)[lay.free_indices()]
    u2, p2, v2, pf2 = lay.unpack(x_free)
    assert np.allclose(u2, u) and np.allclose(p2, p)
    assert np.allclose(v2, v) and np.allclose(pf2, pf)
    assert lay.n_free == sum(lay.full_sizes) - 7  # 7 essential constraints


def test_build_step_matrix_rejects_swapped_meshes():
    with pytest.raises(MeshMismatch):
        build_step_matrix(ModeIndex(0, 0),
                          StepCoefficients(make_params(), MF, MB, 0.1))


def test_zero_rhs_gives_zero_solution():
    op = ModeOperator(ModeIndex(1, 1),
                      StepCoefficients(make_params(), MB, MF, 1 / 16))
    x, res = op.step(np.zeros(op.layout.n_free, dtype=complex))
    u, p, v, pf = op.layout.unpack(x)
    assert np.abs(u).max() == 0 and np.abs(p).max() == 0
    assert np.abs(v).max() == 0 and np.abs(pf).max() == 0
    assert res == 0  # no 0/0 residual


def test_step_is_linear_in_prior(rng):
    mode = ModeIndex(1, -1)
    coeffs = StepCoefficients(make_params(), MB, MF, 1 / 16)
    op = ModeOperator(mode, coeffs)
    kap1, kap2 = mode_symbols([mode])

    def rand_prior():
        u = rng.standard_normal((3, MB.n_nodes(2))) + 1j * rng.standard_normal(
            (3, MB.n_nodes(2)))
        w = rng.standard_normal((3, MB.n_nodes(2))) + 0j
        p = rng.standard_normal(MB.n_nodes(1)) + 0j
        v = rng.standard_normal((3, MF.n_nodes(2))) + 0j
        return (u, w, p, v)

    def solve(prior):
        rhs = build_step_rhs(kap1, kap2, coeffs,
                             prior=tuple(a[None] for a in prior))
        x, res = op.step(rhs[0])
        assert res <= 1e-11
        return op.layout.unpack(x)

    pa, pb_ = rand_prior(), rand_prior()
    psum = tuple(x + 2.0 * y for x, y in zip(pa, pb_))
    ra = solve(pa)
    rb = solve(pb_)
    rs = solve(psum)
    for fa, fb, fs in zip(ra, rb, rs):
        scale = max(np.abs(fs).max(), 1.0)
        assert np.abs(fs - (fa + 2.0 * fb)).max() < 1e-11 * scale


def test_steady_matrix_drops_time_terms():
    p = make_params()

    def matrix(dt, steady):
        coeffs = StepCoefficients(p, MB, MF, dt, steady=steady)
        return build_step_matrix(ModeIndex(0, 0), coeffs).toarray()

    A_t = matrix(1 / 16, steady=False)
    A_s = matrix(1 / 16, steady=True)
    assert not np.allclose(A_t, A_s)
    # the steady matrix is dt-independent
    A_s2 = matrix(1 / 32, steady=True)
    assert np.allclose(A_s, A_s2)


BAND_GRIDS = [(2, 2), (4, 4), (4, 8), (8, 4), (16, 16), (32, 32), (64, 64),
              (16, 64)]


def test_step_matrix_band_is_mesh_independent():
    # node-interleaved ordering: the half-bandwidths come from the sparsity
    # pattern and stay at one element's couplings whatever the mesh
    bands = set()
    for nb, nf in BAND_GRIDS:
        coeffs = StepCoefficients(make_params(), VerticalMesh("biot", nb),
                                  VerticalMesh("fluid", nf), 1 / 16)
        A = build_step_matrix(ModeIndex(1, -2), coeffs)
        rows, cols = A.nonzero()
        form = coeffs.form
        assert (form.kl, form.ku) == ((rows - cols).max(), (cols - rows).max())
        bands.add((form.kl, form.ku))
    assert len(bands) == 1
    kl, ku = bands.pop()
    assert kl <= 9 and ku <= 9


# local index space of a BandForm test: local DOF 3 is dropped, the others
# map to band order in a shuffled order
POSITION = np.array([2, 0, 5, -1, 1, 4, 3])


def _band_form_case(rng, dtype, n_monomials=3):
    """(form, dense A_m): a BandForm of random entries within half-bandwidth
    2 of the band order, each pair entered twice with different values, plus
    entries on the dropped DOF, and the dense A_m they sum to."""
    local = np.argsort(POSITION)[1:]            # band order -> local index
    n = local.size
    i, j = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n)))
    near = np.abs(i - j) <= 2
    i, j = i[near], j[near]
    entries, dense = [], np.zeros((n_monomials, n, n), dtype=dtype)
    for m in range(n_monomials):
        rows = np.concatenate([local[i], local[i], [3, 0]])
        cols = np.concatenate([local[j], local[j], [0, 3]])
        values = rng.standard_normal(rows.size).astype(dtype)
        if dtype == complex:
            values += 1j * rng.standard_normal(rows.size)
        if m == 0:                              # a dominant diagonal
            values[:2 * i.size][np.concatenate([i == j, i == j])] += 10.0
        entries.append((rows, cols, values))
        keep = (POSITION[rows] >= 0) & (POSITION[cols] >= 0)
        np.add.at(dense[m], (POSITION[rows[keep]], POSITION[cols[keep]]),
                  values[keep])
    return BandForm(entries, POSITION, n), dense


@pytest.mark.parametrize("dtype", [float, complex])
def test_band_form_matches_dense_algebra(rng, dtype):
    form, dense = _band_form_case(rng, dtype)
    assert form.values.dtype == dtype
    assert (form.kl, form.ku) == (2, 2)
    for weights in (np.array([1.0, 0.0, 0.0]), np.array([1.0, -0.7, 2.5])):
        A = np.tensordot(weights, dense, 1)
        M = form.csr(weights)
        assert M.shape == A.shape
        np.testing.assert_allclose(M.toarray(), A, rtol=0, atol=1e-14)
        with pytest.raises(ValueError):         # the pattern is shared
            M.eliminate_zeros()
        rhs = rng.standard_normal((A.shape[0], 3)).astype(dtype)
        lu, piv = form.factor(M.data, ModeIndex(1, 0))
        np.testing.assert_allclose(form.solve(lu, piv, rhs),
                                   scipy.linalg.solve(A, rhs), rtol=1e-12,
                                   atol=1e-12)


@pytest.mark.parametrize("dtype,routine", [(float, "dgbtrf"),
                                           (complex, "zgbtrf")])
def test_singular_band_form_names_its_mode(dtype, routine):
    """A tridiagonal form with an empty row is singular: factoring it raises
    SingularSystem naming the mode given, for either dtype."""
    n = 5
    rows = np.array([r for r in range(n) if r != 2 for _ in range(3)])
    cols = np.clip(rows + np.tile([-1, 0, 1], n - 1), 0, n - 1)
    values = np.arange(1.0, rows.size + 1).astype(dtype)
    form = BandForm([(rows, cols, values)], np.arange(n), n)
    mode = ModeIndex(3, -1)
    with pytest.raises(SingularSystem) as err:
        form.factor(form.values[0], mode)
    assert err.value.mode == mode
    assert routine in str(err.value)


def _held_bytes(obj):
    """Bytes of the arrays an object holds directly, dense or sparse."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif scipy.sparse.issparse(value):
            total += sum(getattr(value, a).nbytes
                         for a in ("data", "indices", "indptr"))
    return total


def test_mode_operator_memory_is_linear_in_unknowns():
    mb, mf = VerticalMesh("biot", 64), VerticalMesh("fluid", 64)
    op = ModeOperator(ModeIndex(3, -5),
                      StepCoefficients(make_params(), mb, mf, 1 / 16))
    n = Layout(mb, mf).n_free
    # a dense matrix plus dense LU would hold 2 * 16 * n**2 bytes (25 MB)
    assert _held_bytes(op) < 1024 * n


# --- generator ------------------------------------------------------------

def test_generator_requires_nondegenerate_params():
    with pytest.raises(DegenerateParams):
        assemble_generator(ModeIndex(0, 0), make_params(rho_b=0.0), MB, MF)
    with pytest.raises(DegenerateParams):
        assemble_generator(ModeIndex(0, 0), make_params(c0=0.0), MB, MF)


def test_generator_certificate_and_gram():
    from bsqs.energy import generator_dissipativity_check
    for mode in (ModeIndex(0, 0), ModeIndex(1, 2), ModeIndex(2, -1)):
        G, W = assemble_generator(mode, make_params(), MB, MF)
        assert np.allclose(W, W.conj().T, atol=1e-12)
        evals = np.linalg.eigvalsh(W)
        assert evals.min() > 0
        assert generator_dissipativity_check(G, W) <= 1e-8


@pytest.mark.parametrize("mode", [ModeIndex(0, 0), ModeIndex(1, 0),
                                  ModeIndex(1, 2), ModeIndex(2, -3),
                                  ModeIndex(4, 0)])
def test_generator_and_steady_step_matrix_share_their_forms(mode):
    """The generator's a_E block (in W), its Darcy block and its pressure
    coupling of the w-row, interface point included, are the steady step
    matrix's u-u, p-p and minus its u-p blocks.  W is block diagonal, so
    W G gives the weak action L row block by row block."""
    p = make_params(lam=1.3, mu=0.7, alpha=0.9, k_perm=0.8, beta=1.2)
    G, W = assemble_generator(mode, p, MB, MF)
    L = W @ G
    A = build_step_matrix(mode, StepCoefficients(p, MB, MF, 0.1,
                                                 steady=True)).toarray()
    lay = Layout(MB, MF)
    offs = lay.full_offsets()
    iu = np.flatnonzero(MB.free_mask(2))
    ip = np.flatnonzero(MB.free_mask(1))
    u = lay.free_position[np.concatenate([offs[a] + iu for a in range(3)])]
    q = lay.free_position[offs[3] + ip]
    su, sw = slice(0, u.size), slice(u.size, 2 * u.size)
    sp = slice(2 * u.size, 2 * u.size + q.size)
    for generator, step in ((W[su, su], A[np.ix_(u, u)]),
                            (-L[sp, sp], A[np.ix_(q, q)]),
                            (L[sw, sp], -A[np.ix_(u, q)])):
        assert np.abs(generator - step).max() <= 1e-14 * np.abs(step).max()


# --- dense oracle ---------------------------------------------------------

def _real_space_prior(cfg, rng):
    """Random band-limited admissible prior as real-space samples."""
    from conftest import drop_nyquist
    d = cfg.disc
    mb = VerticalMesh("biot", d.nb)
    mf = VerticalMesh("fluid", d.nf)
    u = drop_nyquist(rng.standard_normal((d.n1, d.n2, 3, mb.n_nodes(2))))
    w = drop_nyquist(rng.standard_normal((d.n1, d.n2, 3, mb.n_nodes(2))))
    p = drop_nyquist(rng.standard_normal((d.n1, d.n2, mb.n_nodes(1))))
    v = drop_nyquist(rng.standard_normal((d.n1, d.n2, 3, mf.n_nodes(2))))
    u[..., mb.clamped_node(2)] = 0
    w[..., mb.clamped_node(2)] = 0
    p[..., mb.clamped_node(1)] = 0
    v[..., mf.clamped_node(2)] = 0
    return u, w, p, v


def _pipeline_step(cfg, u, w, p, v):
    sim = Simulator(cfg)
    mb = VerticalMesh("biot", cfg.disc.nb)
    mf = VerticalMesh("fluid", cfg.disc.nf)
    s = _zero_state(cfg)
    s.u = forward_transform(u, mb, 2)
    if s.w is not None:
        s.w = forward_transform(w, mb, 2)
    s.p_b = forward_transform(p, mb, 1)
    s.v = forward_transform(v, mf, 2)
    return sim.step(s)


# every zero/nonzero pattern of (rho_b, rho_f, delta, c0); the first three
# are full physics, quasi-static and fully degenerate
DEGENERATE = ("rho_b", "rho_f", "delta", "c0")
REGIMES = [{}, {"rho_b": 0.0, "rho_f": 0.0},
           {"rho_b": 0.0, "rho_f": 0.0, "delta": 0.0, "c0": 0.0}]
REGIMES += [r for r in ({k: 0.0 for k, z in zip(DEGENERATE, zeros) if z}
                        for zeros in itertools.product((False, True),
                                                       repeat=4))
            if r not in REGIMES]


@pytest.mark.parametrize("regime", REGIMES)
def test_oracle_matches_pipeline(rng, regime):
    cfg = make_config(params=make_params(**regime), n1=4, n2=4, nb=4, nf=4)
    u, w, p, v = _real_space_prior(cfg, rng)
    s_next = _pipeline_step(cfg, u, w, p, v)
    prior = {"u": u, "w": w if cfg.params.rho_b > 0 else None, "p": p, "v": v}
    out = dense_real_space_oracle(cfg, prior, sources=None)
    pairs = [
        (inverse_transform(s_next.u), out["u"]),
        (inverse_transform(s_next.p_b)[:, :, 0, :], out["p"]),
        (inverse_transform(s_next.v), out["v"]),
        (inverse_transform(s_next.p_f)[:, :, 0, :], out["pf"]),
    ]
    for mine, oracle in pairs:
        scale = max(np.abs(oracle).max(), 1e-12)
        assert np.abs(oracle.imag).max() < 1e-9 * scale
        assert np.abs(mine - oracle.real).max() < 1e-9 * scale


@pytest.mark.parametrize("regime, steady", [(r, False) for r in REGIMES]
                         + [({}, True)])
def test_step_matrix_is_its_frame_matrix_turned(regime, steady):
    """A(k1, k2) = Q A(|k|, 0) Q^T for every stored mode of an 8x8 and a 6x4
    grid (Nyquist rows and columns included): one factorization per |k|^2
    serves all of its modes."""
    coeffs = StepCoefficients(make_params(**regime), MB, MF, 1 / 16,
                              steady=steady)
    for n1, n2 in ((8, 8), (6, 4)):
        for mode in mode_table(n1, n2):
            A = build_step_matrix(mode, coeffs).toarray()
            A0 = build_step_matrix((np.hypot(*mode), 0.0), coeffs).toarray()
            Q = frame_rotation(coeffs.layout, mode)
            assert np.abs(Q @ A0 @ Q.T - A).max() <= 1e-14 * np.abs(A).max()


def test_residual_gate_checks_every_column_of_a_group(monkeypatch):
    """A corrupted band LU of one |k|^2 is caught in a column that is neither
    the group's first nor its largest, and the error names that column's
    stored mode."""
    cfg = make_config(n1=8, n2=8)
    sim = Simulator(cfg)
    lay = sim.coeffs.layout
    n = lay.n_free
    group = [ModeIndex(1, 2), ModeIndex(1, -2), ModeIndex(2, 1),
             ModeIndex(2, -1)]                     # |k|^2 = 5, storage order
    op = sim.ops[sim.modes.index(ModeIndex(2, 1))]
    assert all(sim.ops[sim.modes.index(m)] is op for m in group)
    # scaling the last pivot of U changes only solutions whose frame
    # component n - 1 is nonzero: here the third column's alone
    op.band_lu[op.form.kl + op.form.ku, n - 1] *= 2.0
    rng = np.random.default_rng(7)
    rhs = np.zeros((len(sim.modes), n), dtype=complex)
    for mode, scale in zip(group, (1.0, 1.0, 1.0, 1e12)):
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if mode != ModeIndex(2, 1):
            y[n - 1] = 0.0
        x = frame_rotation(lay, mode) @ (scale * y)
        rhs[sim.modes.index(mode)] = build_step_matrix(mode, sim.coeffs) @ x
    monkeypatch.setattr(integrator, "build_step_rhs",
                        lambda *args, **kwargs: rhs.copy())
    with pytest.raises(SingularSystem) as err:
        sim.step(every_mode_live(_zero_state(cfg)))
    assert err.value.mode == ModeIndex(2, 1)


def _prior_rhs(coeffs, mode, prior):
    """build_step_rhs of one mode with only a prior level."""
    kap1, kap2 = mode_symbols([mode])
    return build_step_rhs(kap1, kap2, coeffs, prior=tuple(
        None if a is None else a[None] for a in prior))[0]


@pytest.mark.parametrize("regime", REGIMES)
def test_prior_enters_through_the_time_terms_of_the_step_matrix(rng, regime):
    """The prior level's part of the right-hand side is
    (A - A_steady) x + (rho_b/dt) M w, with A and A_steady the transient and
    steady step matrices; with steady coefficients the prior contributes
    nothing."""
    p = make_params(**regime)
    dt = 1 / 16
    mode = ModeIndex(1, -2)
    transient = StepCoefficients(p, MB, MF, dt)
    steady = StepCoefficients(p, MB, MF, dt, steady=True)
    lay = transient.layout
    free = lay.free_indices()

    def rand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u, w = rand(3, MB.n_nodes(2)), rand(3, MB.n_nodes(2))
    pb, v = rand(MB.n_nodes(1)), rand(3, MF.n_nodes(2))
    u[:, MB.clamped_node(2)] = 0
    w[:, MB.clamped_node(2)] = 0
    pb[MB.clamped_node(1)] = 0
    v[:, MF.clamped_node(2)] = 0
    prior = (u, w if p.rho_b > 0 else None, pb, v)

    B = build_step_matrix(mode, transient) - build_step_matrix(mode, steady)
    expected = B @ lay.pack(u, pb, v)[free]
    if p.rho_b > 0:
        Mw = w @ _mats(MB)["M"].T
        expected += (p.rho_b / dt) * lay.pack(Mw, 0 * pb, 0 * v)[free]
    got = _prior_rhs(transient, mode, prior)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
    assert not _prior_rhs(steady, mode, prior).any()


def test_oracle_rejects_large_grids():
    cfg = make_config(n1=16, n2=16, nb=16, nf=16)
    with pytest.raises(TooLarge):
        dense_real_space_oracle(cfg, {"u": None, "p": None, "v": None}, None)
