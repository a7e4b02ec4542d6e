"""Energy bookkeeping: frozen norm values, the discrete dissipation
inequality, balance audits, and interface residual probes."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from bsqs import energy as en
from bsqs.config import SourceSpec
from bsqs.errors import BalanceViolation
from bsqs.fem1d import VerticalMesh, mass
from bsqs.integrator import InitialData, initialize, run
from bsqs.mode_assembly import (FRAME_MONOMIALS, MONOMIALS, BandForm,
                                darcy_split, dense_split, divergence_split,
                                elastic_blocks, elastic_split, frame_split,
                                monomial_weights, wave_frames)
from bsqs.spectral import (SpectralField, forward_transform, mode_table,
                           mode_weights, sample_sources)
from conftest import (dense_mats, interface_residuals, make_config,
                      make_params, smooth_initial_callables)


def field_from(fn_tuple, mesh, degree, n1=4, n2=4):
    from bsqs.spectral import sample_function
    samples = sample_function(fn_tuple, n1, n2, mesh, degree)
    return forward_transform(samples, mesh, degree)


def test_elastic_norm_frozen_value():
    # u = (0, 0, 1 - x3), lam = mu = 1: a_E(u, u) = 2 mu + lam = 3
    mb = VerticalMesh("biot", 8)
    u = field_from((None, None, lambda x1, x2, x3, t: (1 - x3)
                    * np.ones(np.broadcast_shapes(np.shape(x1), np.shape(x2),
                                                  np.shape(x3)))), mb, 2)
    assert en.elastic_norm_sq(u, make_params()) == pytest.approx(3.0)


def test_energy_frozen_value():
    # zero velocities and pressure: e = a_E(u,u)/2 = 1.5
    cfg = make_config()
    s = initialize(cfg, InitialData.from_callables(
        cfg,
        u0=(None, None, lambda x1, x2, x3, t: (1 - x3) * np.ones(
            np.broadcast_shapes(np.shape(x1), np.shape(x2), np.shape(x3)))),
        d0=lambda x1, x2, x3, t: cfg.params.alpha * (-1.0) + 0.0 * x1))
    # d0 = alpha div u0 makes p_b(0) = 0, so only the elastic term remains
    assert np.abs(s.p_b.data).max() < 1e-12
    assert en.energy(s, cfg.params) == pytest.approx(1.5)


def test_grad_norm_and_darcy_dissipation_frozen_value():
    # p = x3 - 1 on the Biot box: ||grad p||^2 = 1, so a state with only this
    # pressure contributes dt * k to the dissipation increment
    mb = VerticalMesh("biot", 8)
    p = field_from((lambda x1, x2, x3, t: (x3 - 1) * np.ones(
        np.broadcast_shapes(np.shape(x1), np.shape(x2), np.shape(x3))),),
        mb, 1)
    assert en.grad_norm_sq(p) == pytest.approx(1.0)
    cfg = make_config(params=make_params(delta=0.0, k_perm=1.5))
    s0 = initialize(cfg, InitialData())
    s1 = s0.copy()
    s1.p_b = p
    dt = cfg.disc.dt
    assert en.dissipation_increment(s0, s1, cfg.params, dt) == pytest.approx(
        dt * 1.5)


def test_viscous_norm_matches_strain_rate_integral():
    # v = (0, 0, (1+x3)^2) laterally constant: 2 nu int (d3 v3)^2 = 8 nu / 3
    mf = VerticalMesh("fluid", 8)
    v = field_from((None, None, lambda x1, x2, x3, t: (1 + x3) ** 2 * np.ones(
        np.broadcast_shapes(np.shape(x1), np.shape(x2), np.shape(x3)))),
        mf, 2)
    assert en.viscous_norm_sq(v, 0.7) == pytest.approx(8 * 0.7 / 3)


def test_l2_norm_frozen_value():
    mb = VerticalMesh("biot", 8)
    p = field_from((lambda x1, x2, x3, t: np.ones(np.broadcast_shapes(
        np.shape(x1), np.shape(x2), np.shape(x3))),), mb, 1)
    assert en.l2_norm(p) == pytest.approx(1.0)


def per_mode_form(fld, form):
    """Parseval sum of weight * Re(profile^H form(kap1, kap2) profile), one
    stored mode at a time, with form a dense component-major matrix."""
    n1, n2 = fld.lateral_shape
    w = mode_weights(n1, n2)
    total = 0.0
    for idx, m in enumerate(mode_table(n1, n2)):
        k1i, j = divmod(idx, n2)
        prof = fld.data[k1i, j].ravel()
        A = form(2 * np.pi * m.k1, 2 * np.pi * m.k2)
        total += w[k1i] * np.vdot(prof, A @ prof).real
    return total


def elastic_form(mesh, mu, lam):
    m = dense_mats(mesh)

    def form(kap1, kap2):
        B = elastic_blocks(kap1, kap2, m["M"], m["K"], m["Ct"], mu, lam)
        return np.block([[np.asarray(B[a, c], dtype=complex)
                          for c in range(3)] for a in range(3)])
    return form


def random_field(rng, mesh, degree, n1, n2, ncomp, lead=()):
    """Random complex coefficients in every stored mode, Nyquist included
    (not Hermitian on the self-conjugate columns), with optional leading
    (level) axes."""
    shape = lead + (n1 // 2 + 1, n2, ncomp, mesh.n_nodes(degree))
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralField(mesh, degree, data)


@pytest.mark.parametrize("n1, n2, nb, nf", [(4, 4, 8, 8), (6, 4, 4, 8),
                                            (8, 8, 16, 16)])
def test_norms_match_per_mode_block_forms(rng, n1, n2, nb, nf):
    mb, mf = VerticalMesh("biot", nb), VerticalMesh("fluid", nf)
    p = make_params(mu=1.3, lam=0.7)
    u = random_field(rng, mb, 2, n1, n2, 3)
    v = random_field(rng, mf, 2, n1, n2, 3)
    pb = random_field(rng, mb, 1, n1, n2, 1)
    mats = dense_mats(mb)
    cases = [
        (en.elastic_norm_sq(u, p), per_mode_form(u, elastic_form(mb, 1.3, 0.7))),
        (en.viscous_norm_sq(v, 0.4), per_mode_form(v, elastic_form(mf, 0.4, 0.0))),
        (en.grad_norm_sq(pb), per_mode_form(
            pb, lambda k1, k2: (k1**2 + k2**2) * mats["Mp"] + mats["Kp"])),
        (en.l2_norm_sq(v), per_mode_form(
            v, lambda k1, k2: np.kron(np.eye(3), dense_mats(mf)["M"]))),
        (en.l2_norm_sq(pb), per_mode_form(pb, lambda k1, k2: mats["Mp"])),
    ]
    for fast, slow in cases:
        assert fast == pytest.approx(slow, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n1, n2, nb, nf", [(4, 4, 8, 8), (6, 4, 4, 8),
                                            (8, 8, 16, 16)])
def test_norms_over_stacked_levels_match_single_level_calls(rng, n1, n2, nb,
                                                            nf):
    """Fields whose data carry leading (level) axes get one value per level,
    equal to the single-level call on that level, which returns a float."""
    from dataclasses import replace
    from bsqs.integrator import State
    mb, mf = VerticalMesh("biot", nb), VerticalMesh("fluid", nf)
    p = make_params(mu=1.3, lam=0.7, nu=0.4)
    dt = 0.1
    lead = (2, 3)

    def stacked_state():
        return State(0.0, random_field(rng, mb, 2, n1, n2, 3, lead),
                     random_field(rng, mb, 2, n1, n2, 3, lead),
                     random_field(rng, mb, 1, n1, n2, 1, lead),
                     random_field(rng, mf, 2, n1, n2, 3, lead),
                     random_field(rng, mf, 1, n1, n2, 1, lead))

    def level(s, idx):
        return replace(s, **{k: replace(getattr(s, k),
                                        data=getattr(s, k).data[idx])
                             for k in ("u", "w", "p_b", "v", "p_f")})

    prev, nxt = stacked_state(), stacked_state()
    functions = [
        lambda a, b: en.elastic_norm_sq(b.u, p),
        lambda a, b: en.viscous_norm_sq(b.v, p.nu),
        lambda a, b: en.grad_norm_sq(b.p_b),
        lambda a, b: en.l2_norm_sq(b.v),
        lambda a, b: en.l2_norm_sq(b.p_b),
        lambda a, b: en._trace_norm_sq(en._slip_trace(a, b, dt)),
        lambda a, b: en.energy(b, p),
        lambda a, b: en.dissipation_increment(a, b, p, dt),
        lambda a, b: en.slip_norm(a, b, dt),
    ]
    for f in functions:
        block = f(prev, nxt)
        assert block.shape == lead
        for idx in np.ndindex(*lead):
            one = f(level(prev, idx), level(nxt, idx))
            assert type(one) is float
            assert block[idx] == pytest.approx(one, rel=1e-13, abs=0.0)


def test_norms_of_a_level_do_not_depend_on_its_stack(rng):
    """A level's elastic, viscous, Darcy, L2 and interface-trace norms are
    the same bits evaluated alone and at any place in stacks of 7 and 8
    levels: each level's mode sum is its own reduction."""
    n1, n2 = 8, 8
    mb, mf = VerticalMesh("biot", 16), VerticalMesh("fluid", 16)
    p = make_params(mu=1.3, lam=0.7, nu=0.4)
    fields = {"u": random_field(rng, mb, 2, n1, n2, 3, (8,)),
              "v": random_field(rng, mf, 2, n1, n2, 3, (8,)),
              "p": random_field(rng, mb, 1, n1, n2, 1, (8,))}
    norms = [("u", lambda f: en.elastic_norm_sq(f, p)),
             ("v", lambda f: en.viscous_norm_sq(f, p.nu)),
             ("p", en.grad_norm_sq), ("u", en.l2_norm_sq),
             ("p", en.l2_norm_sq)]
    for key, norm in norms:
        fld = fields[key]
        alone = [norm(SpectralField(fld.mesh, fld.degree, fld.data[i]))
                 for i in range(8)]
        for sl in (slice(0, 7), slice(1, 8), slice(0, 8)):
            stacked = norm(SpectralField(fld.mesh, fld.degree, fld.data[sl]))
            assert stacked.tolist() == alone[sl]
    traces = fields["v"].data[..., :2, -1]
    alone = [en._trace_norm_sq(traces[i]) for i in range(8)]
    for sl in (slice(0, 7), slice(1, 8), slice(0, 8)):
        assert en._trace_norm_sq(traces[sl]).tolist() == alone[sl]


def test_norms_of_a_level_do_not_depend_on_the_live_modes_of_its_stack(rng):
    """With a different set of zero modes at every level (level 0 of u and
    v with no live mode at all, and p with every mode live), a level's
    elastic, viscous, Darcy and L2 norms are the same bits alone as in
    stacks of 7 and 8 levels, whose live modes are the union of theirs; an
    all-zero level is exactly 0."""
    n1, n2 = 8, 8
    mb, mf = VerticalMesh("biot", 16), VerticalMesh("fluid", 16)
    p = make_params(mu=1.3, lam=0.7, nu=0.4)
    fields = {"u": random_field(rng, mb, 2, n1, n2, 3, (8,)),
              "v": random_field(rng, mf, 2, n1, n2, 3, (8,)),
              "p": random_field(rng, mb, 1, n1, n2, 1, (8,))}
    modes = (n1 // 2 + 1) * n2
    for key in ("u", "v"):
        flat = fields[key].data.reshape(8, modes, -1)
        flat[0] = 0.0
        for i in range(1, 8):
            # levels 1-7 keep 1, 3, ..., 13 modes, at random
            dead = rng.permutation(modes)[2 * i - 1:]
            flat[i, dead] = 0.0
    norms = [("u", lambda f: en.elastic_norm_sq(f, p)),
             ("v", lambda f: en.viscous_norm_sq(f, p.nu)),
             ("p", en.grad_norm_sq), ("u", en.l2_norm_sq),
             ("v", en.l2_norm_sq), ("p", en.l2_norm_sq)]
    for key, norm in norms:
        fld = fields[key]
        alone = [norm(SpectralField(fld.mesh, fld.degree, fld.data[i]))
                 for i in range(8)]
        assert all(type(a) is float for a in alone)
        assert all(a > 0.0 for a in alone[1:])
        if key == "p":
            assert alone[0] > 0.0
        else:
            assert alone[0] == 0.0
        for sl in (slice(0, 7), slice(1, 8), slice(0, 8)):
            stacked = norm(SpectralField(fld.mesh, fld.degree, fld.data[sl]))
            assert stacked.tolist() == alone[sl]


class _CountingMatrix:
    """A CSR matrix that records the column count of each product."""

    def __init__(self, A, columns):
        self.A, self.nnz, self.columns = A, A.nnz, columns

    def __matmul__(self, x):
        self.columns.append(x.shape[1])
        return self.A @ x


def test_frame_kernel_multiplies_only_the_live_modes(rng):
    """Data in 3 of 40 modes over 4 levels: every product of the frame
    kernel gets 3 * 4 (re, im) column pairs, and the value equals the sum
    of the three single-mode fields' values; an all-zero field gets no
    product and exact zeros."""
    n1, n2, levels = 8, 8, 4
    mb = VerticalMesh("biot", 8)
    p = make_params(mu=1.3, lam=0.7)
    u = random_field(rng, mb, 2, n1, n2, 3, (levels,))
    flat = u.data.reshape(levels, 40, -1)
    live = rng.choice(40, 3, replace=False)
    flat[:, np.setdiff1d(np.arange(40), live)] = 0.0
    columns = []
    mats = [_CountingMatrix(A, columns)
            for A in frame_split(elastic_split, mb, p.mu, p.lam)]
    value = en._frame_form(u, u, mats, turn=True)
    assert columns and all(n == 3 * levels * 2 for n in columns)
    parts = []
    for m in live:
        one = np.zeros_like(flat)
        one[:, m] = flat[:, m]
        parts.append(en.elastic_norm_sq(
            SpectralField(mb, 2, one.reshape(u.data.shape)), p))
    assert value == pytest.approx(sum(parts), rel=1e-13, abs=0.0)
    columns.clear()
    zero = SpectralField(mb, 2, np.zeros_like(u.data))
    assert en._frame_form(zero, zero, mats,
                          turn=True).tolist() == [0.0] * levels
    assert columns == []


@pytest.mark.parametrize("n1, n2", [(8, 8), (6, 4)])
def test_frame_kernel_matches_cartesian_split(rng, n1, n2):
    """At every stored mode, Nyquist rows included, the frame kernel's
    elastic (random mu, lam), viscous (nu, 0) and Darcy forms of a random
    single-mode field equal the Cartesian evaluation of the forms' splits
    at the mode's symbols; and the frame matrices are D^-1 A_m D with an
    imaginary part of exactly zero."""
    mb, mf = VerticalMesh("biot", 4), VerticalMesh("fluid", 6)
    mu, lam, nu = rng.uniform(0.5, 2.0, 3)
    every = slice(None)
    forms = [
        (mb, 2, 3, elastic_split, (mb, mu, lam),
         lambda f: en.elastic_norm_sq(f, make_params(mu=mu, lam=lam))),
        (mf, 2, 3, elastic_split, (mf, nu, 0.0),
         lambda f: en.viscous_norm_sq(f, nu)),
        (mb, 1, 1, darcy_split, (mb,), en.grad_norm_sq),
    ]
    w = mode_weights(n1, n2)
    for mesh, degree, ncomp, split, args, norm in forms:
        dense = dense_split(split(*args), every, every)
        nn = mesh.n_nodes(degree)
        D = np.diag(np.where(np.arange(ncomp * nn) < nn, 1j, 1.0)
                    if ncomp == 3 else np.ones(nn))
        for m, F in zip(FRAME_MONOMIALS, frame_split(split, *args)):
            turned = np.linalg.inv(D) @ dense[MONOMIALS.index(m)] @ D
            assert np.all(turned.imag == 0.0)
            assert np.array_equal(turned.real, F.toarray())
        for idx, k in enumerate(mode_table(n1, n2)):
            k1i, j = divmod(idx, n2)
            fld = random_field(rng, mesh, degree, n1, n2, ncomp)
            one = np.zeros_like(fld.data)
            one[k1i, j] = fld.data[k1i, j]
            prof = one[k1i, j].ravel()
            A = np.tensordot(monomial_weights(2 * np.pi * k.k1,
                                              2 * np.pi * k.k2), dense, 1)
            want = w[k1i] * np.vdot(prof, A @ prof).real
            got = norm(SpectralField(mesh, degree, one))
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)


REGIMES_16 = [dict(zip(("rho_b", "rho_f", "delta", "c0"),
                       (rb, rf, de, c0)))
              for rb in (0.0, 1.0) for rf in (0.0, 0.5)
              for de in (0.0, 0.25) for c0 in (0.0, 0.75)]


@pytest.mark.parametrize("regime", REGIMES_16)
def test_dissipativity_all_sign_patterns(regime):
    """Source-free runs never gain energy, in every degenerate combination.
    audit() raises BalanceViolation if the inequality fails at any step."""
    cfg = make_config(params=make_params(**regime), t_end=3 / 16)
    fns = smooth_initial_callables(alpha=cfg.params.alpha)
    data = InitialData.from_callables(cfg, **fns)
    traj = run(cfg, data)
    rep = en.audit(traj, cfg.params)
    assert max(rep.residual) <= 1e-10 * max(rep.e[0], 1.0)
    assert all(rep.e[n] <= rep.e[0] + 1e-10 for n in range(len(rep.e)))


def test_audit_detects_injected_violation():
    cfg = make_config()
    fns = smooth_initial_callables(alpha=cfg.params.alpha)
    traj = run(cfg, InitialData.from_callables(cfg, **fns))
    # corrupt a late state so its energy exceeds the budget
    traj.states[-1].u.data *= 10.0
    with pytest.raises(BalanceViolation):
        en.audit(traj, cfg.params)


def test_audit_blocks_match_single_level_calls(monkeypatch):
    """Across a block boundary (11 levels: blocks of 8 and 3, the second
    stacked with the level before it) the audit's e, d, slip and
    Kelvin-Voigt term equal single-level calls, and each level's energy is
    evaluated once."""
    from dataclasses import replace
    cfg = make_config(t_end=10 / 16)
    p, dt = cfg.params, cfg.disc.dt
    fns = smooth_initial_callables(alpha=p.alpha)
    traj = run(cfg, InitialData.from_callables(cfg, **fns))
    states = traj.states
    assert len(states) == 11
    levels = []
    energy = en.energy

    def counted(s, *args):
        levels.append(int(np.prod(s.u.data.shape[:-4])))
        return energy(s, *args)

    monkeypatch.setattr(en, "energy", counted)
    rep = en.audit(traj, p)
    monkeypatch.undo()
    assert sum(levels) == 11
    pairs = list(zip(states, states[1:]))
    expected = {
        "e": [en.energy(s, p) for s in states],
        "d": np.cumsum([0.0] + [en.dissipation_increment(a, b, p, dt)
                                for a, b in pairs]),
        "slip": [0.0] + [en.slip_norm(a, b, dt) for a, b in pairs],
        "kelvin_voigt": [0.0] + [p.delta * en.elastic_norm_sq(
            replace(b.u, data=(b.u.data - a.u.data) / dt), p)
            for a, b in pairs],
    }
    got = {"e": rep.e, "d": rep.d_cum, "slip": rep.slip,
           "kelvin_voigt": rep.breakdown["kelvin_voigt"]}
    for key, want in expected.items():
        np.testing.assert_allclose(got[key], want, rtol=1e-13,
                                   atol=1e-15 * max(np.abs(want)),
                                   err_msg=key)


def test_audit_evaluates_each_norm_once_per_level(monkeypatch):
    """Across a block boundary (11 levels), one audit's elastic_norm_sq sees
    each state's u once and each increment's D_t u once, and the Darcy,
    viscous and L2 norms see each state once (three L2 terms when rho_b, c0
    and rho_f are positive): the breakdown is read from the terms energy()
    and dissipation_increment() sum, not evaluated again."""
    cfg = make_config(t_end=10 / 16)
    p, dt = cfg.params, cfg.disc.dt
    traj = run(cfg, InitialData.from_callables(
        cfg, **smooth_initial_callables(alpha=p.alpha)))
    us = [s.u.data for s in traj.states]
    dus = [(b - a) / dt for a, b in zip(us, us[1:])]
    seen = {"elastic_norm_sq": [], "grad_norm_sq": [], "viscous_norm_sq": [],
            "l2_norm_sq": []}
    for name, levels in seen.items():
        def counted(fld, *args, norm=getattr(en, name), levels=levels):
            levels.extend(fld.data.reshape((-1,) + fld.data.shape[-4:]))
            return norm(fld, *args)
        monkeypatch.setattr(en, name, counted)
    en.audit(traj, p)
    monkeypatch.undo()
    elastic = seen["elastic_norm_sq"]
    assert len(elastic) == len(us) + len(dus)
    for targets in (us, dus):
        assert [sum(np.array_equal(x, t) for x in elastic)
                for t in targets] == [1] * len(targets)
    assert len(seen["grad_norm_sq"]) == len(seen["viscous_norm_sq"]) == 11
    assert len(seen["l2_norm_sq"]) == 3 * 11


@pytest.mark.parametrize("regime", REGIMES_16)
def test_audit_sums_its_breakdown(regime):
    """Bit for bit, each e[n] is the sum of its four energy terms and each
    d_cum step is dt times the sum of its four dissipation terms, in the
    order energy() and dissipation_increment() add them."""
    cfg = make_config(params=make_params(**regime), t_end=3 / 16)
    dt = cfg.disc.dt
    traj = run(cfg, InitialData.from_callables(
        cfg, **smooth_initial_callables(alpha=cfg.params.alpha)))
    rep = en.audit(traj, cfg.params)
    b = rep.breakdown
    for n, e in enumerate(rep.e):
        assert e == b["elastic"][n] + b["kinetic_b"][n] + b["storage"][n] \
            + b["kinetic_f"][n]
    for n in range(1, len(rep.e)):
        d_inc = dt * (b["darcy"][n] + b["viscous"][n] + b["kelvin_voigt"][n]
                      + b["slip"][n])
        assert rep.d_cum[n] == rep.d_cum[n - 1] + d_inc


def test_driven_audit_reports_finite_constant():
    cfg = make_config()
    src = SourceSpec(F_b=(None, None,
                          lambda x1, x2, x3, t: np.sin(2 * np.pi * x1)
                          * (1 - x3) * np.cos(t)))
    from dataclasses import replace
    cfg = replace(cfg, sources=src)
    traj = run(cfg, InitialData())
    rep = en.audit(traj, cfg.params)
    assert rep.driven_constant is not None
    assert np.isfinite(rep.driven_constant)
    assert rep.driven_constant >= 0.0
    # a driven run from rest gains energy yet stays within the dual bound
    assert max(rep.e) > 0.0


_DRIVEN_SOURCES = {
    "F_b": SourceSpec(F_b=(None, None, lambda x1, x2, x3, t: np.sin(
        2 * np.pi * x1) * (1 - x3) * np.cos(t))),
    "F_b, S, F_f": SourceSpec(
        F_b=(None, None, lambda x1, x2, x3, t: np.sin(2 * np.pi * x1)
             * (1 - x3) * np.cos(t)),
        S=lambda x1, x2, x3, t: np.cos(2 * np.pi * x2) * (1 - x3) * x3
        * (1 + t),
        F_f=(lambda x1, x2, x3, t: np.cos(2 * np.pi * (x1 + x2)) * (1 + x3)
             * np.sin(t + 1), None, None)),
}


@pytest.mark.parametrize("name, expected", [
    ("F_b", 0.03129031033086524),
    ("F_b, S, F_f", 0.03873156583150942),
])
def test_driven_constant_matches_recorded_value(name, expected):
    """The driven constant of make_config() under these sources, recorded
    from the implementation that rebuilt every mode's dual-norm Gram matrix
    (and, for F_f, its divergence-free basis) at every step.  The first
    source set is the one of test_driven_audit_reports_finite_constant."""
    from dataclasses import replace
    cfg = replace(make_config(), sources=_DRIVEN_SOURCES[name])
    rep = en.audit(run(cfg, InitialData()), cfg.params)
    assert rep.driven_constant == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_audit_samples_each_source_once_per_step(monkeypatch):
    """The run samples F_b, S and F_f once per step and keeps them on the
    trajectory; the source work and the dual-source bound read them there,
    and the audit samples nothing."""
    import bsqs.spectral
    from dataclasses import replace
    cfg = replace(make_config(), sources=_DRIVEN_SOURCES["F_b, S, F_f"])
    calls = []
    sample = bsqs.spectral.sample_function

    def counted(*args, **kwargs):
        calls.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(bsqs.spectral, "sample_function", counted)
    traj = run(cfg, InitialData())
    assert len(calls) == cfg.disc.n_steps * 3
    calls.clear()
    rep = en.audit(traj, cfg.params)
    assert rep.driven_constant is not None
    assert calls == []


def test_run_and_audit_sample_the_sources_at_the_same_times(monkeypatch):
    """Each step's sources are sampled once, by the run, at the time stamped
    on its level; the audit reads them from the trajectory and samples
    nothing.  At dt = 0.1 the stamps, sums of dt, part from n * dt at steps
    6, 7 and 8."""
    import bsqs.spectral
    cfg = replace(make_config(dt=0.1, t_end=0.8), sources=SourceSpec(
        S=lambda x1, x2, x3, t: np.cos(2 * np.pi * x2) * x3 * (1 + t)))
    times = []
    sample = bsqs.spectral.sample_function

    def recorded(*args, t=0.0, **kwargs):
        times.append(t)
        return sample(*args, t=t, **kwargs)

    monkeypatch.setattr(bsqs.spectral, "sample_function", recorded)
    traj = run(cfg, InitialData())
    in_run = list(times)
    times.clear()
    en.audit(traj, cfg.params)
    assert len(in_run) == cfg.disc.n_steps
    assert in_run == traj.times[1:]
    assert in_run != [n * cfg.disc.dt for n in range(1, cfg.disc.n_steps + 1)]
    assert times == []


def test_mass_pairing_matches_dense_per_level_sum(rng):
    """The two-field frame kernel with the mass Gram equals a dense
    per-level Re sum over modes of w a^H G b, for fields whose live modes
    differ and one level where a is zero; each level's value is the one of
    that level alone.  With no common live mode it is exactly zero."""
    n1, n2, levels = 6, 4, 3
    mb = VerticalMesh("biot", 4)
    a = random_field(rng, mb, 2, n1, n2, 3, (levels,))
    b = random_field(rng, mb, 2, n1, n2, 3, (levels,))
    fa = a.data.reshape(levels, 16, 3, -1)
    fb = b.data.reshape(levels, 16, 3, -1)
    fa[:, :6] = 0.0
    fb[:, 10:] = 0.0
    fa[1] = 0.0
    G = mass(mb, 2).toarray()
    w = mode_weights(n1, n2)[:, None]
    dense = [float(np.sum(w * np.einsum("kjcn,nm,kjcm->kj", a.data[n].conj(),
                                        G, b.data[n]).real))
             for n in range(levels)]
    value = en._mass_pairing(a, b)
    assert value.tolist() == pytest.approx(dense, rel=1e-13, abs=0.0)
    assert value[1] == 0.0
    for n in range(levels):
        one = en._mass_pairing(replace(a, data=a.data[n]),
                               replace(b, data=b.data[n]))
        assert one == value[n]
    # a on modes 0-5 only, b on modes 6-9 only
    fa[:, 6:] = 0.0
    fa[:, :6] = 1.0
    fb[:, :6] = 0.0
    assert en._mass_pairing(a, b).tolist() == [0.0] * levels


@pytest.mark.parametrize("kept", [(1,), (2,)])
def test_dual_bound_factors_only_the_shells_a_load_reaches(monkeypatch,
                                                           kept):
    """S = cos 2 pi x2 and F_f = cos 2 pi x2 e_1 load the modes (0, +-1)
    only: the dual source bound factors one band matrix per form, for the
    one |k|^2 = 1 of the six on the 4 x 4 grid."""
    sources = SourceSpec(
        S=lambda x1, x2, x3, t: np.cos(2 * np.pi * x2) * x3 * (1 + t),
        F_f=(lambda x1, x2, x3, t: np.cos(2 * np.pi * x2) * (1 + x3),
             None, None))
    cfg = replace(make_config(), sources=sources)
    traj = run(cfg, InitialData())
    s0 = traj.stacked.levels(0)
    loads = [f if i in kept else None for i, f in enumerate(traj.sources)]
    factored = []
    factor = BandForm.factor

    def counted(*args, **kwargs):
        factored.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(BandForm, "factor", counted)
    assert en._dual_source_quadrature(s0, cfg.params, loads, cfg.disc.dt) > 0
    assert len(factored) == 1


def null_space_dual_quadrature(s0, p, sampled, dt):
    """The a-priori source bound's quadrature as it was first formulated:
    per distinct |k|^2 a dense Gram matrix of the Darcy form and, for F_f,
    the viscous form on a null_space basis of the divergence pairing, at the
    complex frame symbols (2 pi |k|, 0), with dense solves."""
    n1, n2 = s0.u.lateral_shape
    mb, mf = s0.u.mesh, s0.v.mesh
    bm, fm = dense_mats(mb), dense_mats(mf)
    w = np.repeat(mode_weights(n1, n2), n2)
    modes = mode_table(n1, n2)
    first, shell, c, s = wave_frames(modes)
    total = 0.0
    S_loads, Ff_loads = [], []
    for Fb, S, Ff in sampled:
        if Fb is not None:
            quad = np.einsum("kjcn,kjcn->kj", Fb.data.conj(),
                             Fb.data @ bm["M"]).real
            total += dt * float(np.sum(mode_weights(n1, n2)[:, None] * quad))
        if S is not None:
            S_loads.append(S.data @ bm["Mp"])
        if Ff is not None:
            Ff_loads.append(Ff.data @ fm["M"])

    def dual_sum(L, free, setup):
        L = L[:, free]
        out = 0.0
        for g, idx in enumerate(first):
            members = np.flatnonzero(shell == g)
            Z, G = setup(2 * np.pi * np.hypot(*modes[idx]))
            load = np.moveaxis(L[members], 0, 1).reshape(len(free), -1)
            zl = load if Z is None else Z.conj().T @ load
            per = np.einsum("is,is->s", zl.conj(), np.linalg.solve(G, zl))
            out += w[members] @ per.real.reshape(members.size, -1).sum(axis=1)
        return dt * out

    def stacked(loads):
        return np.stack(loads, axis=-1).reshape(len(w), -1, len(loads))

    if S_loads:
        pidx = np.flatnonzero(mb.free_mask(1))
        darcy = dense_split(darcy_split(mb), pidx, pidx)
        total += dual_sum(stacked(S_loads), pidx, lambda kap: (
            None, np.tensordot(monomial_weights(kap, 0.0), darcy, 1)))
    if Ff_loads:
        nn = mf.n_nodes(2)
        vidx = np.flatnonzero(mf.free_mask(2))
        free = np.concatenate([a * nn + vidx for a in range(3)])
        viscous = dense_split(elastic_split(mf, p.nu, 0.0), free, free)
        div = dense_split(divergence_split(mf), slice(None), free)

        def viscous_setup(kap):
            weights = monomial_weights(kap, 0.0)
            AV = np.tensordot(weights, viscous, 1)
            Z = scipy.linalg.null_space(np.tensordot(weights, div, 1))
            return Z, Z.conj().T @ AV @ Z

        L = stacked(Ff_loads).reshape(len(w), 3, nn, -1)
        cc, ss = c[:, None, None], s[:, None, None]
        a, b = L[:, 0], L[:, 1]
        L[:, 0], L[:, 1] = cc * a + ss * b, cc * b - ss * a
        total += dual_sum(L.reshape(len(w), 3 * nn, -1), free, viscous_setup)
    return total


@pytest.mark.parametrize("n1, n2", [(4, 4), (6, 4)])
def test_dual_source_bound_matches_null_space_formulation(n1, n2):
    """The band-LU dual bound (one real saddle-point or Darcy factorization
    per |k|^2) equals the null-space, dense-Gram formulation."""
    from dataclasses import replace
    cfg = replace(make_config(n1=n1, n2=n2),
                  sources=_DRIVEN_SOURCES["F_b, S, F_f"])
    states = run(cfg, InitialData()).states
    s0, dt = states[0], cfg.disc.dt
    sampled = [sample_sources(cfg.sources, n1, n2, s0.u.mesh, s0.v.mesh, s.t)
               for s in states[1:]]
    # the same samples, level-stacked as the audit passes them
    stacked = [replace(fields[0], data=np.stack([f.data for f in fields]))
               for fields in zip(*sampled)]
    for kept in ((0, 1, 2), (1,), (2,)):
        only = [tuple(f if i in kept else None for i, f in enumerate(fs))
                for fs in sampled]
        want = null_space_dual_quadrature(s0, cfg.params, only, dt)
        assert want > 0.0
        loads = [f if i in kept else None for i, f in enumerate(stacked)]
        assert en._dual_source_quadrature(s0, cfg.params, loads, dt) == \
            pytest.approx(want, rel=1e-12, abs=0.0)


def test_breakdown_keys_and_lengths():
    cfg = make_config()
    fns = smooth_initial_callables(alpha=cfg.params.alpha)
    traj = run(cfg, InitialData.from_callables(cfg, **fns))
    rep = en.audit(traj, cfg.params)
    for key in ("elastic", "storage", "kinetic_b", "kinetic_f", "darcy",
                "viscous", "slip", "kelvin_voigt"):
        assert len(rep.breakdown[key]) == len(rep.times)
    assert rep.driven_constant is None


def test_slip_norm_zero_for_equal_traces():
    cfg = make_config()
    s = initialize(cfg, InitialData())
    assert en.slip_norm(s, s, cfg.disc.dt) == 0.0


def test_generator_certificate_normalization():
    G = np.array([[0.0, 1.0], [-1.0, 0.0]])   # skew: Hermitian part zero
    W = np.eye(2)
    assert en.generator_dissipativity_check(G, W) == pytest.approx(0.0)
    G2 = np.eye(2)                            # expansive: ratio 1
    assert en.generator_dissipativity_check(G2, W) == pytest.approx(1.0)


def test_interface_residuals_keys_and_decay():
    cfg = make_config(params=make_params(rho_b=0.0, rho_f=0.0,
                                         delta=0.0, c0=0.0))
    fns = smooth_initial_callables(alpha=cfg.params.alpha)
    data = InitialData.from_callables(cfg, u0=fns["u0"], d0=fns["d0"])
    traj = run(cfg, data)
    r = interface_residuals(traj.states[-2], traj.states[-1], cfg.params,
                            cfg.disc.dt)
    assert set(r) == {"kinematic", "slip", "normal_stress"}
    assert all(np.isfinite(v) and v >= 0 for v in r.values())
