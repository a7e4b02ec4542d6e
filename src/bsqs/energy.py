"""Discrete energies, dissipation increments, balance audits, interface
residuals, and the generator dissipativity certificate.

All norms are Parseval mode sums: a weighted sum over stored modes of
profile^H * (vertical quadratic form) * profile, with weight 2 for modes whose
conjugate partner is not stored.  They take fields whose data carry leading
(time level) axes and then return one value per level.  energy() and
dissipation_increment() also hand back the terms they sum, and the balance
audit reads its breakdown from those, so it evaluates each norm once per
level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse

from .config import PhysicalParams, SourceSpec
from .errors import BalanceViolation
from .fem1d import evaluate_derivative, mass, operator_matrix
from .mode_assembly import (MONOMIALS, _mats, darcy_split, dense_split,
                            divergence_split, elastic_split,
                            monomial_weights, wave_frames)
from .spectral import (SpectralField, lateral_l2_norm_sq, mode_table,
                       mode_weights, parseval_weights_grid, sample_sources)

TWO_PI = 2.0 * np.pi

# columns of the monomials kap1^2, kap2^2 in _mode_monomials
_K11, _K22 = (MONOMIALS.index(m) for m in ((2, 0), (0, 2)))


@lru_cache(maxsize=None)
def _mode_monomials(n1: int, n2: int) -> np.ndarray:
    """kap**m of every stored mode (rows, storage order) and monomial
    (columns, MONOMIALS order)."""
    kap = TWO_PI * np.array(mode_table(n1, n2), dtype=float)
    powers = monomial_weights(kap[:, 0], kap[:, 1])
    powers.setflags(write=False)
    return powers


def _value(out):
    """A per-level result as a Python float when there is one level and no
    leading axis, else as the array of one value per level."""
    return float(out) if np.ndim(out) == 0 else out


def _parseval_form(fld: SpectralField, terms):
    """Sum over stored modes of weight * Re(profile^H A(kap) profile) for
    A(kap) = sum over terms (c, A) of c * A, where A is a mode-independent
    (sparse) matrix on the component-major profile and c its per-mode (or
    constant) coefficient.

    Any leading axes of fld.data (time levels, say) are kept: the result has
    one value per level, or is a float without them.  Each term is one
    product with the C-contiguous (ncomp * nn, levels * modes) profile matrix
    P, and Re(P^H A P) per column is a real dot product of the two matrices
    viewed as interleaved (re, im) pairs, so no conjugate is formed."""
    lead = fld.data.shape[:-4]
    n1, n2 = fld.lateral_shape
    size = fld.data.shape[-2] * fld.data.shape[-1]
    P = np.ascontiguousarray(fld.data.reshape(-1, size).T)
    Pr = P.view(float)
    quad = 0.0
    for c, A in terms:
        re = np.einsum("ij,ij->j", Pr, (A @ P).view(float))
        re = re.reshape(-1, 2).sum(axis=1).reshape(lead + (-1,))
        quad = quad + c * re
    return _value(quad @ np.repeat(mode_weights(n1, n2), n2))


@lru_cache(maxsize=None)
def _gram(mesh, degree: int, ncomp: int = 1, derivative: int = 0):
    """Sparse (banded) vertical Gram matrix of the values (derivative 0) or
    derivatives (1) of a degree-`degree` field, block-diagonal over its
    `ncomp` components on the component-major profile."""
    G = scipy.sparse.csr_matrix(
        operator_matrix(mesh, degree, degree, derivative, derivative))
    return scipy.sparse.kron(scipy.sparse.identity(ncomp), G, format="csr")


def elastic_norm_sq(u: SpectralField, p: PhysicalParams):
    """a_E(u, u) = 2 mu ||D(u)||^2 + lam ||div u||^2 over all modes at once,
    from the monomial split of the form (per level of any leading axes)."""
    return _parseval_form(u, zip(_mode_monomials(*u.lateral_shape).T,
                                 elastic_split(u.mesh, p.mu, p.lam)))


def viscous_norm_sq(v: SpectralField, nu: float):
    """2 nu ||D(v)||^2 (the Stokes dissipation quadratic form)."""
    return _parseval_form(v, zip(_mode_monomials(*v.lateral_shape).T,
                                 elastic_split(v.mesh, nu, 0.0)))


def grad_norm_sq(p_b: SpectralField):
    """||grad p||^2 with lateral symbols: sum kappa^2 |p|^2 + |p'|^2."""
    powers = _mode_monomials(*p_b.lateral_shape)
    kap_sq = powers[:, _K11] + powers[:, _K22]
    return _parseval_form(p_b, ((1.0, _gram(p_b.mesh, 1, derivative=1)),
                                (kap_sq, _gram(p_b.mesh, 1))))


def l2_norm_sq(fld: SpectralField):
    return _parseval_form(fld, ((1.0, _gram(fld.mesh, fld.degree,
                                            fld.ncomp)),))


def l2_norm(fld: SpectralField) -> float:
    return float(np.sqrt(max(l2_norm_sq(fld), 0.0)))


def _trace_norm_sq(values):
    """Parseval sum of squared interface trace coefficients, values shape
    (..., n1h, n2, ncomp), summed over modes and components; any leading
    (level) axes are kept."""
    n1h, n2 = values.shape[-3:-1]
    w = mode_weights(2 * (n1h - 1), n2)
    return _value((np.abs(values) ** 2).sum(axis=(-2, -1)) @ w)


def _slip_trace(s_prev, s_next, dt):
    """Tangential slip coefficients (v^{n+1} - Dt u) . e_j at x3 = 0,
    shape (..., n1h, n2, 2) with any leading (level) axes kept."""
    iu = s_next.u.mesh.interface_node(2)
    iv = s_next.v.mesh.interface_node(2)
    dtu = (s_next.u.data[..., :2, iu] - s_prev.u.data[..., :2, iu]) / dt
    return s_next.v.data[..., :2, iv] - dtu


def slip_norm(s_prev, s_next, dt):
    return _value(np.sqrt(_trace_norm_sq(_slip_trace(s_prev, s_next, dt))))


def energy(s, p: PhysicalParams, terms=None):
    """e = (1/2)[||u||_E^2 + rho_b ||w||^2 + c0 ||p_b||^2 + rho_f ||v||^2],
    summed in that order from its halved terms.

    `terms`, if given, is a dict that receives those halved terms under
    "elastic", "kinetic_b", "storage" and "kinetic_f" (one value per level,
    like e).  A term whose coefficient vanishes is zero and not evaluated."""
    halves = {"elastic": 0.5 * elastic_norm_sq(s.u, p)}
    zero = _value(np.zeros_like(halves["elastic"]))
    # w is None iff rho_b = 0
    for key, coef, fld in (("kinetic_b", p.rho_b, s.w),
                           ("storage", p.c0, s.p_b),
                           ("kinetic_f", p.rho_f, s.v)):
        halves[key] = (0.5 * coef * l2_norm_sq(fld)
                       if coef > 0 and fld is not None else zero)
    if terms is not None:
        terms.update(halves)
    return sum(halves.values())


def dissipation_increment(s_prev, s_next, p: PhysicalParams, dt, terms=None):
    """d_inc = dt [k ||grad p^{n+1}||^2 + 2 nu ||D(v^{n+1})||^2
    + delta ||Dt u||_E^2 + beta ||slip||^2_interface], summed in that order.

    `terms`, if given, is a dict that receives the four bracketed terms
    under "darcy", "viscous", "kelvin_voigt" and "slip" (one value per
    increment, like d_inc).  The Kelvin-Voigt term is zero, not evaluated,
    when delta = 0."""
    darcy = p.k_perm * grad_norm_sq(s_next.p_b)
    viscous = viscous_norm_sq(s_next.v, p.nu)
    kv = _value(np.zeros_like(darcy))
    if p.delta > 0:
        du = replace(s_next.u, data=(s_next.u.data - s_prev.u.data) / dt)
        kv = p.delta * elastic_norm_sq(du, p)
    slip = p.beta * _trace_norm_sq(_slip_trace(s_prev, s_next, dt))
    if terms is not None:
        terms.update(darcy=darcy, viscous=viscous, kelvin_voigt=kv, slip=slip)
    return dt * (darcy + viscous + kv + slip)


@dataclass
class EnergyReport:
    times: list = field(default_factory=list)
    e: list = field(default_factory=list)
    d_cum: list = field(default_factory=list)
    residual: list = field(default_factory=list)
    slip: list = field(default_factory=list)
    breakdown: dict = field(default_factory=dict)
    # empirical constant of the driven inequality (None for source-free runs)
    driven_constant: float | None = None


# the breakdown's (and energy.csv's) column order
_BREAKDOWN_KEYS = ("elastic", "storage", "kinetic_b", "kinetic_f",
                   "darcy", "viscous", "slip", "kelvin_voigt")

# Time levels per audit block.  Each block's norms are one product per form
# term; the block (with the level before it) is stacked in memory, so the
# audit's peak memory grows with this, not with the trajectory length.
_BLOCK = 8

_FIELDS = ("u", "w", "p_b", "v", "p_f")


def _stack(states):
    """One state whose fields carry the given states' levels on a leading
    axis (and whose t is the array of their times)."""
    fields = {k: None if getattr(states[0], k) is None else replace(
        getattr(states[0], k),
        data=np.stack([getattr(s, k).data for s in states]))
        for k in _FIELDS}
    return replace(states[0], t=np.array([s.t for s in states]), **fields)


def _levels(s, sl):
    """The levels `sl` (a slice) of a stacked state, as views."""
    fields = {k: None if getattr(s, k) is None else replace(
        getattr(s, k), data=getattr(s, k).data[sl]) for k in _FIELDS}
    return replace(s, t=s.t[sl], **fields)


def audit(traj, p: PhysicalParams, sources: SourceSpec = None) -> EnergyReport:
    """Populate the per-step balance report from the trajectory's states,
    sampling each step's sources once.  For source-free runs asserts the
    dissipation inequality e_n + d_n <= e_0 up to roundoff tolerance.

    The norms are evaluated over blocks of _BLOCK levels, stacked with the
    level before each block for the increments; each is evaluated once per
    level, by energy() and dissipation_increment(), and the breakdown is the
    terms they sum.  The sums, the source work and the balance check run
    level by level, so a violation is raised at the first level that breaks
    the inequality."""
    states = traj.states
    dt = states[1].t - states[0].t if len(states) > 1 else 0.0
    rep = EnergyReport(breakdown={k: [] for k in _BREAKDOWN_KEYS})
    source_free = sources is None or sources.is_zero()
    n1, n2 = states[0].u.lateral_shape
    mb, mf = states[0].u.mesh, states[0].v.mesh
    sampled = []
    d_cum = 0.0
    work = 0.0
    # level 0 ends no increment: its Darcy and viscous terms are evaluated
    # from its own state, and its Kelvin-Voigt and slip terms are zero
    first = {"darcy": p.k_perm * grad_norm_sq(states[0].p_b),
             "viscous": viscous_norm_sq(states[0].v, p.nu),
             "kelvin_voigt": 0.0, "slip": 0.0}
    for start in range(0, len(states), _BLOCK):
        lo = max(start - 1, 0)
        blk = _stack(states[lo:start + _BLOCK])
        level_terms, inc_terms = {}, {}
        e = energy(_levels(blk, slice(start - lo, None)), p,
                   level_terms).tolist()
        if len(blk.t) > 1:
            # increment j of the block ends at its level lo + 1 + j
            prev = _levels(blk, slice(None, -1))
            nxt = _levels(blk, slice(1, None))
            d_inc = dissipation_increment(prev, nxt, p, dt,
                                          inc_terms).tolist()
            slip = slip_norm(prev, nxt, dt).tolist()
        level_terms = {k: v.tolist() for k, v in level_terms.items()}
        inc_terms = {k: v.tolist() for k, v in inc_terms.items()}
        for i, s in enumerate(states[start:start + _BLOCK]):
            n = start + i
            j = n - lo - 1
            if n == 0:
                e0 = e[0]
                tol = 1e-10 * max(e0, 1.0)
            else:
                d_cum += d_inc[j]
                if not source_free:
                    sampled.append(
                        sample_sources(sources, n1, n2, mb, mf, s.t))
                    work += dt * _source_work(states[n - 1], s, sampled[-1],
                                              dt)
            r_n = e[i] + d_cum - e0 - work
            if source_free and r_n > tol:
                raise BalanceViolation(n, r_n)
            rep.times.append(s.t)
            rep.e.append(e[i])
            rep.d_cum.append(d_cum)
            rep.residual.append(r_n)
            rep.slip.append(slip[j] if n else 0.0)
            for k, vals in level_terms.items():
                rep.breakdown[k].append(vals[i])
            for k, at_0 in first.items():
                rep.breakdown[k].append(inc_terms[k][j] if n else at_0)
    if not source_free:
        bound = e0 + _dual_source_quadrature(states[0], p, sampled, dt)
        peak = max(en + dn for en, dn in zip(rep.e, rep.d_cum))
        rep.driven_constant = peak / max(bound, 1e-300)
    return rep


def _pairing(load_field, state_field, gram) -> float:
    """Real L2 pairing of a sampled source with a state field, by modes."""
    n1, n2 = state_field.lateral_shape
    w = parseval_weights_grid(n1, n2)
    vals = np.einsum("kjcn,kjcn->kj", np.conj(state_field.data),
                     load_field.data @ gram.T).real
    return float(np.sum(w * vals))


def _source_work(prev, s, fields, dt):
    """(F_b, Dt u) + (S, p^{n+1}) + (F_f, v^{n+1}) at the implicit level, for
    the sources (Fb, S, Ff) sampled at that level."""
    Fb, S, Ff = fields
    total = 0.0
    if Fb is not None:
        du = replace(s.u, data=(s.u.data - prev.u.data) / dt)
        total += _pairing(Fb, du, mass(s.u.mesh, 2))
    if S is not None:
        total += _pairing(S, s.p_b, mass(s.p_b.mesh, 1))
    if Ff is not None:
        total += _pairing(Ff, s.v, mass(s.v.mesh, 2))
    return total


def _dual_source_quadrature(s0, p, sampled, dt):
    """Time quadrature of the source norms entering the a-priori bound:
    ||F_b||_{L2}^2 plus discrete dual norms of S (against the Darcy form) and
    F_f (against the viscous form on the divergence-free subspace), from the
    sources (Fb, S, Ff) sampled at each step's implicit level.

    The dual norms need a Gram matrix and, for F_f, a basis of the
    divergence-free subspace.  In the frame of a mode's wave vector both
    depend only on |k|^2 (the forms are laterally isotropic, and a turn of
    the frame is orthogonal, so the dual norm does not depend on it): each
    distinct |k|^2 is set up once, at the frame symbols (2 pi |k|, 0), and
    applied to the frame-turned loads of all its modes and steps at once."""
    n1, n2 = s0.u.lateral_shape
    mb, mf = s0.u.mesh, s0.v.mesh
    bm = _mats(mb)
    fm = _mats(mf)
    w = np.repeat(mode_weights(n1, n2), n2)
    modes = mode_table(n1, n2)
    first, shell, c, s = wave_frames(modes)
    total = 0.0
    S_loads, Ff_loads = [], []
    for Fb, S, Ff in sampled:
        if Fb is not None:
            total += dt * lateral_l2_norm_sq(Fb, bm["M"])
        if S is not None:
            S_loads.append(S.data @ bm["Mp"])
        if Ff is not None:
            Ff_loads.append(Ff.data @ fm["M"])

    def dual_sum(L, free, setup):
        """dt * sum over modes and steps of w * load^H G^{-1} load on the
        free DOFs, for loads L (modes, profile, steps) and, per distinct
        |k|^2, (basis, G) = setup(frame symbol) (basis None: all)."""
        L = L[:, free]
        out = 0.0
        for g, idx in enumerate(first):
            members = np.flatnonzero(shell == g)
            Z, G = setup(TWO_PI * np.hypot(*modes[idx]))
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
            DivF = np.tensordot(weights, div, 1)
            Z = scipy.linalg.null_space(DivF)
            return Z, Z.conj().T @ AV @ Z

        # the loads' (F_f1, F_f2) components turned into each mode's frame
        L = stacked(Ff_loads).reshape(len(w), 3, nn, -1)
        cc, ss = c[:, None, None], s[:, None, None]
        a, b = L[:, 0], L[:, 1]
        L[:, 0], L[:, 1] = cc * a + ss * b, cc * b - ss * a
        total += dual_sum(L.reshape(len(w), 3 * nn, -1), free, viscous_setup)
    return total


def generator_dissipativity_check(G, W):
    """Max eigenvalue of the Hermitian part of W G, normalized by ||W G||.
    The certificate passes when the result is <= 1e-8."""
    WG = W @ G
    H = 0.5 * (WG + WG.conj().T)
    lam = float(np.max(scipy.linalg.eigvalsh(H)))
    scale = float(np.linalg.norm(WG, 2))
    return lam / max(scale, 1e-300)


def interface_residuals(s_prev, s_next, p: PhysicalParams, dt):
    """L2(interface) norms of the pointwise residuals of the kinematic,
    tangential-slip, and normal-stress coupling conditions on solver output.

    Returns dict with keys "kinematic", "slip", "normal_stress".
    """
    mb, mf = s_next.u.mesh, s_next.v.mesh
    n1, n2 = s_next.u.lateral_shape
    iu = mb.interface_node(2)
    iv = mf.interface_node(2)
    ipb = mb.interface_node(1)
    ipf = mf.interface_node(1)
    n1h = n1 // 2 + 1
    # traces (n1h, n2, ncomp), as _trace_norm_sq takes them
    r1 = np.zeros((n1h, n2, 1), dtype=complex)
    r2 = np.zeros((n1h, n2, 2), dtype=complex)
    r4 = np.zeros((n1h, n2, 1), dtype=complex)
    dtu = (s_next.u.data - s_prev.u.data) / dt
    for idx, m in enumerate(mode_table(n1, n2)):
        k1i, j = divmod(idx, n2)
        kap = (TWO_PI * m.k1, TWO_PI * m.k2)
        pb = s_next.p_b.data[k1i, j, 0]
        v = s_next.v.data[k1i, j]
        # second-order one-sided stencil so the probe's own truncation error
        # does not dominate the interface mismatch being measured
        h = 1.0 / mb.ncells
        dpb = (-3.0 * pb[ipb] + 4.0 * pb[ipb + 1] - pb[ipb + 2]) / (2.0 * h)
        dv = [evaluate_derivative(mf, 2, v[a], 0.0) for a in range(3)]
        slip = [v[a][iv] - dtu[k1i, j, a, iu] for a in range(2)]
        r1[k1i, j] = -p.k_perm * dpb - (v[2][iv] - dtu[k1i, j, 2, iu])
        for a in range(2):
            r2[k1i, j, a] = p.beta * slip[a] \
                + p.nu * (dv[a] + 1j * kap[a] * v[2][iv])
        r4[k1i, j] = pb[ipb] - s_next.p_f.data[k1i, j, 0, ipf] \
            + 2.0 * p.nu * dv[2]
    return {
        "kinematic": float(np.sqrt(_trace_norm_sq(r1))),
        "slip": float(np.sqrt(_trace_norm_sq(r2))),
        "normal_stress": float(np.sqrt(_trace_norm_sq(r4))),
    }
