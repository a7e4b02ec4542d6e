"""Discrete energies, dissipation increments, balance audits and the
generator dissipativity certificate.

All norms and the audit's source pairings are Parseval mode sums, by one
kernel (_frame_form): a weighted sum over stored modes of profile^H *
(vertical form) * profile, with weight 2 for modes whose conjugate partner
is not stored.  Each mode's form is evaluated in the frame of its wave
vector, where it is real (mode_assembly.frame_split).  They take
fields whose data carry leading (time level) axes and then return one value
per level, which does not depend on the other levels evaluated with it.
energy() and dissipation_increment() also hand back the terms they sum, and
the balance audit reads its breakdown from those, so it evaluates each norm
once per level.  Its source terms read the sources the run sampled
(Trajectory.sources), and its a-priori bound factors one band matrix per
form and per distinct |k|^2 that a source load reaches, through
mode_assembly.BandForm as the step does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.linalg

from .config import PhysicalParams
from .errors import BalanceViolation
from .fem1d import mass
from .mode_assembly import (BandForm, Layout, _entries, darcy_split,
                            divergence_split, elastic_split, frame_split,
                            wave_frames)
from .spectral import (SeparableField, SpectralField, mode_table,
                       mode_weights, source_levels)

TWO_PI = 2.0 * np.pi


@lru_cache(maxsize=None)
def _frame_modes(n1: int, n2: int):
    """Per stored mode (storage order): the frame symbol kap = 2 pi |k| and
    the Parseval weight, and the frame (c, s) of the wave vector repeated
    over the (re, im) pair of each mode's coefficient."""
    modes = mode_table(n1, n2)
    _, _, c, s = wave_frames(modes)
    kap = TWO_PI * np.hypot(*np.array(modes, dtype=float).T)
    out = (kap, np.repeat(c, 2), np.repeat(s, 2),
           np.repeat(mode_weights(n1, n2), n2))
    for a in out:
        a.setflags(write=False)
    return out


def _value(out):
    """A per-level result as a Python float when there is one level and no
    leading axis, else as the array of one value per level."""
    return float(out) if np.ndim(out) == 0 else out


def _frame_form(a: SpectralField, b: SpectralField, mats, turn: bool):
    """Sum over stored modes of weight * Re(z^H A(kap) y), for the profiles
    z of a and y of b (a norm passes one field as both; b may also have no
    leading axes and is then paired with every level of a) and the real form
    A(kap) = sum over m of kap**m * mats[m] (mats: real CSR matrices on the
    component-major profile, the frame coefficients of mode_assembly's
    frame_split) at each mode's frame symbol kap = 2 pi |k|.

    Each field is copied once, transposed, into its (ncomp * nn, levels *
    live modes) profile matrix; with `turn` its (first, second) components
    are then turned into the wave-vector frame, (-i u_L, u_T).  Re(z^H A y)
    per column is a real dot product of the two matrices' interleaved
    (re, im) views, one real product per matrix.

    Only the modes that carry data at some level of both fields are copied,
    turned and multiplied: any other mode adds exactly zero, and the live
    modes' values are scattered into zeros before the weighted mode sum.

    Any leading axes of the fields' data (time levels, say) are kept: the
    result has one value per level, or is a float without them.  Every step
    of a level's value depends only on that level's columns, so it does not
    depend on how many levels are evaluated with it, nor on which modes are
    live at the other levels."""
    lead = a.data.shape[:-4]
    kap, c, s, w = _frame_modes(*a.lateral_shape)
    ncomp, nn = a.data.shape[-2:]
    Da, Db = (f.data.reshape(-1, kap.size, ncomp * nn) for f in (a, b))
    live = Da.any(axis=(0, 2))
    if b is not a:
        live &= Db.any(axis=(0, 2))
    if not live.any():
        return _value(np.zeros(lead))
    # with every mode live, P is the one copy of the whole field (an index
    # array would gather it once more)
    live = slice(None) if live.all() else np.flatnonzero(live)
    kap = kap[live]
    c, s = (x.reshape(-1, 2)[live].ravel() for x in (c, s))

    def profiles(D):
        P = np.ascontiguousarray(D[:, live].reshape(-1, ncomp * nn).T)
        if turn:
            # u1 and u2 as (re, im) float views (nn, levels, 2 * modes)
            V = P.view(float).reshape(ncomp, nn, -1, c.size)
            u1, u2 = V[0], V[1]
            u_l = u1 * c                # u_L = c u1 + s u2
            t = u2 * s
            u_l += t
            u2 *= c                     # u_T = c u2 - s u1, in place
            np.multiply(u1, s, out=t)
            u2 -= t
            np.multiply(u_l.view(complex), -1j, out=u1.view(complex))
        return P.view(float)

    Pa = profiles(Da)
    Pb = Pa if b is a else profiles(Db)
    quad = 0.0
    for power, A in enumerate(mats):
        if A.nnz:
            q = (np.einsum("ij,ij->j", Pa, A @ Pb) if Pb.shape == Pa.shape
                 else np.einsum("ilj,ij->lj", Pa.reshape(
                     len(Pa), len(Da), -1), A @ Pb)).reshape(-1, kap.size, 2)
            quad = quad + kap**power * q.sum(axis=-1)
    every = np.zeros((Da.shape[0], w.size))
    every[:, live] = quad
    return _value((every * w).sum(axis=-1).reshape(lead))


def elastic_norm_sq(u: SpectralField, p: PhysicalParams):
    """a_E(u, u) = 2 mu ||D(u)||^2 + lam ||div u||^2 over all modes at once,
    from the frame matrices of the form's split (per level of any leading
    axes)."""
    return _frame_form(u, u, frame_split(elastic_split, u.mesh, p.mu, p.lam),
                       turn=True)


def viscous_norm_sq(v: SpectralField, nu: float):
    """2 nu ||D(v)||^2 (the Stokes dissipation quadratic form)."""
    return _frame_form(v, v, frame_split(elastic_split, v.mesh, nu, 0.0),
                       turn=True)


def grad_norm_sq(p_b: SpectralField):
    """||grad p||^2 with lateral symbols: sum kappa^2 |p|^2 + |p'|^2, the
    Darcy form's split Kp + kappa^2 Mp."""
    return _frame_form(p_b, p_b, frame_split(darcy_split, p_b.mesh),
                       turn=False)


def _mass_pairing(a: SpectralField, b: SpectralField):
    """Re (a, b)_{L2} per level, from the mass Gram matrix."""
    return _frame_form(a, b, (mass(a.mesh, a.degree, a.ncomp),), turn=False)


def l2_norm_sq(fld: SpectralField):
    return _mass_pairing(fld, fld)


def l2_norm(fld: SpectralField) -> float:
    return float(np.sqrt(max(l2_norm_sq(fld), 0.0)))


def _trace_norm_sq(values):
    """Parseval sum of squared interface trace coefficients, values shape
    (..., n1h, n2, ncomp), summed over modes and components; any leading
    (level) axes are kept."""
    n1h, n2 = values.shape[-3:-1]
    w = mode_weights(2 * (n1h - 1), n2)
    quad = (np.abs(values) ** 2).sum(axis=(-2, -1))
    return _value((quad * w).sum(axis=-1))


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


def _rate(prev: SpectralField, nxt: SpectralField, dt):
    """The rate (nxt - prev) / dt of a field between two levels (or blocks
    of levels), as a field of nxt's shape.  It is formed only on the modes
    that carry data at some level of either field and written into zeros;
    every other entry is the exact zero that the difference would give and
    is left as allocated."""
    a, b = prev.data, nxt.data
    others = tuple(range(a.ndim - 4)) + (-2, -1)
    k1, j = np.nonzero(a.any(axis=others) | b.any(axis=others))
    out = np.zeros(b.shape, b.dtype)
    out[..., k1, j, :, :] = (b[..., k1, j, :, :] - a[..., k1, j, :, :]) / dt
    return replace(nxt, data=out)


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
        kv = p.delta * elastic_norm_sq(_rate(s_prev.u, s_next.u, dt), p)
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

# the earlier and the later level of each increment of a block of levels
_PREV, _NEXT = slice(None, -1), slice(1, None)


def audit(traj, p: PhysicalParams) -> EnergyReport:
    """Populate the per-step balance report from the trajectory's states
    and sampled sources.  For source-free runs asserts the dissipation
    inequality e_n + d_n <= e_0 up to roundoff tolerance.

    The norms and the source work are evaluated over the trajectory's blocks
    (Trajectory.blocks), each once per level, by energy(),
    dissipation_increment() and _source_work(); the breakdown is the terms
    they sum.  The sums and the balance check then run level by level, so a
    violation is raised at the first level that breaks the inequality."""
    stacked = traj.stacked
    times = traj.times
    dt = times[1] - times[0] if len(times) > 1 else 0.0
    s0 = stacked.levels(0)
    loads = traj.sources
    # level 0 ends no increment: its Darcy and viscous terms are evaluated
    # from its own state, and its Kelvin-Voigt, slip and source terms zero
    terms = {k: [] for k in _BREAKDOWN_KEYS}
    terms.update(darcy=[p.k_perm * grad_norm_sq(s0.p_b)],
                 viscous=[viscous_norm_sq(s0.v, p.nu)],
                 kelvin_voigt=[0.0], slip=[0.0])
    e, d_inc, slip, work_inc = [], [0.0], [0.0], [0.0]
    for blk, own in traj.blocks():
        level_terms = {}
        e += energy(blk.levels(own), p, level_terms).tolist()
        if len(blk.t) > 1:
            prev, nxt = blk.levels(_PREV), blk.levels(_NEXT)
            # the next len(blk.t) - 1 loads, after the len(d_inc) - 1 summed
            steps = slice(len(d_inc) - 1, len(d_inc) + len(blk.t) - 2)
            d_inc += dissipation_increment(prev, nxt, p, dt,
                                           level_terms).tolist()
            slip += slip_norm(prev, nxt, dt).tolist()
            if loads is not None:
                work_inc += _source_work(prev, nxt, source_levels(
                    loads, steps), dt).tolist()
        for k, vals in level_terms.items():
            terms[k] += vals.tolist()

    rep = EnergyReport(times=times, e=e, slip=slip, breakdown=terms)
    d_cum = 0.0
    work = 0.0
    tol = 1e-10 * max(e[0], 1.0)
    for n in range(len(times)):
        d_cum += d_inc[n]
        if loads is not None:
            work += dt * work_inc[n]
        r_n = e[n] + d_cum - e[0] - work
        if loads is None and r_n > tol:
            raise BalanceViolation(n, r_n)
        rep.d_cum.append(d_cum)
        rep.residual.append(r_n)
    if loads is not None:
        bound = e[0] + _dual_source_quadrature(s0, p, loads, dt)
        peak = max(en + dn for en, dn in zip(rep.e, rep.d_cum))
        rep.driven_constant = peak / max(bound, 1e-300)
    return rep


def _source_work(prev, s, loads, dt):
    """(F_b, Dt u) + (S, p^{n+1}) + (F_f, v^{n+1}) at the implicit levels of
    the increments (prev, s), one value per level, for the level-stacked
    sources (Fb, S, Ff) sampled at those levels.  A separable source's
    space field is paired with every level and the pairings scaled by its
    weights."""
    du = None if loads[0] is None else _rate(prev.u, s.u, dt)
    return sum(f.weights * _mass_pairing(x, f.space)
               if isinstance(f, SeparableField) else _mass_pairing(x, f)
               for x, f in zip((du, s.p_b, s.v), loads) if f is not None)


def _dual_source_quadrature(s0, p, loads, dt):
    """Time quadrature of the source norms entering the a-priori bound:
    ||F_b||_{L2}^2 plus discrete dual norms of S (against the Darcy form) and
    F_f (against the viscous form on the divergence-free subspace), from the
    level-stacked sources (Fb, S, Ff) sampled at the steps' implicit levels.

    The dual norm of F_f on the divergence-free subspace is the load's
    pairing with the velocity of the Stokes saddle-point system
    [[AV, B^T], [B, 0]] (B the divergence pairing), so no basis of the
    subspace is formed.  In the frame of a mode's wave vector both forms
    depend only on |k|^2 and, with the longitudinal components carrying a
    factor -i (frame_split), are real: each distinct |k|^2 that a load
    reaches is factored once as one real band matrix, at the frame symbols
    (2 pi |k|, 0), in the node-interleaved order of the step's free DOFs,
    and applied to the frame-turned loads of all its modes and steps at
    once.

    Every term is quadratic in its load, so a separable source contributes
    its space field's terms, as a load of one step, times the sum of its
    squared weights."""
    n1, n2 = s0.u.lateral_shape
    mb, mf = s0.u.mesh, s0.v.mesh
    kap, _, _, w = _frame_modes(n1, n2)
    modes = mode_table(n1, n2)
    first, shell, c, s = wave_frames(modes)
    (Fb, sb), (S, sS), (Ff, sf) = (
        (replace(f.space, data=f.space.data[None]),
         float(f.weights @ f.weights))
        if isinstance(f, SeparableField) else (f, 1.0) for f in loads)
    total = 0.0
    if Fb is not None:
        total += dt * float(np.sum(l2_norm_sq(Fb))) * sb

    def gram_loads(fld):
        """The loaded modes of a level-stacked source z (storage indices of
        the modes where z is nonzero at some step) and G z of each of them
        and of each step, for the Gram G of l2_norm_sq, as (loaded modes,
        ncomp * nn, steps)."""
        G = mass(fld.mesh, fld.degree, fld.ncomp)
        Z = fld.data.reshape(-1, len(w), G.shape[0])
        steps = len(Z)
        loaded = np.flatnonzero(Z.any(axis=(0, 2)))
        Z = Z[:, loaded].reshape(-1, G.shape[0])
        return loaded, (G @ Z.T).reshape(
            G.shape[0], steps, loaded.size).transpose(2, 0, 1)

    def dual_sum(loaded, loads, form):
        """dt * sum over the loaded modes and steps of w * Re(l^H A(kap)^-1
        l), for their loads l (loaded modes, n, steps) in band order and the
        real BandForm of the frame matrix A(kap) = sum over m of kap**m A_m:
        factored once per distinct |k|^2 with a nonzero load (the others
        add exactly zero), with the loads of all its modes and steps solved
        at once as (re, im) columns."""
        n = loads.shape[1]
        out = 0.0
        groups = shell[loaded]
        for g in np.unique(groups):
            mine = groups == g
            shell_loads = loads[mine]
            if not shell_loads.any():
                continue
            members = loaded[mine]
            idx = first[g]
            lu, piv = form.factor(
                kap[idx] ** np.arange(len(form.values)) @ form.values,
                modes[idx])
            rhs = np.ascontiguousarray(
                np.moveaxis(shell_loads, 0, 1).reshape(n, -1)).view(float)
            x = form.solve(lu, piv, rhs)
            per = np.einsum("ij,ij->j", rhs, x).reshape(members.size, -1)
            out += w[members] @ per.sum(axis=1)
        return dt * out

    if S is not None:
        # the free pressure DOFs in node order
        free = mb.free_mask(1)
        form = BandForm(_entries(frame_split, darcy_split, mb),
                        mb.free_position(1), int(free.sum()))
        loaded, L = gram_loads(S)
        total += dual_sum(loaded, L[:, free], form) * sS
    if Ff is not None:
        # the fluid DOFs (v component-major, then p_f) lead the step's free
        # order; their block of it is the Stokes system's band order
        lay = Layout(mb, mf)
        nv = 3 * mf.n_nodes(2)
        position = lay.free_position[lay.full_offsets()[4]:]
        n = int((position >= 0).sum())
        # per monomial: AV, then B below it and B^T beside it
        form = BandForm(
            [(np.concatenate([r, nv + rd, cd]),
              np.concatenate([c, cd, nv + rd]), np.concatenate([v, d, d]))
             for (r, c, v), (rd, cd, d) in zip(
                 _entries(frame_split, elastic_split, mf, p.nu, 0.0),
                 _entries(frame_split, divergence_split, mf))],
            position, n)
        # the loads' (F_f1, F_f2) components turned into each loaded mode's
        # frame, as (-i l_L, l_T)
        loaded, L = gram_loads(Ff)
        steps = L.shape[-1]
        L = L.reshape(loaded.size, 3, nv // 3, steps)
        cc, ss = c[loaded, None, None], s[loaded, None, None]
        a, b = L[:, 0], L[:, 1]
        L[:, 0], L[:, 1] = -1j * (cc * a + ss * b), cc * b - ss * a
        turned = np.zeros((loaded.size, n, steps), dtype=complex)
        vpos = position[:nv]
        turned[:, vpos[vpos >= 0]] = L.reshape(loaded.size, nv, steps)[
            :, vpos >= 0]
        total += dual_sum(loaded, turned, form) * sf
    return total


def generator_dissipativity_check(G, W):
    """Max eigenvalue of the Hermitian part of W G, normalized by ||W G||.
    The certificate passes when the result is <= 1e-8."""
    WG = W @ G
    H = 0.5 * (WG + WG.conj().T)
    lam = float(np.max(scipy.linalg.eigvalsh(H)))
    scale = float(np.linalg.norm(WG, 2))
    return lam / max(scale, 1e-300)

