"""Manufactured-solution construction and convergence studies.

Closed-form fields are given as sympy expressions in (x1, x2, x3, t).
Volumetric sources are derived by exact symbolic differentiation of the
governing equations; the four interface coupling conditions are not forced to
hold -- their residuals (g1..g4) are known defect data that extend the weak
form.  In a lateral mode every interface integral is a point evaluation at
x3 = 0, so each defect enters the step as a load on one interface node
(mode_loads).  Manufactured fields use a single lateral Fourier mode so the
lateral discretization is exact and studies isolate vertical/temporal error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import sympy as sp

from .config import PhysicalParams, RunConfig
from .energy import (elastic_norm_sq, grad_norm_sq, l2_norm_sq,
                     viscous_norm_sq)
from .errors import InsufficientPoints, NotDivergenceFree, Violation
from .fem1d import (VerticalMesh, _GQ_W, evaluate, load_matrix,
                    quadrature_points)
from .integrator import Simulator, State, _zero_state
from .limit_lab import log_log_fit
from .spectral import (SpectralField, forward_transform, inverse_transform,
                       lateral_grid, sample_function)

X1, X2, X3, T = sp.symbols("x1 x2 x3 t", real=True)
_XV = (X1, X2, X3)


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form fields: u (3 exprs, Biot box), p_b, v (3 exprs, fluid
    box), p_f.  v must be exactly divergence-free; u, p_b vanish at x3 = 1
    and v at x3 = -1."""

    u: tuple
    p_b: object
    v: tuple
    p_f: object


def _strain(field):
    J = [[sp.diff(field[i], _XV[j]) for j in range(3)] for i in range(3)]
    return [[(J[i][j] + J[j][i]) / 2 for j in range(3)] for i in range(3)]


def _stress(field, mu, lam):
    D = _strain(field)
    tr = sum(D[i][i] for i in range(3))
    return [[2 * mu * D[i][j] + (lam * tr if i == j else 0)
             for j in range(3)] for i in range(3)]


def _div_tensor(sig):
    return [sum(sp.diff(sig[i][j], _XV[j]) for j in range(3)) for i in range(3)]


@lru_cache(maxsize=None)
def _lambdify(expr):
    """expr as a numpy callable (x1, x2, x3, t=0) broadcasting its value to
    the shape of the coordinates; made once per expression, since the loads
    and the exact states of every step evaluate the same few."""
    fn = sp.lambdify((X1, X2, X3, T), expr, modules="numpy")

    def call(x1, x2, x3, t=0.0):
        val = fn(x1, x2, x3, t)
        shape = np.broadcast_shapes(np.shape(x1), np.shape(x2), np.shape(x3))
        return np.broadcast_to(np.asarray(val, dtype=float), shape)
    return call


@dataclass
class ManufacturedData:
    """Derived sources, interface defects, and field evaluators."""

    case: ManufacturedCase
    params: PhysicalParams
    F_b: tuple
    S: object
    F_f: tuple
    g1: object
    g2: tuple
    g3: tuple
    g4: object
    u_t: tuple  # symbolic time derivative of u (for w and defect data)


def manufacture_sources(case: ManufacturedCase, p: PhysicalParams
                        ) -> ManufacturedData:
    """Exact symbolic sources and interface defects for the given fields."""
    u, pb, v, pf = case.u, case.p_b, case.v, case.p_f
    div_v = sp.simplify(sum(sp.diff(v[i], _XV[i]) for i in range(3)))
    if div_v != 0:
        raise NotDivergenceFree(f"div v = {div_v}")
    for i in range(3):
        if sp.simplify(u[i].subs(X3, 1)) != 0:
            raise Violation("u", str(u[i]), "must vanish at x3 = 1")
        if sp.simplify(v[i].subs(X3, -1)) != 0:
            raise Violation("v", str(v[i]), "must vanish at x3 = -1")
    if sp.simplify(pb.subs(X3, 1)) != 0:
        raise Violation("p_b", str(pb), "must vanish at x3 = 1")

    u_t = tuple(sp.diff(u[i], T) for i in range(3))
    sigE_u = _stress(u, p.mu, p.lam)
    sigE_ut = _stress(u_t, p.mu, p.lam)
    divE_u = _div_tensor(sigE_u)
    divE_ut = _div_tensor(sigE_ut)
    F_b = tuple(sp.expand(p.rho_b * sp.diff(u[i], T, 2) - divE_u[i]
                          - p.delta * divE_ut[i] + p.alpha * sp.diff(pb, _XV[i]))
                for i in range(3))
    div_u = sum(sp.diff(u[i], _XV[i]) for i in range(3))
    lap_pb = sum(sp.diff(pb, _XV[i], 2) for i in range(3))
    S = sp.expand(sp.diff(p.c0 * pb + p.alpha * div_u, T) - p.k_perm * lap_pb)
    Dv = _strain(v)
    visc = [[2 * p.nu * Dv[i][j] for j in range(3)] for i in range(3)]
    div_visc = _div_tensor(visc)
    F_f = tuple(sp.expand(p.rho_f * sp.diff(v[i], T) - div_visc[i]
                          + sp.diff(pf, _XV[i])) for i in range(3))

    # total stresses entering the interface balances
    sig_f = [[visc[i][j] - (pf if i == j else 0) for j in range(3)]
             for i in range(3)]
    sig_b = [[sigE_u[i][j] + p.delta * sigE_ut[i][j]
              - (p.alpha * pb if i == j else 0) for j in range(3)]
             for i in range(3)]

    at0 = {X3: 0}
    g1 = sp.expand((-p.k_perm * sp.diff(pb, X3) - (v[2] - u_t[2])).subs(at0))
    g2 = tuple(sp.expand((p.beta * (v[j] - u_t[j]) + sig_f[j][2]).subs(at0))
               for j in range(2))
    g3 = tuple(sp.expand((sig_b[i][2] - sig_f[i][2]).subs(at0))
               for i in range(3))
    g4 = sp.expand((pb + sig_f[2][2]).subs(at0))
    return ManufacturedData(case=case, params=p, F_b=F_b, S=S, F_f=F_f,
                            g1=g1, g2=g2, g3=g3, g4=g4, u_t=u_t)


def _lateral_modes(expr_samples):
    """fft2 of lateral samples, half spectrum, transform normalization."""
    n1, n2 = expr_samples.shape[:2]
    co = np.fft.fft2(expr_samples, axes=(0, 1)) / (n1 * n2)
    return np.ascontiguousarray(co[: n1 // 2 + 1])


def _load_field(exprs, mesh, degree, n1, n2, t):
    """Pre-integrated vertical load vectors per lateral point, transformed."""
    Q = load_matrix(mesh, degree)
    xq = quadrature_points(mesh)
    x1, x2 = lateral_grid(n1, n2)
    X1g = x1[:, None, None]
    X2g = x2[None, :, None]
    comps = []
    for e in exprs:
        f = _lambdify(e)
        samp = f(X1g, X2g, xq[None, None, :], t)
        comps.append(np.einsum("nq,ijq->ijn", Q, samp))
    data = _lateral_modes(np.stack(comps, axis=2))
    return SpectralField(mesh, degree, data.astype(complex))


def mode_loads(md: ManufacturedData, cfg: RunConfig, t):
    """(Lb, LS, Lf) load SpectralFields at time t for Simulator.step: the
    volumetric sources, pre-integrated, and each interface defect g1..g4 as
    a load on its field's interface node (a point evaluation at x3 = 0)."""
    d = cfg.disc
    mb = VerticalMesh("biot", d.nb)
    mf = VerticalMesh("fluid", d.nf)
    Lb = _load_field(md.F_b, mb, 2, d.n1, d.n2, t)
    LS = _load_field((md.S,), mb, 1, d.n1, d.n2, t)
    Lf = _load_field(md.F_f, mf, 2, d.n1, d.n2, t)
    x1, x2 = lateral_grid(d.n1, d.n2)

    def lat(*exprs):
        return np.stack([_lateral_modes(_lambdify(e)(
            x1[:, None], x2[None, :], 0.0, t)) for e in exprs], axis=-1)

    ub = Lb.data[..., mb.interface_node(2)]
    pb = LS.data[..., mb.interface_node(1)]
    vf = Lf.data[..., mf.interface_node(2)]
    g2, g4 = lat(*md.g2), lat(md.g4)[..., 0]
    # Biot outward normal at the interface is -e3, so the stress-balance
    # defect enters the displacement rows with a minus sign
    ub -= lat(*md.g3)
    ub[..., :2] -= g2
    vf[..., :2] += g2
    ub[..., 2] -= g4
    vf[..., 2] += g4
    pb += lat(md.g1)
    return Lb, LS, Lf


def exact_state(md: ManufacturedData, cfg: RunConfig, t) -> State:
    """Nodal-interpolant State of the manufactured fields at time t."""
    d = cfg.disc
    s = _zero_state(cfg, t=t)
    mb, mf = s.u.mesh, s.v.mesh

    def sample(exprs, mesh, degree):
        return forward_transform(sample_function(
            [_lambdify(e) for e in exprs], d.n1, d.n2, mesh, degree, t=t),
            mesh, degree)

    s.u = sample(md.case.u, mb, 2)
    if s.w is not None:
        s.w = sample(md.u_t, mb, 2)
    s.p_b = sample((md.case.p_b,), mb, 1)
    s.v = sample(md.case.v, mf, 2)
    s.p_f = sample((md.case.p_f,), mf, 1)
    return s


def solve_steady(md: ManufacturedData, cfg: RunConfig) -> State:
    """Steady (time-derivative-free) solve of the manufactured problem."""
    sim = Simulator(cfg, steady=True)
    s0 = _zero_state(cfg)
    return sim.step(s0, mode_loads=mode_loads(md, cfg, 0.0))


def solve_transient(md: ManufacturedData, cfg: RunConfig) -> State:
    """March the manufactured problem from the exact initial state."""
    d = cfg.disc
    sim = Simulator(cfg)
    s = exact_state(md, cfg, 0.0)
    for n in range(d.n_steps):
        s = sim.step(s, mode_loads=mode_loads(md, cfg, (n + 1) * d.dt))
    return s


def error_norms(s: State, exact: State, p: PhysicalParams) -> dict:
    """Discrete error norms against the exact interpolant: u in the energy
    norm, p_b in H1, v in H1 (symmetric-gradient + L2), p_f in L2."""
    du = replace(s.u, data=s.u.data - exact.u.data)
    dp = replace(s.p_b, data=s.p_b.data - exact.p_b.data)
    dv = replace(s.v, data=s.v.data - exact.v.data)
    dpf = replace(s.p_f, data=s.p_f.data - exact.p_f.data)
    return {
        "u": np.sqrt(max(elastic_norm_sq(du, p), 0.0)),
        "p_b": np.sqrt(max(grad_norm_sq(dp) + l2_norm_sq(dp), 0.0)),
        "v": np.sqrt(max(viscous_norm_sq(dv, 0.5) + l2_norm_sq(dv), 0.0)),
        "p_f": np.sqrt(max(l2_norm_sq(dpf), 0.0)),
    }


def fluid_pressure_l2_error(s: State, md: ManufacturedData, t=0.0) -> float:
    """Continuous L2(fluid box) error of the discrete fluid pressure against
    the closed-form field, by Gauss quadrature (the lateral trapezoid sum is
    exact for the single-mode cases used here)."""
    mf = s.p_f.mesh
    n1, n2 = s.p_f.lateral_shape
    xq = quadrature_points(mf)
    wq = np.tile(_GQ_W, mf.ncells) * mf.h
    samples = inverse_transform(s.p_f)[:, :, 0, :]
    x1, x2 = lateral_grid(n1, n2)
    exact = _lambdify(md.case.p_f)
    total = 0.0
    for i in range(n1):
        for j in range(n2):
            ph = evaluate(mf, 1, samples[i, j], xq)
            total += float(np.sum(wq * (ph - exact(x1[i], x2[j], xq, t)) ** 2))
    return float(np.sqrt(total / (n1 * n2)))


def fit_order(hs, errs):
    """Least-squares slope of log(err) vs log(h) (inf at roundoff)."""
    if len(hs) < 3:
        raise InsufficientPoints("need at least 3 refinement levels")
    return log_log_fit(hs, errs)[0]


def convergence_study(case: ManufacturedCase, cfg: RunConfig, levels,
                      kind: str = "vertical") -> dict:
    """Refinement study.  kind "vertical": levels are (nb, nf) pairs with a
    steady solve; "temporal": levels are dt values with transient solves on
    the fixed grid of cfg."""
    md = manufacture_sources(case, cfg.params)
    errors = {k: [] for k in ("u", "p_b", "v", "p_f")}
    hs = []
    for lvl in levels:
        if kind == "vertical":
            nb, nf = lvl
            c = replace(cfg, disc=replace(cfg.disc, nb=nb, nf=nf))
            s = solve_steady(md, c)
            exact = exact_state(md, c, 0.0)
            t_eval = 0.0
            hs.append(1.0 / nb)
        elif kind == "temporal":
            dt = lvl
            c = replace(cfg, disc=replace(cfg.disc, dt=dt))
            s = solve_transient(md, c)
            exact = exact_state(md, c, c.disc.t_end)
            t_eval = c.disc.t_end
            hs.append(dt)
        else:
            raise ValueError(f"unknown study kind {kind!r}")
        for k, v in error_norms(s, exact, cfg.params).items():
            errors[k].append(v)
        # the fluid pressure error is measured in the continuous L2 norm
        # (quadrature against the closed form, not the nodal interpolant)
        errors["p_f"][-1] = fluid_pressure_l2_error(s, md, t_eval)
    orders = {k: fit_order(hs, v) for k, v in errors.items()}
    return {"levels": list(levels), "h": hs, "errors": errors, "orders": orders}


# ready-made cases ----------------------------------------------------------

_C1 = sp.cos(2 * sp.pi * X1)
_S1 = sp.sin(2 * sp.pi * X1)


def _divfree_pair(profile):
    """Divergence-free single-mode fluid velocity from a vertical profile f
    with f(-1) = f'(-1) = 0:
    v = (-sin(2 pi x1) f'(x3) / (2 pi), 0, cos(2 pi x1) f(x3))."""
    return (-_S1 * sp.diff(profile, X3) / (2 * sp.pi),
            sp.S.Zero,
            _C1 * profile)


def steady_case() -> ManufacturedCase:
    """Single lateral mode, trigonometric vertical profiles (generic spatial
    accuracy study)."""
    u = (_C1 * sp.sin(sp.pi * (1 - X3) / 2),
         _S1 * (1 - X3) ** 2,
         _C1 * sp.sin(sp.pi * (1 - X3)))
    pb = _C1 * sp.sin(sp.pi * (1 - X3))
    v = _divfree_pair((1 + X3) ** 2 * sp.sin(sp.pi * (1 + X3) / 2))
    pf = _C1 * (1 + X3) * sp.cos(X3)
    return ManufacturedCase(u=u, p_b=pb, v=v, p_f=pf)


def temporal_case() -> ManufacturedCase:
    """Vertical profiles inside the element spaces (quadratic velocities,
    linear pressures) so the remaining error is purely temporal."""
    a = sp.cos(T)
    b = sp.exp(-T)
    u = (_C1 * (1 - X3) ** 2 * a,
         _S1 * (1 - X3) * b,
         _C1 * (1 - X3) ** 2 * (a + b) / 2)
    pb = _C1 * (1 - X3) * sp.sin(T + 1)
    v = tuple(e * sp.cos(T / 2) for e in _divfree_pair((1 + X3) ** 2))
    pf = _C1 * (1 + X3) * b
    return ManufacturedCase(u=u, p_b=pb, v=v, p_f=pf)


def reconstruction_case(nu: float) -> ManufacturedCase:
    """Case whose fluid pressure equals its own mode-harmonic reconstruction:
    p_f is harmonic per mode (so F_f is solenoidal), the bottom Neumann datum
    matches nu (v3'' - kappa^2 v3)(-1), and the normal-stress defect g4 is
    zero, so the reconstruction identity holds in the continuum."""
    kap = 2 * sp.pi
    f = (1 + X3) ** 2
    v = _divfree_pair(f)
    H = sp.Integer(1)
    G = 2 * nu  # nu * f''(-1)
    pf = _C1 * (H * sp.cosh(kap * (X3 + 1)) / sp.cosh(kap)
                + G * sp.sinh(kap * X3) / (kap * sp.cosh(kap)))
    # p_b trace chosen so p_b(0) = p_f(0) - 2 nu d3 v3(0), i.e. g4 = 0
    pb = _C1 * (H - 4 * nu) * (1 - X3)
    u = (sp.S.Zero, sp.S.Zero, _C1 * (1 - X3) ** 2)
    return ManufacturedCase(u=u, p_b=pb, v=v, p_f=pf)
