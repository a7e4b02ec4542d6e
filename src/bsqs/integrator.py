"""Initialize and advance the coupled state with implicit Euler, orchestrating
the per-mode assembly and solves across all parameter regimes.

Every sign pattern of (rho_b, rho_f, delta, c0) runs the same code path with
terms dropped exactly when their coefficient vanishes; degenerate systems are
solved as such with no regularization.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, SourceSpec
from .errors import (GridMismatch, IncompatibleData, NotDivergenceFree,
                     Violation)
from .fem1d import VerticalMesh, mass, mixed_div, mixed_mass
from .mode_assembly import ModeOperator, StepCoefficients, divergence_blocks
from .spectral import (ModeIndex, SpectralField, forward_transform,
                       mode_table, sample_function, signed_k2, zero_field)

TWO_PI = 2.0 * np.pi


@dataclass
class InitialData:
    """Real-space initial samples on the fields' nodal grids.

    u0, u1: (n1, n2, 3, P2 Biot nodes); d0: (n1, n2, P1 Biot nodes) fluid
    content; v0: (n1, n2, 3, P2 fluid nodes).  u1 is read iff rho_b > 0 and
    v0 iff rho_f > 0.  None means zero.
    """

    u0: np.ndarray | None = None
    u1: np.ndarray | None = None
    d0: np.ndarray | None = None
    v0: np.ndarray | None = None

    @classmethod
    def from_callables(cls, cfg: RunConfig, u0=None, u1=None, d0=None, v0=None):
        d = cfg.disc
        mb = VerticalMesh("biot", d.nb)
        mf = VerticalMesh("fluid", d.nf)

        def vec(fns, mesh):
            if fns is None:
                return None
            return sample_function(fns, d.n1, d.n2, mesh, 2)

        dd = None
        if d0 is not None:
            dd = sample_function(d0, d.n1, d.n2, mb, 1)[:, :, 0, :]
        return cls(u0=vec(u0, mb), u1=vec(u1, mb), d0=dd, v0=vec(v0, mf))

    @classmethod
    def from_plan(cls, cfg: RunConfig):
        """Build from the closed-form expressions in cfg.plan.init."""
        init = cfg.plan.init

        def triple(prefix):
            comps = [init.get(f"{prefix}_{i}") for i in (1, 2, 3)]
            return None if all(c is None for c in comps) else tuple(comps)

        return cls.from_callables(cfg, u0=triple("u0"), u1=triple("u1"),
                                  d0=init.get("d0"), v0=triple("v0"))


@dataclass
class State:
    """Spectral fields at one time level.  w is None iff rho_b = 0."""

    t: float
    u: SpectralField
    w: SpectralField | None
    p_b: SpectralField
    v: SpectralField
    p_f: SpectralField

    def copy(self):
        return State(self.t, self.u.copy(),
                     None if self.w is None else self.w.copy(),
                     self.p_b.copy(), self.v.copy(), self.p_f.copy())


@dataclass
class Trajectory:
    states: list = field(default_factory=list)
    # per-step diagnostics, populated by run(): entry n covers step n-1 -> n
    energies: list = field(default_factory=list)
    dissipation: list = field(default_factory=list)
    slip_norms: list = field(default_factory=list)

    @property
    def times(self):
        return [s.t for s in self.states]


def _zero_state(cfg: RunConfig, t=0.0) -> State:
    d = cfg.disc
    mb = VerticalMesh("biot", d.nb)
    mf = VerticalMesh("fluid", d.nf)
    w = zero_field(mb, 2, d.n1, d.n2, 3) if cfg.params.rho_b > 0 else None
    return State(t, zero_field(mb, 2, d.n1, d.n2, 3), w,
                 zero_field(mb, 1, d.n1, d.n2, 1),
                 zero_field(mf, 2, d.n1, d.n2, 3),
                 zero_field(mf, 1, d.n1, d.n2, 1))


def _divergence_residual(v: SpectralField) -> float:
    """Max per-mode weak divergence residual of a fluid velocity field."""
    mesh = v.mesh
    Mm, Cm = mixed_mass(mesh), mixed_div(mesh)
    n1, n2 = v.lateral_shape
    worst = 0.0
    for idx, m in enumerate(mode_table(n1, n2)):
        k1i, j = divmod(idx, n2)
        blocks = divergence_blocks(TWO_PI * m.k1, TWO_PI * m.k2, Mm, Cm)
        r = sum(blocks[a] @ v.data[k1i, j, a] for a in range(3))
        worst = max(worst, float(np.abs(r).max()))
    return worst


class Simulator:
    """Owns the per-mode band LU factorizations for one (params, grid, dt)."""

    def __init__(self, cfg: RunConfig, steady: bool = False, threads: int = 1):
        cfg.disc.validate()
        self.cfg = cfg
        self.mb = VerticalMesh("biot", cfg.disc.nb)
        self.mf = VerticalMesh("fluid", cfg.disc.nf)
        self.threads = max(1, threads)
        self.modes = mode_table(cfg.disc.n1, cfg.disc.n2)
        coeffs = StepCoefficients(cfg.params, self.mb, self.mf, cfg.disc.dt,
                                  steady=steady)
        self.ops = [ModeOperator(m, coeffs) for m in self.modes]

    def _sample_sources(self, t: float):
        src = self.cfg.sources
        if src.is_zero():
            return None
        d = self.cfg.disc
        Fb = S = Ff = None
        if any(c is not None for c in src.F_b):
            samp = sample_function(src.F_b, d.n1, d.n2, self.mb, 2, t=t)
            Fb = forward_transform(samp, self.mb, 2)
        if src.S is not None:
            samp = sample_function(src.S, d.n1, d.n2, self.mb, 1, t=t)
            S = forward_transform(samp, self.mb, 1)
        if any(c is not None for c in src.F_f):
            samp = sample_function(src.F_f, d.n1, d.n2, self.mf, 2, t=t)
            Ff = forward_transform(samp, self.mf, 2)
        return Fb, S, Ff

    def step(self, s: State, mode_sources=None, mode_loads=None,
             mode_defects=None) -> State:
        """One implicit step.  mode_sources: (Fb, S, Ff) SpectralFields or
        None; mode_loads: (Lb, LS, Lf) pre-integrated load SpectralFields.
        mode_defects: dict of per-mode interface defect arrays with keys
        g1 (n1h, n2), g2 (2, n1h, n2), g3 (3, n1h, n2), g4 (n1h, n2)."""
        cfg = self.cfg
        d = cfg.disc
        n2 = d.n2
        out = _zero_state(cfg, t=s.t + d.dt)

        def solve_one(idx):
            op = self.ops[idx]
            k1i, j = divmod(idx, n2)
            wprof = None if s.w is None else s.w.data[k1i, j]
            if wprof is None:
                wprof = np.zeros_like(s.u.data[k1i, j])
            prior = (s.u.data[k1i, j], wprof, s.p_b.data[k1i, j, 0],
                     s.v.data[k1i, j])
            srcs = None
            if mode_sources is not None:
                Fb, S, Ff = mode_sources
                srcs = (None if Fb is None else Fb.data[k1i, j],
                        None if S is None else S.data[k1i, j, 0],
                        None if Ff is None else Ff.data[k1i, j])
            loads = None
            if mode_loads is not None:
                Lb, LS, Lf = mode_loads
                loads = (None if Lb is None else Lb.data[k1i, j],
                         None if LS is None else LS.data[k1i, j, 0],
                         None if Lf is None else Lf.data[k1i, j])
            defects = None
            if mode_defects is not None:
                defects = (mode_defects["g1"][k1i, j],
                           mode_defects["g2"][:, k1i, j],
                           mode_defects["g3"][:, k1i, j],
                           mode_defects["g4"][k1i, j])
            return idx, op.step(prior=prior, sources=srcs, loads=loads,
                                interface_data=defects)

        if self.threads > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                results = list(pool.map(solve_one, range(len(self.ops))))
        else:
            results = [solve_one(i) for i in range(len(self.ops))]
        # deterministic writeback in storage order regardless of scheduling
        for idx, (un, pn, vn, pfn) in results:
            k1i, j = divmod(idx, n2)
            out.u.data[k1i, j] = un
            out.p_b.data[k1i, j, 0] = pn
            out.v.data[k1i, j] = vn
            out.p_f.data[k1i, j, 0] = pfn
            if out.w is not None:
                out.w.data[k1i, j] = (un - s.u.data[k1i, j]) / d.dt
        return out


def initialize(cfg: RunConfig, data: InitialData,
               sim: Simulator | None = None) -> State:
    """Build the discrete initial State, recovering p_b(0) from the fluid
    content and checking the degenerate-storage compatibility condition.

    The degenerate regimes harvest p_b(0) or the fluid state from one
    implicit solve; it uses `sim` (a Simulator for cfg) when given and
    builds one otherwise."""
    p = cfg.params
    d = cfg.disc
    s = _zero_state(cfg)
    mb, mf = s.u.mesh, s.v.mesh

    if data.u0 is not None:
        _check_clamped(data.u0, mb, 2, "u0")
        s.u = forward_transform(data.u0, mb, 2)
    if p.rho_b > 0 and data.u1 is not None:
        _check_clamped(data.u1, mb, 2, "u1")
        s.w = forward_transform(data.u1, mb, 2)
    if p.rho_f > 0 and data.v0 is not None:
        _check_clamped(data.v0, mf, 2, "v0")
        v = forward_transform(data.v0, mf, 2)
        res = _divergence_residual(v)
        scale = 1.0 + float(np.abs(v.data).max())
        if res > 1e-8 * scale:
            raise NotDivergenceFree(f"v0 weak divergence residual {res:.3e}")
        s.v = v

    d0 = zero_field(mb, 1, d.n1, d.n2, 1)
    if data.d0 is not None:
        d0 = forward_transform(data.d0, mb, 1)

    # L2 projection of d0 - alpha div u0 onto the pressure space, per mode
    Mp = mass(mb, 1)
    Mm, Cm = mixed_mass(mb), mixed_div(mb)
    pmask = mb.free_mask(1)
    pidx = np.flatnonzero(pmask)
    resid = zero_field(mb, 1, d.n1, d.n2, 1)
    for idx, m in enumerate(mode_table(d.n1, d.n2)):
        k1i, j = divmod(idx, d.n2)
        blocks = divergence_blocks(TWO_PI * m.k1, TWO_PI * m.k2, Mm, Cm)
        load = Mp @ d0.data[k1i, j, 0] \
            - p.alpha * sum(blocks[a] @ s.u.data[k1i, j, a] for a in range(3))
        prof = np.zeros(mb.n_nodes(1), dtype=complex)
        prof[pidx] = np.linalg.solve(Mp[np.ix_(pidx, pidx)], load[pidx])
        resid.data[k1i, j, 0] = prof

    if p.c0 > 0:
        s.p_b.data[:] = resid.data / p.c0
    else:
        from .energy import l2_norm  # local import avoids a module cycle
        rnorm = l2_norm(resid)
        dnorm = l2_norm(d0)
        if rnorm > 1e-10 * (dnorm + 1.0):
            raise IncompatibleData(
                f"c0 = 0 needs d0 = alpha div u0; residual {rnorm:.3e}")

    if p.c0 == 0 or p.rho_f == 0:
        # pressure (c0 = 0) and fluid state (rho_f = 0) are instantaneously
        # determined; harvest them from one dummy implicit solve at t = 0
        if sim is None:
            sim = Simulator(cfg)
        probe = sim.step(s, mode_sources=sim._sample_sources(0.0))
        if p.c0 == 0:
            s.p_b = probe.p_b
        if p.rho_f == 0:
            s.v = probe.v
            s.p_f = probe.p_f
    return s


def run(cfg: RunConfig, data: InitialData, threads: int = 1) -> Trajectory:
    """Full implicit-Euler trajectory with per-step energy diagnostics."""
    from . import energy as en  # local import avoids a module cycle

    d = cfg.disc
    ratio = d.t_end / d.dt
    if abs(ratio - round(ratio)) > 1e-9:
        raise Violation("t_end", d.t_end, "t_end/dt must be an integer")
    sim = Simulator(cfg, threads=threads)
    s = initialize(cfg, data, sim)
    traj = Trajectory(states=[s])
    traj.energies.append(en.energy(s, cfg.params))
    for n in range(d.n_steps):
        t_next = (n + 1) * d.dt
        srcs = sim._sample_sources(t_next)
        s_next = sim.step(s, mode_sources=srcs)
        traj.states.append(s_next)
        traj.energies.append(en.energy(s_next, cfg.params))
        traj.dissipation.append(
            en.dissipation_increment(s, s_next, cfg.params, d.dt))
        traj.slip_norms.append(en.slip_norm(s, s_next, d.dt))
        s = s_next
    return traj


def _check_clamped(samples, mesh, degree, name):
    node = mesh.clamped_node(degree)
    worst = float(np.abs(np.asarray(samples)[..., node]).max())
    if worst > 1e-12:
        raise Violation(name, worst, "must vanish on the clamped boundary")


def check_same_grid(a: Trajectory, b: Trajectory):
    if len(a.states) != len(b.states):
        raise GridMismatch("trajectories have different step counts")
    sa, sb = a.states[0], b.states[0]
    if sa.u.data.shape != sb.u.data.shape or sa.v.data.shape != sb.v.data.shape:
        raise GridMismatch("trajectories use different discretizations")
