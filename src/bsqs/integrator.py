"""Initialize and advance the coupled state with implicit Euler, orchestrating
the per-mode assembly and solves across all parameter regimes.

Every sign pattern of (rho_b, rho_f, delta, c0) runs the same code path with
terms dropped exactly when their coefficient vanishes; degenerate systems are
solved as such with no regularization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .energy import l2_norm
from .errors import (GridMismatch, IncompatibleData, NotDivergenceFree,
                     Violation)
from .fem1d import VerticalMesh, mass
from .mode_assembly import (BandForm, ModeOperator, StepCoefficients, _coo,
                            build_step_rhs, divergence_modes, mass_modes,
                            mode_symbols, wave_frames)
from .spectral import (SeparableField, SpectralField, forward_transform,
                       mode_table, sample_function, sample_sources,
                       sample_stacked, source_levels, zero_field)


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
    """Spectral fields at one time level, or at several (a trajectory or a
    block of it) on a leading axis with t the array of their times.  w is
    None iff rho_b = 0."""

    t: float
    u: SpectralField
    w: SpectralField | None
    p_b: SpectralField
    v: SpectralField
    p_f: SpectralField

    def fields(self):
        return self.u, self.w, self.p_b, self.v, self.p_f

    def copy(self):
        return State(self.t, *(None if f is None else f.copy()
                               for f in self.fields()))

    def levels(self, sl):
        """The levels `sl` of a state whose fields carry time levels on a
        leading axis and whose t is the array of their times, as views: a
        slice keeps the axis, an index drops it (and t is a float)."""
        t = self.t[sl]
        return State(t if np.ndim(t) else float(t),
                     *(None if f is None else replace(f, data=f.data[sl])
                       for f in self.fields()))


# Time levels per diagnostics block.  The norms of a block are one product
# per form term, so the diagnostics' temporaries grow with this, not with the
# trajectory length.
_BLOCK = 8


@dataclass
class Trajectory:
    """A run's states, stored once: `stacked` is one State whose fields carry
    the time levels on a leading axis and whose t holds their times;
    `sources` the level-stacked (F_b, S, F_f) that drove levels 1..n (None
    for an absent source, a SeparableField for one that separates in space
    and time), or None for a source-free run."""

    stacked: State
    sources: tuple | None

    @property
    def states(self):
        """The per-level States, as views of `stacked` (built on each
        access), so in-place edits of their data reach the trajectory."""
        return [self.stacked.levels(n) for n in range(len(self.stacked.t))]

    @property
    def times(self):
        return self.stacked.t.tolist()

    def blocks(self):
        """The levels in blocks of _BLOCK, each with the level before it so
        that every increment (n - 1, n) lies in one block: yields (block,
        slice of the block's own levels), the block as views of `stacked`."""
        for start in range(0, len(self.stacked.t), _BLOCK):
            lo = max(start - 1, 0)
            yield (self.stacked.levels(slice(lo, start + _BLOCK)),
                   slice(start - lo, None))


def _zero_state(cfg: RunConfig, t=0.0) -> State:
    d = cfg.disc
    mb = VerticalMesh("biot", d.nb)
    mf = VerticalMesh("fluid", d.nf)
    w = zero_field(mb, 2, d.n1, d.n2, 3) if cfg.params.rho_b > 0 else None
    return State(t, zero_field(mb, 2, d.n1, d.n2, 3), w,
                 zero_field(mb, 1, d.n1, d.n2, 1),
                 zero_field(mf, 2, d.n1, d.n2, 3),
                 zero_field(mf, 1, d.n1, d.n2, 1))


def _by_mode(fld: SpectralField | None):
    """Mode-major view (modes, ncomp, n_nodes) of a field's coefficients, in
    mode_table order; None stays None."""
    return None if fld is None else fld.data.reshape(-1, *fld.data.shape[2:])


class ShellOperators:
    """The band-factored step operators of a Simulator, indexed by stored
    mode: one ModeOperator per distinct |k|^2, shared by the modes that have
    it and factored the first time one of them is looked up."""

    def __init__(self, modes, first, shell, coeffs: StepCoefficients):
        self._modes = modes
        self._first = first
        self._shell = shell
        self._coeffs = coeffs
        self._factored = [None] * len(first)

    def __len__(self):
        return len(self._shell)

    def __getitem__(self, i):
        g = self._shell[i]
        if self._factored[g] is None:
            self._factored[g] = ModeOperator(self._modes[self._first[g]],
                                             self._coeffs)
        return self._factored[g]


def _rows_with_data(*arrays):
    """Mask of the rows (leading axis) where any of the arrays has a nonzero
    entry; None entries are skipped."""
    live = None
    for a in arrays:
        if a is not None:
            rows = a.reshape(len(a), -1).any(axis=1)
            live = rows if live is None else live | rows
    return live


class Simulator:
    """Advances all modes of a step at once for one (params, grid, dt).

    Only the live modes are touched: those whose prior state (u, w, p_b, v),
    sources or loads have a nonzero entry.  The scheme is linear and
    splits into modes, so every other mode has the exact zero solution.  The
    live modes' right-hand sides are built, turned into the frame of their
    wave vector and solved with one band LU per distinct |k|^2, which is
    factored the first time a live mode needs it.  `ops` gives each stored
    mode's ModeOperator (factoring it on lookup); modes with one |k|^2
    share it.

    `threads` is accepted for compatibility and ignored: a step is a few
    array products over the live modes plus one multi-column band solve per
    |k|^2 with a nonzero right-hand side, which leaves no per-mode work to
    spread."""

    def __init__(self, cfg: RunConfig, steady: bool = False, threads: int = 1):
        cfg.disc.validate()
        self.cfg = cfg
        self.mb = VerticalMesh("biot", cfg.disc.nb)
        self.mf = VerticalMesh("fluid", cfg.disc.nf)
        self.modes = mode_table(cfg.disc.n1, cfg.disc.n2)
        self.kap1, self.kap2 = mode_symbols(self.modes)
        self.coeffs = StepCoefficients(cfg.params, self.mb, self.mf,
                                       cfg.disc.dt, steady=steady)
        first, shell, self.cos, self.sin = wave_frames(self.modes)
        self.shell = shell.tolist()
        self.ops = ShellOperators(self.modes, first.tolist(), self.shell,
                                  self.coeffs)

    def step(self, s: State, mode_sources=None, mode_loads=None,
             out: State | None = None) -> State:
        """One implicit step.  mode_sources: (Fb, S, Ff) SpectralFields, or
        SeparableFields of one step (the live modes' rows of the space field
        are scaled by the weight), or None; mode_loads: (Lb, LS, Lf)
        pre-integrated load SpectralFields (interface defects included, see
        verification.mode_loads) or None.

        The live modes' u, p_b, v, p_f (and w when rho_b > 0) are written
        into `out`, whose other modes must hold zeros (they are never
        written), and `out` is returned with t = s.t + dt.  By default `out`
        is a fresh zero State."""
        cfg = self.cfg
        d = cfg.disc
        if out is None:
            out = _zero_state(cfg)
        out.t = s.t + d.dt

        def scalar(fld):
            return None if fld is None else _by_mode(fld)[:, 0]

        def triple(fields):
            if fields is None:
                return None, None, None
            a, b, c = fields
            return _by_mode(a), scalar(b), _by_mode(c)

        # a separable source steps on its space field, and the rows picked
        # below are scaled by its weight
        fields = mode_sources or (None,) * 3
        weights = [f.weights if isinstance(f, SeparableField) else None
                   for f in fields]
        prior = (_by_mode(s.u), _by_mode(s.w), scalar(s.p_b), _by_mode(s.v))
        sources = triple([f if w is None else f.space
                          for f, w in zip(fields, weights)])
        loads = triple(mode_loads)
        live = np.flatnonzero(_rows_with_data(*prior, *sources, *loads))
        if live.size == 0:
            return out

        def pick(arrays):
            return tuple(None if a is None else a[live] for a in arrays)

        sources = tuple(a if w is None else w * a
                        for a, w in zip(pick(sources), weights))
        rhs = build_step_rhs(
            *pick((self.kap1, self.kap2)), self.coeffs, prior=pick(prior),
            sources=sources, loads=pick(loads))

        # a live mode with a zero right-hand side has the zero solution; the
        # others are solved in the frame of their wave vector, one band solve
        # per |k|^2 (a mode with k2 = 0 is in its frame already)
        lay = self.coeffs.layout
        rows = np.flatnonzero(rhs.any(axis=1))
        turned = rows[self.sin[live[rows]] != 0]
        c, sn = self.cos[live[turned]], self.sin[live[turned]]
        if turned.size:
            rhs[turned] = lay.rotate(rhs[turned], c, sn)
        groups = {}
        for i in rows.tolist():
            groups.setdefault(self.shell[live[i]], []).append(i)
        x = np.zeros_like(rhs)
        for group in groups.values():
            stored = live[group].tolist()
            x[group] = self.ops[stored[0]].step(
                rhs[group].T, [self.modes[i] for i in stored])[0].T
        if turned.size:
            x[turned] = lay.rotate(x[turned], c, -sn)

        # advanced indexing writes in place whatever the strides of `out`
        k1i, j = np.divmod(live, d.n2)
        u, p, v, pf = lay.unpack(x)
        out.u.data[k1i, j] = u
        out.p_b.data[k1i, j, 0] = p
        out.v.data[k1i, j] = v
        out.p_f.data[k1i, j, 0] = pf
        if cfg.params.rho_b > 0:
            out.w.data[k1i, j] = (u - prior[0][live]) / d.dt
        return out


def initialize(cfg: RunConfig, data: InitialData,
               sim: Simulator | None = None) -> State:
    """Build the discrete initial State, recovering p_b(0) from the fluid
    content by an L2 projection (a BandForm of the pressure mass matrix) and
    checking the degenerate-storage compatibility condition.

    The degenerate regimes harvest p_b(0) or the fluid state from one
    implicit solve; it uses `sim` (a Simulator for cfg) when given and
    builds one otherwise."""
    p = cfg.params
    d = cfg.disc
    s = _zero_state(cfg)
    mb, mf = s.u.mesh, s.v.mesh
    kap1, kap2 = mode_symbols(mode_table(d.n1, d.n2))

    if data.u0 is not None:
        _check_clamped(data.u0, mb, 2, "u0")
        s.u = forward_transform(data.u0, mb, 2)
    if p.rho_b > 0 and data.u1 is not None:
        _check_clamped(data.u1, mb, 2, "u1")
        s.w = forward_transform(data.u1, mb, 2)
    if p.rho_f > 0 and data.v0 is not None:
        _check_clamped(data.v0, mf, 2, "v0")
        v = forward_transform(data.v0, mf, 2)
        res = float(np.abs(divergence_modes(kap1, kap2, _by_mode(v),
                                            mf)).max())
        scale = 1.0 + float(np.abs(v.data).max())
        if res > 1e-8 * scale:
            raise NotDivergenceFree(f"v0 weak divergence residual {res:.3e}")
        s.v = v

    d0 = zero_field(mb, 1, d.n1, d.n2, 1)
    if data.d0 is not None:
        d0 = forward_transform(data.d0, mb, 1)

    # L2 projection of d0 - alpha div u0 onto the pressure space, all modes
    # at once: one band LU of the pressure mass matrix on the free pressure
    # DOFs (in node order), applied to every mode's load as (re, im) columns
    free = mb.free_mask(1)
    form = BandForm([_coo(mass(mb, 1))], mb.free_position(1), int(free.sum()))
    load = mass_modes(_by_mode(d0)[:, 0], mb, 1) - p.alpha * divergence_modes(
        kap1, kap2, _by_mode(s.u), mb)
    x = form.solve(*form.factor(form.values[0], None),
                   np.ascontiguousarray(load[:, free].T).view(float))
    prof = np.zeros_like(load)
    prof[:, free] = np.ascontiguousarray(x).view(complex).T
    resid = SpectralField(mb, 1, prof.reshape(d0.data.shape))

    if p.c0 > 0:
        s.p_b.data[:] = resid.data / p.c0
    else:
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
        probe = sim.step(s, mode_sources=sample_sources(
            cfg.sources, d.n1, d.n2, mb, mf, 0.0))
        if p.c0 == 0:
            s.p_b = probe.p_b
        if p.rho_f == 0:
            s.v = probe.v
            s.p_f = probe.p_f
    return s


def _stacked_sources(sources, s0: State, times):
    """(F_b, S, F_f) at each of `times` on the grid of the state s0, each None
    when absent and else as spectral.sample_stacked gives it."""
    n1, n2 = s0.u.lateral_shape
    mb, mf = s0.u.mesh, s0.v.mesh
    return tuple(
        None if fn is None or not callable(fn) and all(c is None for c in fn)
        else sample_stacked(fn, n1, n2, mesh, degree, times)
        for fn, mesh, degree in ((sources.F_b, mb, 2), (sources.S, mb, 1),
                                 (sources.F_f, mf, 2)))


def run(cfg: RunConfig, data: InitialData, sources=None) -> Trajectory:
    """Full implicit-Euler trajectory: the states, each step writing its live
    modes into its level of the zeroed stacked trajectory, and the sources,
    sampled once at the levels' stamps (sums of dt) after initialize, or
    handed in from a run with the same grid, stamps and cfg.sources (a
    sweep's reference); energy.audit evaluates the diagnostics from them."""
    d = cfg.disc.validate()
    ratio = d.t_end / d.dt
    if abs(ratio - round(ratio)) > 1e-9:
        raise Violation("t_end", d.t_end, "t_end/dt must be an integer")
    sim = Simulator(cfg)
    s = initialize(cfg, data, sim)
    times = np.cumsum(np.r_[0.0, np.full(d.n_steps, d.dt)])
    stacked = State(times, *(
        None if f is None else replace(
            f, data=np.zeros(times.shape + f.data.shape, f.data.dtype))
        for f in s.fields()))
    # like each step, level 0 gets only the initial state's live modes
    k1i, j = np.divmod(np.flatnonzero(_rows_with_data(
        *(_by_mode(f) for f in s.fields()))), d.n2)
    for level, f in zip(stacked.fields(), s.fields()):
        if f is not None:
            level.data[0, k1i, j] = f.data[k1i, j]
    if sources is None and not cfg.sources.is_zero():
        sources = _stacked_sources(cfg.sources, s, times[1:].tolist())
    for n in range(1, d.n_steps + 1):
        s = sim.step(s, mode_sources=None if sources is None
                     else source_levels(sources, n - 1), out=stacked.levels(n))
    return Trajectory(stacked, sources)


def _check_clamped(samples, mesh, degree, name):
    node = mesh.clamped_node(degree)
    worst = float(np.abs(np.asarray(samples)[..., node]).max())
    if worst > 1e-12:
        raise Violation(name, worst, "must vanish on the clamped boundary")


def check_same_grid(a: Trajectory, b: Trajectory):
    sa, sb = a.stacked, b.stacked
    if len(sa.t) != len(sb.t):
        raise GridMismatch("trajectories have different step counts")
    if sa.u.data.shape != sb.u.data.shape or sa.v.data.shape != sb.v.data.shape:
        raise GridMismatch("trajectories use different discretizations")
    if not np.array_equal(sa.t, sb.t):
        raise GridMismatch("trajectories have different time levels")
