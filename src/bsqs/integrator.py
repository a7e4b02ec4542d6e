"""Initialize and advance the coupled state with implicit Euler, orchestrating
the per-mode assembly and solves across all parameter regimes.

Every sign pattern of (rho_b, rho_f, delta, c0) runs the same code path with
terms dropped exactly when their coefficient vanishes; degenerate systems are
solved as such with no regularization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

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
        return State(t if np.ndim(t) else float(t), *(
            None if f is None else SpectralField(f.mesh, f.degree, f.data[sl])
            for f in self.fields()))


# Increments per diagnostics block.  The norms of a block are one product
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
        """The levels in blocks of _BLOCK increments, each block starting at
        the level that ends the one before, so that every increment
        (n - 1, n) lies in one block: yields (block, slice of the block's
        own levels), the block as views of `stacked`.  A block's own levels
        are all of its levels but a shared first one."""
        for lo in range(0, max(len(self.stacked.t) - 1, 1), _BLOCK):
            yield (self.stacked.levels(slice(lo, lo + _BLOCK + 1)),
                   slice(1 if lo else 0, None))


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


class _Plan:
    """What a step reads of its live set alone, formed once per set: the
    live rows (stored modes, ascending) with their symbols (kap1, kap2) and
    storage indices (k1i, j); the positions of the modes with k2 != 0, which
    are turned into their frames (c, s); and per distinct |k|^2 the
    positions of its modes, the stored index of the first and their
    ModeIndex list."""

    def __init__(self, sim, live):
        self.live = live
        self.kap1, self.kap2 = sim.kap1[live], sim.kap2[live]
        self.k1i, self.j = np.divmod(live, sim.cfg.disc.n2)
        self.turned = np.flatnonzero(sim.sin[live] != 0)
        self.c = sim.cos[live[self.turned]]
        self.s = sim.sin[live[self.turned]]
        groups = {}
        for i, g in enumerate(sim.shell[live].tolist()):
            groups.setdefault(g, []).append(i)
        self.groups = [(np.array(pos), int(live[pos[0]]),
                        [sim.modes[i] for i in live[pos].tolist()])
                       for pos in groups.values()]


class Simulator:
    """Advances all modes of a step at once for one (params, grid, dt).

    Only the live modes are touched: those whose prior state (u, w, p_b, v),
    sources or loads have a nonzero entry.  The scheme is linear and
    splits into modes, so every other mode has the exact zero solution.  The
    live modes' right-hand sides are built, turned into the frame of their
    wave vector and solved with one band LU per distinct |k|^2, which is
    factored the first time a live mode needs it.  `ops` gives each stored
    mode's ModeOperator (factoring it on lookup); modes with one |k|^2
    share it.  What a step reads of its live set alone is formed once per
    live set (one plan, rebuilt when the set changes), and a separable
    source's M f once per source field.

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
        first, self.shell, self.cos, self.sin = wave_frames(self.modes)
        self.ops = ShellOperators(self.modes, first.tolist(),
                                  self.shell.tolist(), self.coeffs)
        self._plan = None
        self._separable = [None] * 3

    def _plan_of(self, live):
        plan = self._plan
        if plan is None or plan.live is not live and not np.array_equal(
                plan.live, live):
            self._plan = _Plan(self, live)
        return self._plan

    def separable_load(self, slot, fld: SeparableField):
        """(rows, unit) of the separable source `fld` in `slot` (0: F_b,
        1: S, 2: F_f): the stored modes where its space field f is nonzero,
        and the load M f on them, mode-major as build_step_rhs adds loads.
        Formed once per space field; a step's load is its weight times
        unit."""
        cached = self._separable[slot]
        if cached is None or cached[0] is not fld.space:
            f = _by_mode(fld.space)
            rows = np.flatnonzero(_rows_with_data(f))
            mesh, degree = ((self.mb, 2), (self.mb, 1), (self.mf, 2))[slot]
            f = f[rows] if slot != 1 else f[rows, 0]
            cached = (fld.space, rows, mass_modes(f, mesh, degree))
            self._separable[slot] = cached
        return cached[1:]

    def source_rows(self, sources):
        """The stored modes where some level of the level-stacked sources
        (as Trajectory.sources holds them) has a nonzero entry, ascending."""
        n = len(self.modes)
        rows = [self.separable_load(slot, f)[0]
                if isinstance(f, SeparableField) else np.flatnonzero(
                    f.data.reshape(len(f.data), n, -1).any(axis=(0, 2)))
                for slot, f in enumerate(sources) if f is not None]
        return np.unique(np.concatenate(rows)) if rows else np.arange(0)

    def step(self, s: State, mode_sources=None, mode_loads=None,
             out: State | None = None, live=None) -> State:
        """One implicit step.  mode_sources: (Fb, S, Ff) SpectralFields, or
        SeparableFields of one step (M f of the space field, formed once,
        enters as a load scaled by the weight), or None; mode_loads:
        (Lb, LS, Lf) pre-integrated load SpectralFields (interface defects
        included, see verification.mode_loads) or None.

        live: the stored modes to step, ascending; it must hold every mode
        where the prior (u, w, p_b, v), a source's space field or a load
        has a nonzero entry, and may hold more.  By default those modes are
        found by scanning the arrays.

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

        fields = mode_sources or (None,) * 3
        separable = [self.separable_load(slot, f)
                     if isinstance(f, SeparableField) else None
                     for slot, f in enumerate(fields)]
        prior = (_by_mode(s.u), _by_mode(s.w), scalar(s.p_b), _by_mode(s.v))
        sources = triple([None if isinstance(f, SeparableField) else f
                          for f in fields])
        loads = triple(mode_loads)
        if live is None:
            mask = _rows_with_data(*prior, *sources, *loads)
            for part in separable:
                if part is not None:
                    mask[part[0]] = True
            live = np.flatnonzero(mask)
        if live.size == 0:
            return out
        plan = self._plan_of(live)

        def pick(arrays):
            return tuple(None if a is None else a[live] for a in arrays)

        loads = list(pick(loads))
        for slot, (f, part) in enumerate(zip(fields, separable)):
            if part is not None:
                rows, unit = part
                load = np.zeros((live.size,) + unit.shape[1:], complex)
                load[np.searchsorted(live, rows)] = f.weights * unit
                loads[slot] = load if loads[slot] is None else (
                    loads[slot] + load)
        prior = pick(prior)
        rhs = build_step_rhs(plan.kap1, plan.kap2, self.coeffs, prior=prior,
                             sources=pick(sources), loads=loads)

        # a live mode with a zero right-hand side has the zero solution; the
        # others are solved in the frame of their wave vector, one band solve
        # per |k|^2 (a mode with k2 = 0 is in its frame already)
        lay = self.coeffs.layout
        nonzero = rhs.any(axis=1)
        if plan.turned.size:
            rhs[plan.turned] = lay.rotate(rhs[plan.turned], plan.c, plan.s)
        x = np.zeros_like(rhs)
        for pos, first, modes in plan.groups:
            keep = nonzero[pos]
            if not keep.all():
                if not keep.any():
                    continue
                pos = pos[keep]
                modes = [m for m, k in zip(modes, keep) if k]
            x[pos] = self.ops[first].step(rhs[pos].T, modes)[0].T
        if plan.turned.size:
            x[plan.turned] = lay.rotate(x[plan.turned], plan.c, -plan.s)

        # advanced indexing writes in place whatever the strides of `out`
        k1i, j = plan.k1i, plan.j
        u, p, v, pf = lay.unpack(x)
        out.u.data[k1i, j] = u
        out.p_b.data[k1i, j, 0] = p
        out.v.data[k1i, j] = v
        out.p_f.data[k1i, j, 0] = pf
        if cfg.params.rho_b > 0:
            out.w.data[k1i, j] = (u - prior[0]) / d.dt
        return out


@lru_cache(maxsize=None)
def _pressure_projection(mb: VerticalMesh):
    """The BandForm of the pressure mass matrix on the free pressure DOFs of
    mb (in node order) and its band LU, formed once per mesh; shared."""
    form = BandForm([_coo(mass(mb, 1))], mb.free_position(1),
                    int(mb.free_mask(1).sum()))
    return form, form.factor(form.values[0], None)


def _probes(p) -> bool:
    """Whether initialize harvests part of the initial state from a probe
    step: the pressure when c0 = 0, the fluid state when rho_f = 0."""
    return p.c0 == 0 or p.rho_f == 0


def initialize(cfg: RunConfig, data: InitialData,
               sim: Simulator | None = None, sources=None) -> State:
    """Build the discrete initial State, recovering p_b(0) from the fluid
    content by an L2 projection (a BandForm of the pressure mass matrix,
    factored once per mesh) and checking the degenerate-storage
    compatibility condition.

    The degenerate regimes harvest p_b(0) or the fluid state from one
    implicit solve at t = 0; it uses `sim` (a Simulator for cfg) when given
    and builds one otherwise, and `sources`, the (Fb, S, Ff) at t = 0 as
    Simulator.step takes them, when given, and samples cfg.sources at t = 0
    otherwise."""
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
    form, (lu, piv) = _pressure_projection(mb)
    load = mass_modes(_by_mode(d0)[:, 0], mb, 1) - p.alpha * divergence_modes(
        kap1, kap2, _by_mode(s.u), mb)
    x = form.solve(lu, piv, np.ascontiguousarray(load[:, free].T).view(float))
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

    if _probes(p):
        # pressure (c0 = 0) and fluid state (rho_f = 0) are instantaneously
        # determined; harvest them from one dummy implicit solve at t = 0
        if sim is None:
            sim = Simulator(cfg)
        if sources is None:
            sources = sample_sources(cfg.sources, d.n1, d.n2, mb, mf, 0.0)
        probe = sim.step(s, mode_sources=sources)
        if p.c0 == 0:
            s.p_b = probe.p_b
        if p.rho_f == 0:
            s.v = probe.v
            s.p_f = probe.p_f
    return s


def _stacked_sources(sources, sim: Simulator, times):
    """(F_b, S, F_f) at each of `times` on the grid of `sim`, each None when
    absent and else as spectral.sample_stacked gives it."""
    d = sim.cfg.disc
    return tuple(
        None if fn is None or not callable(fn) and all(c is None for c in fn)
        else sample_stacked(fn, d.n1, d.n2, mesh, degree, times)
        for fn, mesh, degree in ((sources.F_b, sim.mb, 2),
                                 (sources.S, sim.mb, 1),
                                 (sources.F_f, sim.mf, 2)))


def run(cfg: RunConfig, data: InitialData, sources=None) -> Trajectory:
    """Full implicit-Euler trajectory: the states, each step writing its live
    modes into its level of the zeroed stacked trajectory, and the sources of
    levels 1..n, sampled once at the levels' stamps (sums of dt) after
    initialize (before it, and at t = 0 too, when initialize probes: the
    probe steps on level 0), or handed in from a run with the same grid,
    stamps and cfg.sources (a sweep's reference); energy.audit evaluates the
    diagnostics from them.

    The live set is carried, not scanned at each step: level 0's live modes
    (the one scan) joined with the rows where any level of the sources is
    nonzero.  Each step writes that set, so the rows the last step wrote
    plus the sources' rows are the same set again at every step."""
    d = cfg.disc.validate()
    ratio = d.t_end / d.dt
    if abs(ratio - round(ratio)) > 1e-9:
        raise Violation("t_end", d.t_end, "t_end/dt must be an integer")
    sim = Simulator(cfg)
    times = np.cumsum(np.r_[0.0, np.full(d.n_steps, d.dt)])
    first = None
    if sources is None and not cfg.sources.is_zero() and _probes(cfg.params):
        sampled = _stacked_sources(cfg.sources, sim, times.tolist())
        first = source_levels(sampled, 0)
        sources = tuple(source_levels(sampled, slice(1, None)))
    s = initialize(cfg, data, sim, first)
    stacked = State(times, *(
        None if f is None else replace(
            f, data=np.zeros(times.shape + f.data.shape, f.data.dtype))
        for f in s.fields()))
    # like each step, level 0 gets only the initial state's live modes
    live = np.flatnonzero(_rows_with_data(*(_by_mode(f) for f in s.fields())))
    k1i, j = np.divmod(live, d.n2)
    for level, f in zip(stacked.fields(), s.fields()):
        if f is not None:
            level.data[0, k1i, j] = f.data[k1i, j]
    if sources is None and not cfg.sources.is_zero():
        sources = _stacked_sources(cfg.sources, sim, times[1:].tolist())
    if sources is not None:
        live = np.union1d(live, sim.source_rows(sources))
    for n in range(1, d.n_steps + 1):
        s = sim.step(s, mode_sources=None if sources is None
                     else source_levels(sources, n - 1), out=stacked.levels(n),
                     live=live)
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
