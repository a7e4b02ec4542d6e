"""Time integration: initialization semantics, stepping, determinism, restart
continuation, and input validation."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bsqs import energy as en
from bsqs import fem1d, integrator, mode_assembly
from bsqs.config import SourceSpec, parse_config
from bsqs.errors import (GridMismatch, IncompatibleData, NotDivergenceFree,
                         Violation)
from bsqs.integrator import (InitialData, Simulator, _by_mode, _zero_state,
                             check_same_grid, initialize, run)
from bsqs.mode_assembly import ModeOperator, build_step_matrix
from bsqs.spectral import (ModeIndex, inverse_transform, mode_table,
                           sample_sources, zero_field)
from bsqs.verification import (manufacture_sources, solve_steady,
                               solve_transient, steady_case, temporal_case)
from conftest import (every_mode_live, make_config, make_params,
                      smooth_initial_callables)


def smooth_data(cfg, **which):
    fns = smooth_initial_callables(alpha=cfg.params.alpha)
    picked = {k: fns[k] for k, use in which.items() if use}
    return InitialData.from_callables(cfg, **picked)


def test_zero_data_stays_zero():
    cfg = make_config()
    traj = run(cfg, InitialData())
    for s in traj.states:
        assert np.abs(s.u.data).max() == 0
        assert np.abs(s.v.data).max() == 0


def test_initialize_recovers_pressure_from_content():
    # u0 = 0, d0 = 2 (1 - x3), c0 = 2  =>  p_b(0) = d0 / c0 = 1 - x3
    # (the profile lies in the pressure space, so the projection is exact)
    cfg = make_config(params=make_params(c0=2.0))
    data = InitialData.from_callables(
        cfg, d0=lambda x1, x2, x3, t: 2.0 * (1.0 - x3) + 0.0 * x1)
    s = initialize(cfg, data)
    samples = inverse_transform(s.p_b)
    x3 = s.p_b.mesh.nodes(1)
    assert np.allclose(samples, (1.0 - x3)[None, None, None, :], atol=1e-12)


def test_initialize_subtracts_alpha_div_u():
    # d0 = alpha div u0  =>  p_b(0) = 0
    cfg = make_config(params=make_params(c0=1.0, alpha=0.9))
    data = smooth_data(cfg, u0=True, d0=True)
    s = initialize(cfg, data)
    assert np.abs(inverse_transform(s.p_b)).max() < 1e-10


def test_degenerate_storage_requires_compatible_data():
    cfg = make_config(params=make_params(c0=0.0))
    bad = InitialData.from_callables(
        cfg,
        u0=smooth_initial_callables()["u0"],
        d0=lambda x1, x2, x3, t: 1.0 + 0.0 * x1)   # not alpha div u0
    with pytest.raises(IncompatibleData):
        initialize(cfg, bad)
    good = smooth_data(cfg, u0=True, d0=True)
    s = initialize(cfg, good)                      # no raise
    # p_b(0) is harvested from the instantaneous solve, not read from data
    assert s.p_b is not None


def test_initial_velocity_must_be_divergence_free():
    cfg = make_config()
    bad_v0 = (lambda x1, x2, x3, t: 0.0 * x1,
              lambda x1, x2, x3, t: 0.0 * x1,
              lambda x1, x2, x3, t: (1.0 + x3) ** 2 + 0.0 * x1)
    with pytest.raises(NotDivergenceFree):
        initialize(cfg, InitialData.from_callables(cfg, v0=bad_v0))
    good = smooth_data(cfg, v0=True)
    initialize(cfg, good)                          # no raise


def test_clamped_boundary_enforced():
    cfg = make_config()
    bad_u0 = (lambda x1, x2, x3, t: 1.0 + 0.0 * (x1 + x3),  # nonzero at x3=1
              None, None)
    with pytest.raises(Violation):
        initialize(cfg, InitialData.from_callables(cfg, u0=bad_u0))


def test_ignored_data_in_degenerate_regimes():
    # u1 is read iff rho_b > 0; v0 iff rho_f > 0
    cfg = make_config(params=make_params(rho_b=0.0, rho_f=0.0))
    data = smooth_data(cfg, u0=True, u1=True, v0=True, d0=False)
    s = initialize(cfg, data)
    assert s.w is None
    # v comes from the instantaneous solve, not from v0
    cfg_ref = make_config(params=make_params(rho_b=0.0, rho_f=0.0))
    s_ref = initialize(cfg_ref, smooth_data(cfg_ref, u0=True))
    assert np.allclose(s.v.data, s_ref.v.data, atol=1e-12)


def test_t_end_must_be_integer_multiple_of_dt():
    cfg = make_config(dt=1 / 16, t_end=0.2)
    with pytest.raises(Violation):
        run(cfg, InitialData())


def test_run_produces_expected_trajectory_shape():
    cfg = make_config()
    traj = run(cfg, smooth_data(cfg, u0=True, d0=True))
    assert len(traj.states) == cfg.disc.n_steps + 1
    rep = en.audit(traj, cfg.params)
    assert len(rep.e) == len(traj.states)
    assert len(np.diff(rep.d_cum)) == cfg.disc.n_steps
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(cfg.disc.t_end)


def test_quasi_static_run_builds_one_simulator(monkeypatch):
    # the degenerate regimes harvest the initial pressure and fluid state
    # from a solve; run() lends initialize its Simulator for it
    builds = []
    build = Simulator.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "__init__", counting_init)
    cfg = make_config(params=make_params(rho_b=0.0, rho_f=0.0))
    run(cfg, smooth_data(cfg, u0=True, d0=True))
    assert len(builds) == 1


def test_inertial_repeat_run_is_deterministic():
    cfg = make_config(n1=4, n2=8)
    data = smooth_data(cfg, u0=True, u1=True, d0=True, v0=True)
    a = run(cfg, data)
    b = run(cfg, data)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.u.data, sb.u.data)
        assert np.array_equal(sa.v.data, sb.v.data)
        assert np.array_equal(sa.p_b.data, sb.p_b.data)
        assert np.array_equal(sa.p_f.data, sb.p_f.data)


# the README configuration on a smaller grid and a shorter run
README_RUN = """
physics.lambda = 1.0
physics.mu = 1.0
physics.alpha = 1.0
physics.c0 = 1.0
physics.k = 1.0
physics.nu = 1.0
physics.beta = 1.0
physics.rho_b = 0.0
physics.rho_f = 0.0
physics.delta = 0.5
grid.n1 = 8
grid.n2 = 8
grid.nb = 4
grid.nf = 4
time.dt = 0.015625
time.t_end = 0.0625
run.u0_3 = 0.1*cos(2*pi*x1)*(1-x3)^2
run.d0 = -0.2*cos(2*pi*x1)*(1-x3)
"""


@pytest.mark.parametrize("extra", ["", """
physics.rho_b = 1.0
physics.rho_f = 1.0
sources.Fb3 = 0.5*sin(2*pi*x1)*cos(2*pi*x2)*(1-x3)*cos(4*pi*t)
sources.S = 0.3*cos(2*pi*x2)*x3*(1+sin(2*pi*t))
sources.Ff1 = 0.2*cos(2*pi*x2)*(1+x3)*exp(-t)
"""], ids=["readme", "driven"])
def test_run_memory_grows_linearly_with_the_vertical_mesh(extra):
    """No (n_nodes x n_nodes) vertical array is formed on a run or its audit:
    from cold caches, the traced peak of a run of one step (Simulator build,
    initialize, step) and its audit grows by at most 2.5x from nb = nf = 128
    to 256, where linear growth gives 2x and quadratic 4x.  The README data
    reach the build and the initial load; with inertia and the three
    sources every mass product of the step and the audit's source terms
    run too."""
    base = parse_config(README_RUN + extra)

    def peak(n):
        cfg = replace(base, disc=replace(base.disc, nb=n, nf=n,
                                         t_end=base.disc.dt))
        data = InitialData.from_plan(cfg)
        for module in (fem1d, mode_assembly):
            for fn in vars(module).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()
        tracemalloc.start()
        try:
            en.audit(run(cfg, data), cfg.params)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(128), peak(256)
    assert large <= 2.5 * small, f"peak {small} B -> {large} B"


def test_dual_source_bound_memory_follows_the_loaded_modes():
    """The a-priori bound keeps Gram and frame-turned loads for the modes a
    source reaches only: on the driven data (sources in 4 modes) its traced
    peak, after a warm-up call, grows by at most 1.5x from 8 x 8 to 16 x 16
    lateral samples, where the stored modes grow 3.6x (40 -> 144).  The
    bound itself does not depend on the grid, since the sources are exactly
    resolved on both."""
    base = parse_config(README_RUN + """
physics.rho_b = 1.0
physics.rho_f = 1.0
sources.Fb3 = 0.5*sin(2*pi*x1)*cos(2*pi*x2)*(1-x3)*cos(4*pi*t)
sources.S = 0.3*cos(2*pi*x2)*x3*(1+sin(2*pi*t))
sources.Ff1 = 0.2*cos(2*pi*x2)*(1+x3)*exp(-t)
""")

    def peak(n):
        cfg = replace(base, disc=replace(base.disc, n1=n, n2=n, nb=16,
                                         nf=16, t_end=8 * base.disc.dt))
        traj = run(cfg, InitialData.from_plan(cfg))
        args = (traj.stacked.levels(0), cfg.params, traj.sources,
                cfg.disc.dt)
        bound = en._dual_source_quadrature(*args)
        assert abs(bound - 0.0012155594020590722) <= 1e-12 * bound
        tracemalloc.start()
        try:
            en._dual_source_quadrature(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(8), peak(16)
    assert large <= 1.5 * small, f"peak {small} B -> {large} B"


_DRIVEN = README_RUN + """
physics.rho_b = 1.0
physics.rho_f = 1.0
sources.Fb3 = 0.5*sin(2*pi*x1)*cos(2*pi*x2)*(1-x3)*cos(4*pi*t)
sources.S = 0.3*cos(2*pi*x2)*x3*(1+sin(2*pi*t))
sources.Ff1 = 0.2*cos(2*pi*x2)*(1+x3)*exp(-t)
"""


def _as_lambdas(sources):
    """The same sources as plain callables, which are sampled at each
    stamp."""
    def wrap(e):
        return None if e is None else (
            lambda x1, x2, x3, t=0.0: e(x1, x2, x3, t))

    return SourceSpec(F_b=tuple(map(wrap, sources.F_b)), S=wrap(sources.S),
                      F_f=tuple(map(wrap, sources.F_f)))


def test_separable_sources_match_the_per_stamp_path():
    """The driven data's Expression sources separate: each is sampled and
    transformed once and scaled by its time factor at every stamp.  The
    same sources as lambdas are sampled and transformed at each stamp.
    Both give the same energy.csv columns to 1e-13 of each column's largest
    magnitude, and the same driven constant to 1e-12: FFT(g f) and
    g FFT(f) differ at roundoff only."""
    from bsqs.snapshots import energy_report_columns
    from bsqs.spectral import SeparableField, SpectralField
    base = parse_config(_DRIVEN)
    base = replace(base, disc=replace(base.disc, nb=8, nf=8,
                                      t_end=8 * base.disc.dt))
    reports = []
    for cfg, kind in ((base, SeparableField),
                      (replace(base, sources=_as_lambdas(base.sources)),
                       SpectralField)):
        traj = run(cfg, InitialData.from_plan(cfg))
        assert all(type(f) is kind for f in traj.sources)
        reports.append(en.audit(traj, cfg.params))
    split, stamped = reports
    a, b = energy_report_columns(split), energy_report_columns(stamped)
    assert a.keys() == b.keys()
    for key in a:
        scale = max(abs(x) for x in b[key])
        assert np.allclose(a[key], b[key], rtol=0.0, atol=1e-13 * scale), key
    assert split.driven_constant == pytest.approx(stamped.driven_constant,
                                                  rel=1e-12, abs=0.0)


def test_separable_sources_do_not_grow_with_the_steps():
    """A separable source is stored once, with one weight per step: its
    trajectory storage is the same bytes at 8 and 32 steps, apart from the
    weights."""
    from bsqs.spectral import SeparableField
    base = parse_config(_DRIVEN)

    def stored(steps):
        cfg = replace(base, disc=replace(base.disc,
                                         t_end=steps * base.disc.dt))
        sources = run(cfg, InitialData.from_plan(cfg)).sources
        assert all(isinstance(f, SeparableField) for f in sources)
        assert [f.weights.shape for f in sources] == [(steps,)] * 3
        return sum(f.space.data.nbytes for f in sources)

    assert stored(8) == stored(32)


def test_non_separable_source_runs_and_audits():
    """sin(2 pi (x1 - t)) (1 - x3) has a factor of both x1 and t: it is
    sampled and transformed at each stamp, next to the separable S, and the
    run and its audit go through."""
    cfg = parse_config(_DRIVEN.replace(
        "sources.Fb3 = 0.5*sin(2*pi*x1)*cos(2*pi*x2)*(1-x3)*cos(4*pi*t)",
        "sources.Fb3 = sin(2*pi*(x1 - t))*(1-x3)"))
    traj = run(cfg, InitialData.from_plan(cfg))
    Fb, S, _ = traj.sources
    assert Fb.data.shape[0] == cfg.disc.n_steps
    assert S.weights.shape == (cfg.disc.n_steps,)
    # the source travels in x1: its k1 = 1 coefficients turn by
    # exp(-2 pi i t), so no real weight scales the first level to the last
    t = traj.times
    turn = np.exp(-2j * np.pi * (t[-1] - t[1]))
    assert np.allclose(Fb.data[-1], turn * Fb.data[0], rtol=0, atol=1e-14)
    assert abs(turn.imag) > 0.1
    rep = en.audit(traj, cfg.params)
    assert np.isfinite(rep.driven_constant) and rep.driven_constant > 0


def test_step_solves_only_modes_with_nonzero_rhs(monkeypatch):
    # source-free data in the k1 = 1 modes: every other mode's right-hand
    # side stays zero, and a zero one is never solved.
    # Modes of one |k|^2 share an operator and are solved together, so the
    # solved modes are counted by column, not by call.
    cfg = parse_config(README_RUN)
    solved = []
    solve = ModeOperator.step

    def counting_step(self, rhs, modes):
        assert rhs.any(axis=0).all()
        solved.extend(modes)
        return solve(self, rhs, modes)

    monkeypatch.setattr(ModeOperator, "step", counting_step)
    run(cfg, InitialData.from_plan(cfg))
    n_modes = len(mode_table(cfg.disc.n1, cfg.disc.n2))
    # n_steps steps plus the quasi-static initialization probe
    steps = cfg.disc.n_steps + 1
    assert solved.count(ModeIndex(1, 0)) == steps
    assert len(solved) < steps * n_modes


@pytest.mark.parametrize("n1, n2", [(8, 8), (6, 4)])
def test_grouped_step_matches_per_mode_solves(monkeypatch, n1, n2):
    """With a random nonzero right-hand side in every mode, the step (turn
    into each mode's frame, one solve per |k|^2, turn back) gives the
    solutions of the modes' own unturned step matrices."""
    cfg = make_config(n1=n1, n2=n2)
    sim = Simulator(cfg)
    lay = sim.coeffs.layout
    rng = np.random.default_rng(11)
    shape = (len(sim.modes), lay.n_free)
    rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    monkeypatch.setattr(integrator, "build_step_rhs",
                        lambda *args, **kwargs: rhs.copy())
    s = sim.step(every_mode_live(_zero_state(cfg)))
    x = lay.pack(_by_mode(s.u), _by_mode(s.p_b)[:, 0], _by_mode(s.v),
                 _by_mode(s.p_f)[:, 0])[:, lay.free_indices()]
    for i, mode in enumerate(sim.modes):
        A = build_step_matrix(mode, sim.coeffs).toarray()
        ref = np.linalg.solve(A, rhs[i])
        assert np.linalg.norm(x[i] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_one_mode_operator_per_distinct_wavenumber(monkeypatch):
    """The 144 stored modes of a 16x16 grid have 42 distinct |k|^2: one
    operator each, shared by the modes that have it."""
    built = []
    build = ModeOperator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(ModeOperator, "__init__", counting_init)
    sim = Simulator(make_config(n1=16, n2=16))
    assert not built                               # factored on first use
    assert len(sim.ops) == len(sim.modes) == 144
    for mode, op in zip(sim.modes, sim.ops):
        assert np.hypot(*op.mode) == np.hypot(*mode)
    assert len(built) == 42
    assert [sim.ops[i] for i in range(144)] == list(sim.ops)
    assert len(built) == 42


def test_step_builds_only_the_operators_of_live_shells(monkeypatch):
    """A first step with data in the four modes of |k|^2 = 5 only factors
    that one |k|^2, and every other mode comes back exactly zero."""
    built = []
    build = ModeOperator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(ModeOperator, "__init__", counting_init)
    cfg = make_config(n1=8, n2=8)
    sim = Simulator(cfg)
    s = _zero_state(cfg)
    shell = [ModeIndex(1, 2), ModeIndex(1, -2), ModeIndex(2, 1),
             ModeIndex(2, -1)]
    rows = [sim.modes.index(m) for m in shell]
    rng = np.random.default_rng(5)
    _by_mode(s.u)[rows] = rng.standard_normal(_by_mode(s.u)[rows].shape)
    _by_mode(s.u)[..., s.u.mesh.clamped_node(2)] = 0
    out = sim.step(s)
    assert len(built) == 1 and np.hypot(*built[0].mode) == np.sqrt(5)
    rest = np.setdiff1d(np.arange(len(sim.modes)), rows)
    for name in ("u", "w", "p_b", "v", "p_f"):
        data = _by_mode(getattr(out, name))
        assert np.all(data[rest] == 0)
        assert all(data[i].any() for i in rows)


def test_step_builds_right_hand_sides_of_live_modes_only(monkeypatch):
    """On the README configuration the data lives in the cos 2 pi x1 mode
    (1, 0) alone: the forward transform chops the FFT's roundoff in every
    other mode to exact zeros, so build_step_rhs receives that 1 of the 40
    modes at every step, and every other mode, each with k2 != 0 among
    them, stays exactly zero."""
    cfg = parse_config(README_RUN)
    cfg = replace(cfg, disc=replace(cfg.disc, nb=16, nf=16, t_end=0.5))
    received = []
    build_rhs = integrator.build_step_rhs

    def recording_rhs(kap1, kap2, *args, **kwargs):
        received.append((kap1.copy(), kap2.copy()))
        return build_rhs(kap1, kap2, *args, **kwargs)

    monkeypatch.setattr(integrator, "build_step_rhs", recording_rhs)
    traj = run(cfg, InitialData.from_plan(cfg))
    # n_steps steps plus the quasi-static initialization probe
    assert len(received) == cfg.disc.n_steps + 1
    assert all(len(k1) == 1 and not k2.any() for k1, k2 in received)
    modes = mode_table(cfg.disc.n1, cfg.disc.n2)
    dead = [i for i, m in enumerate(modes) if m.k2 != 0]
    assert len(modes) == 40 and len(dead) == 35
    for s in traj.states:
        for name in ("u", "p_b", "v", "p_f"):
            assert np.all(_by_mode(getattr(s, name))[dead] == 0)


def test_driven_run_factors_only_the_shells_its_data_reach(monkeypatch):
    """The README data in the mode (1, 0) with the sources F_b3 in the modes
    (1, +-1), S and F_f1 in (0, +-1): a run factors exactly the two shells
    |k|^2 = 1 and 2, since the chopped transforms leave every other mode of
    the data and of each step's sources exactly zero."""
    built = []
    build = ModeOperator.__init__

    def counting_init(self, mode, *args, **kwargs):
        built.append(mode.k1 ** 2 + mode.k2 ** 2)
        build(self, mode, *args, **kwargs)

    monkeypatch.setattr(ModeOperator, "__init__", counting_init)
    cfg = parse_config(README_RUN + """
sources.Fb3 = 0.5*sin(2*pi*x1)*cos(2*pi*x2)*(1-x3)*cos(4*pi*t)
sources.S = 0.3*cos(2*pi*x2)*x3*(1+sin(2*pi*t))
sources.Ff1 = 0.2*cos(2*pi*x2)*(1+x3)*exp(-t)
""")
    traj = run(cfg, InitialData.from_plan(cfg))
    assert sorted(built) == [1, 2]
    assert np.abs(_by_mode(traj.states[-1].u)).max() > 0


@pytest.mark.parametrize("n_live", [1, 2, 3])
def test_live_mode_step_is_bitwise_the_full_spectrum_step(monkeypatch,
                                                          n_live):
    """Data and sources in a few modes: stepping only those modes gives the
    same bits as building and solving every mode, since each product and
    band solve treats its modes on their own."""
    cfg = make_config(n1=8, n2=8)
    sim = Simulator(cfg)
    rng = np.random.default_rng(n_live)
    rows = rng.choice(len(sim.modes), n_live, replace=False)
    s = _zero_state(cfg)
    sources = (zero_field(sim.mb, 2, 8, 8, 3), zero_field(sim.mb, 1, 8, 8, 1),
               zero_field(sim.mf, 2, 8, 8, 3))
    for fld in (s.u, s.w, s.p_b, s.v) + sources:
        data = _by_mode(fld)
        data[rows] = rng.standard_normal(data[rows].shape)
    live = sim.step(s, mode_sources=sources)
    monkeypatch.setattr(integrator, "_rows_with_data",
                        lambda *arrays: np.ones(len(sim.modes), dtype=bool))
    full = sim.step(s, mode_sources=sources)
    for name in ("u", "w", "p_b", "v", "p_f"):
        assert np.array_equal(getattr(live, name).data,
                              getattr(full, name).data)


@pytest.mark.parametrize("S, zero_level", [
    # separable: its weight is exactly 0 at the last stamp
    ("0.3*cos(2*pi*x2)*x3*(t-0.0625)", 4),
    # sampled at each stamp, and exactly 0 at the first: the modes (0, +-2)
    # are in the carried live set at step 1 with zero data and no other
    # source, where a scan would not hold them
    ("0.3*cos(4*pi*(x2-t))*x3*(t-0.015625)", 1)])
def test_carried_live_set_is_bitwise_the_rescanning_run(monkeypatch, S,
                                                         zero_level):
    """run() hands every step the live set of level 0 joined with the
    sources' rows at any level.  A source that vanishes at one stamp leaves
    some live modes with zero data there, and the trajectory is bit for bit
    that of a run whose steps scan for their live modes."""
    cfg = parse_config(_DRIVEN.replace(
        "sources.S = 0.3*cos(2*pi*x2)*x3*(1+sin(2*pi*t))", f"sources.S = {S}"))
    data = InitialData.from_plan(cfg)
    carried = run(cfg, data)
    step = Simulator.step
    monkeypatch.setattr(Simulator, "step", lambda self, *args, live=None,
                        **kwargs: step(self, *args, **kwargs))
    scanned = run(cfg, data)
    # the source is exactly zero at its zero level only
    _, S_field, _ = carried.sources
    size = (S_field.weights if hasattr(S_field, "weights")
            else np.abs(S_field.data).reshape(cfg.disc.n_steps, -1).max(1))
    assert np.flatnonzero(size == 0).tolist() == [zero_level - 1]
    for a, b in zip(carried.stacked.fields(), scanned.stacked.fields()):
        assert np.array_equal(a.data, b.data)
    if zero_level == 1:
        # S alone reaches the modes (0, +-2): zero at level 1, driven after
        rows = [i for i, m in enumerate(mode_table(cfg.disc.n1, cfg.disc.n2))
                if m in ((0, 2), (0, -2))]
        for n, driven in ((1, False), (2, True)):
            p_b = _by_mode(carried.stacked.levels(n).p_b)
            assert p_b[rows].any() == driven


@pytest.mark.parametrize("config", ["readme", "driven"])
def test_run_scans_for_live_rows_a_fixed_number_of_times(monkeypatch,
                                                         config):
    """Level 0, the probe step and each separable source are scanned once;
    the steps are not: the number of scans does not grow with the step
    count."""
    base = parse_config(README_RUN if config == "readme" else _DRIVEN)
    calls = []
    scan = integrator._rows_with_data

    def counted(*arrays):
        calls.append(len(arrays))
        return scan(*arrays)

    monkeypatch.setattr(integrator, "_rows_with_data", counted)
    counts = []
    for steps in (4, 8):
        cfg = replace(base, disc=replace(base.disc,
                                         t_end=steps * base.disc.dt))
        calls.clear()
        run(cfg, InitialData.from_plan(cfg))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_probe_steps_on_the_runs_sources(monkeypatch):
    """With rho_f = 0 initialize probes the fluid state at t = 0.  In run()
    the probe reads level 0 of the sources the run samples once, not a
    sampling of its own, and Trajectory.sources keeps levels 1..n.  The
    probe matches initialize's own sampling to roundoff."""
    from bsqs.spectral import SeparableField
    cfg = parse_config(_DRIVEN.replace("physics.rho_f = 1.0",
                                       "physics.rho_f = 0.0"))
    data = InitialData.from_plan(cfg)
    alone = initialize(cfg, data)

    def refuse(*args, **kwargs):
        raise AssertionError("the probe sampled the sources again")

    monkeypatch.setattr(integrator, "sample_sources", refuse)
    traj = run(cfg, data)
    t = traj.stacked.t[1:]
    for f in traj.sources:
        assert isinstance(f, SeparableField) and f.weights.shape == t.shape
    _, S, _ = traj.sources
    np.testing.assert_allclose(S.weights, 1 + np.sin(2 * np.pi * t),
                               rtol=1e-15)
    level0 = traj.states[0]
    for name in ("v", "p_f"):
        a, b = getattr(level0, name).data, getattr(alone, name).data
        assert np.abs(b).max() > 0
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def test_pressure_projection_is_factored_once_per_mesh():
    """initialize's L2 projection onto the pressure space depends only on
    the Biot mesh: its band form and LU are built once per mesh."""
    integrator._pressure_projection.cache_clear()
    for c0 in (1.0, 2.0):
        cfg = make_config(params=make_params(c0=c0))
        initialize(cfg, smooth_data(cfg, u0=True, d0=True))
    info = integrator._pressure_projection.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _readme_state():
    cfg = parse_config(README_RUN)
    return cfg, initialize(cfg, InitialData.from_plan(cfg))


def _every_mode_live_state():
    cfg = make_config()
    return cfg, every_mode_live(_zero_state(cfg))


def _sentinel_state(cfg, strided):
    """A State shaped like _zero_state(cfg) whose every entry holds 7 - 3j;
    strided takes each field as the last n2 rows of an array with n2 + 1 k2
    rows, so no field is contiguous and its (k1, k2) axes cannot merge into
    one mode axis without a copy."""
    s = _zero_state(cfg)
    for fld in s.fields():
        if fld is None:
            continue
        shape = fld.data.shape
        if strided:
            wide = (shape[0], shape[1] + 1) + shape[2:]
            fld.data = np.full(wide, 7 - 3j)[:, 1:]
            assert not fld.data.flags.c_contiguous
        else:
            fld.data = np.full(shape, 7 - 3j)
    return s


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("case, n_live", [(_readme_state, 1),
                                          (_every_mode_live_state, 12)])
def test_step_writes_only_the_live_modes_into_out(case, n_live, strided):
    """The step writes its live modes into `out` and returns it: they hold
    bitwise what a step into fresh zeros gives, and every other mode keeps
    whatever `out` held, whether `out` is contiguous or strided.  The README
    data have one live mode, (1, 0); every_mode_live has all 12 of the 4x4
    grid's."""
    cfg, s = case()
    sim = Simulator(cfg)
    live = np.zeros(len(sim.modes), dtype=bool)
    for fld in s.fields():
        if fld is not None:
            live |= _by_mode(fld).reshape(len(live), -1).any(axis=1)
    assert live.sum() == n_live
    ref = sim.step(s)
    out = _sentinel_state(cfg, strided)
    got = sim.step(s, out=out)
    assert got is out and got.t == ref.t == s.t + cfg.disc.dt
    for r, g in zip(ref.fields(), got.fields()):
        if r is None:
            assert g is None
            continue
        rows = g.data.reshape((len(live),) + g.data.shape[2:])
        assert np.array_equal(rows[live], _by_mode(r)[live])
        assert np.all(rows[~live] == 7 - 3j)


def _fingerprint(state):
    """Norm and one fixed complex projection of each field's coefficients."""
    out = {}
    for name in ("u", "w", "p_b", "v", "p_f"):
        data = getattr(state, name).data.ravel()
        k = np.arange(data.size)
        weights = np.cos(0.7 * k) + 1j * np.sin(1.3 * k)
        out[name] = (np.linalg.norm(data), np.vdot(weights, data),
                     np.linalg.norm(weights))
    return out


def _manufactured_step(kind):
    cfg = make_config(t_end=2 / 16)
    if kind == "transient":
        return solve_transient(
            manufacture_sources(temporal_case(), cfg.params), cfg)
    return solve_steady(manufacture_sources(steady_case(), cfg.params), cfg)


def _driven_step():
    tp = 2 * np.pi
    src = SourceSpec(
        F_b=(None, None,
             lambda x1, x2, x3, t: np.sin(tp * x1) * (1 - x3) * np.cos(t)),
        S=lambda x1, x2, x3, t: np.cos(tp * x2) * (1 - x3) * x3 * (1 + t),
        F_f=(lambda x1, x2, x3, t: np.cos(tp * (x1 + x2)) * (1 + x3)
             * np.sin(t + 1), None, None))
    cfg = replace(make_config(), sources=src)
    sim = Simulator(cfg)
    s = initialize(cfg, smooth_data(cfg, u0=True, u1=True, d0=True, v0=True),
                   sim)
    d = cfg.disc
    return sim.step(s, mode_sources=sample_sources(
        cfg.sources, d.n1, d.n2, sim.mb, sim.mf, d.dt))


# (norm, projection) per field, recorded from the implementation that
# assembled and solved one mode at a time
RECORDED_STEPS = {
    "transient": {
        "u": (1.2723135309458893, 0.3868873559328342 - 0.6009094105941957j),
        "w": (0.8782358782229115, 0.12090812087985292 + 0.3240444087752986j),
        "p_b": (0.6173436224965343,
                -0.43804438862227685 - 0.43869665809953184j),
        "v": (0.7833254541096292, 0.0829641885207851 + 0.2521328716431447j),
        "p_f": (0.604141095937927, -0.7773263425142446 + 0.40569565649244504j),
    },
    "steady": {
        "u": (1.631662739438384, -1.6428382882529513 - 0.4834313920691837j),
        "w": (26.106603831014144, -26.28541261204722 - 7.734902273106939j),
        "p_b": (0.7377100578054362, -1.0327915861064598 + 0.21957106932999157j),
        "v": (0.7624923714681695, 0.1744389401508417 + 0.24130749783719427j),
        "p_f": (0.6721413279249553, -0.830199119880628 + 0.4724557137384924j),
    },
    "sources": {
        "u": (0.16938719768171975, 0.07387907646251374 - 0.08721242098598542j),
        "w": (0.2703436967943766, -0.010823850023594754 + 0.14239018628545236j),
        "p_b": (0.026759581094499583,
                0.02167735750201044 - 0.030707089306657602j),
        "v": (0.20111477130786093,
              -0.010574791513465083 - 0.03662644454072652j),
        "p_f": (0.2955994668573799, 0.2517272719862252 - 0.056353365261410056j),
    },
}


@pytest.mark.parametrize("kind", sorted(RECORDED_STEPS))
def test_step_matches_recorded_values(kind):
    """Full physics with a nonzero prior, manufactured loads and interface
    defects (transient, and the steady path), or volumetric sources."""
    s = _driven_step() if kind == "sources" else _manufactured_step(kind)
    for name, (norm, proj, wnorm) in _fingerprint(s).items():
        ref_norm, ref_proj = RECORDED_STEPS[kind][name]
        assert abs(norm - ref_norm) <= 1e-12 * ref_norm
        # |projection| <= |weights| |data|, so this is relative to the data
        assert abs(proj - ref_proj) <= 1e-12 * wnorm * ref_norm


def test_repeat_run_bitwise_identical():
    cfg = make_config()
    data = smooth_data(cfg, u0=True, d0=True)
    a = run(cfg, data)
    b = run(cfg, data)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.u.data, sb.u.data)
        assert np.array_equal(sa.p_f.data, sb.p_f.data)


def test_restart_matches_uninterrupted():
    """Continuing from a mid-trajectory state reproduces the tail."""
    cfg = make_config(t_end=4 / 16)
    data = smooth_data(cfg, u0=True, u1=True, d0=True, v0=True)
    full = run(cfg, data)
    sim = Simulator(cfg)
    s = full.states[2].copy()
    for n in (3, 4):
        s = sim.step(s)
        ref = full.states[n]
        for fld in ("u", "p_b", "v", "p_f"):
            da = getattr(s, fld).data
            db = getattr(ref, fld).data
            assert np.abs(da - db).max() < 1e-12


def test_state_copy_is_deep():
    cfg = make_config()
    s = initialize(cfg, smooth_data(cfg, u0=True, d0=True))
    c = s.copy()
    c.u.data[:] = 123.0
    assert np.abs(s.u.data).max() != 123.0


def test_check_same_grid():
    cfg_a = make_config()
    cfg_b = make_config(nb=6)
    ta = run(cfg_a, InitialData())
    tb = run(cfg_b, InitialData())
    with pytest.raises(GridMismatch):
        check_same_grid(ta, tb)
    tc = run(replace(cfg_a, disc=replace(cfg_a.disc, t_end=2 / 16)),
             InitialData())
    with pytest.raises(GridMismatch):
        check_same_grid(ta, tc)
    # as many levels on the same grid, but at other times
    td = run(make_config(dt=1 / 32, t_end=4 / 32), InitialData())
    with pytest.raises(GridMismatch):
        check_same_grid(ta, td)
    check_same_grid(ta, ta)                        # no raise


# levels of a run -> its blocks of up to 8 increments
_BLOCKS = {2: 1, 8: 1, 9: 1, 10: 2, 16: 2, 17: 2, 33: 4}


@pytest.mark.parametrize("levels", [2, 8, 9, 10, 16, 17, 33])
def test_blocks_cover_each_level_and_increment_once(levels):
    """Every level is an own level of one block, every increment (n - 1, n)
    lies in one block, and every block is a view of the stacked run.  A
    block holds 8 increments: an 8-step run (9 levels) is one block."""
    traj = run(make_config(t_end=(levels - 1) / 16), InitialData())
    stacked = traj.stacked
    own_levels, increments = [], []
    assert len(list(traj.blocks())) == _BLOCKS[levels]
    for blk, own in traj.blocks():
        for f, g in zip(blk.fields(), stacked.fields()):
            if f is not None:
                assert np.shares_memory(f.data, g.data)
        # the block's levels, read back from its times
        idx = np.searchsorted(stacked.t, blk.t).tolist()
        assert np.array_equal(stacked.t[idx], blk.t)
        own_levels += idx[own]
        increments += list(zip(idx, idx[1:]))
    assert sorted(own_levels) == list(range(levels))
    assert sorted(increments) == [(n - 1, n) for n in range(1, levels)]
