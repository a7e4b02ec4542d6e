"""Time integration: initialization semantics, stepping, determinism, restart
continuation, and input validation."""

import numpy as np
import pytest
from dataclasses import replace

from bsqs.config import Discretization, RunConfig
from bsqs.errors import (GridMismatch, IncompatibleData, NotDivergenceFree,
                         Violation)
from bsqs.integrator import (InitialData, Simulator, check_same_grid,
                             initialize, run)
from bsqs.spectral import inverse_transform
from conftest import make_config, make_params, smooth_initial_callables


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
    assert len(traj.energies) == len(traj.states)
    assert len(traj.dissipation) == cfg.disc.n_steps
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


def test_threaded_run_is_deterministic():
    cfg = make_config(n1=4, n2=8)
    data = smooth_data(cfg, u0=True, u1=True, d0=True, v0=True)
    a = run(cfg, data, threads=1)
    b = run(cfg, data, threads=4)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.u.data, sb.u.data)
        assert np.array_equal(sa.v.data, sb.v.data)
        assert np.array_equal(sa.p_b.data, sb.p_b.data)
        assert np.array_equal(sa.p_f.data, sb.p_f.data)


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
    check_same_grid(ta, ta)                        # no raise
