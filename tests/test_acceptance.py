"""Acceptance suite: twelve numbered criteria, one test (= one pass/fail
line under ``pytest -v``) per criterion, at the stated tolerances.

Desk scale unless a criterion states otherwise: n1 = n2 = 8, nb = nf = 16,
T = 0.5, dt = 1/64.
"""

import numpy as np
from dataclasses import replace

from bsqs import energy as en
from bsqs.config import Discretization, RunConfig
from bsqs.fem1d import VerticalMesh, mass
from bsqs.greens import bvp_oracle, dirichlet_extension, neumann_extension, \
    reconstruct_fluid_pressure
from bsqs.integrator import InitialData, Simulator, run
from bsqs.limit_lab import SweepSpec, run_sweep
from bsqs.mode_assembly import assemble_generator, dense_real_space_oracle
from bsqs.spectral import forward_transform, inverse_transform, mode_table, \
    mode_weights
from bsqs.verification import (convergence_study, manufacture_sources,
                               reconstruction_case, solve_steady, steady_case,
                               temporal_case)
from conftest import (drop_nyquist, interface_residuals, make_params,
                      smooth_initial_callables)

DESK = Discretization(n1=8, n2=8, nb=16, nf=16, dt=1 / 64, t_end=0.5)


def desk_config(params, **disc_overrides):
    return RunConfig(params=params, disc=replace(DESK, **disc_overrides))


def random_regime(rng, pattern):
    """Admissible parameter set with the given (rho_b, rho_f, delta, c0)
    sign pattern and random magnitudes."""
    mag = lambda: float(10.0 ** rng.uniform(-1, 0.5))
    rb, rf, de, c0 = pattern
    return make_params(
        lam=mag(), mu=mag(), alpha=mag(), k_perm=mag(), nu=mag(), beta=mag(),
        rho_b=mag() if rb else 0.0, rho_f=mag() if rf else 0.0,
        delta=mag() if de else 0.0, c0=mag() if c0 else 0.0)


def random_smooth_data(cfg, rng):
    """Random smooth admissible data, compatible in every storage regime."""
    coeffs = rng.uniform(-0.3, 0.3, size=3)
    fns = smooth_initial_callables(*coeffs, alpha=cfg.params.alpha)
    return InitialData.from_callables(cfg, **fns)


def energy_ledger(traj, cfg):
    """Energy e_n of every state and dissipation increment of every step."""
    states = traj.states
    energies = [en.energy(s, cfg.params) for s in states]
    dissipation = [en.dissipation_increment(a, b, cfg.params, cfg.disc.dt)
                   for a, b in zip(states, states[1:])]
    return energies, dissipation


def test_criterion_01_discrete_energy_dissipativity(rng):
    """20 random admissible regimes spanning all sign patterns, random smooth
    data, zero sources: e_{n+1} + d_inc <= e_n + 1e-10 max(e_0, 1)."""
    patterns = [(rb, rf, de, c0)
                for rb in (False, True) for rf in (False, True)
                for de in (False, True) for c0 in (False, True)]
    patterns += [tuple(rng.random(4) > 0.5) for _ in range(4)]
    assert len(patterns) == 20
    for pattern in patterns:
        cfg = desk_config(random_regime(rng, pattern))
        traj = run(cfg, random_smooth_data(cfg, rng))
        energies, dissipation = energy_ledger(traj, cfg)
        tol = 1e-10 * max(energies[0], 1.0)
        for n, d_inc in enumerate(dissipation):
            assert energies[n + 1] + d_inc <= energies[n] + tol, \
                f"regime {pattern}: energy gained at step {n}"


def test_criterion_02_energy_identity_convergence(rng):
    """Terminal defect |e_N + d_N - e_0| of a smooth source-free run with
    delta, rho > 0 halves with dt (ratio in [1.6, 2.4]) across 3 levels."""
    params = make_params(rho_b=1.0, rho_f=0.5, delta=0.25, c0=1.0)
    defects = []
    for dt in (1 / 32, 1 / 64, 1 / 128):
        cfg = desk_config(params, dt=dt)
        traj = run(cfg, random_smooth_data(cfg, np.random.default_rng(7)))
        energies, dissipation = energy_ledger(traj, cfg)
        d_cum = float(np.sum(dissipation))
        defects.append(abs(energies[-1] + d_cum - energies[0]))
    ratios = [defects[i] / defects[i + 1] for i in range(2)]
    assert all(1.6 <= r <= 2.4 for r in ratios), f"ratios {ratios}"


ORACLE_REGIMES = {
    "inertial-damped": {},
    "quasi-static-damped": {"rho_b": 0.0, "rho_f": 0.0},
    "fully-degenerate": {"rho_b": 0.0, "rho_f": 0.0, "delta": 0.0, "c0": 0.0},
}


def _oracle_comparison(cfg, rng):
    """Max relative field mismatch between one pipeline step and the dense
    monolithic solve from the same random band-limited prior."""
    from bsqs.integrator import _zero_state
    d = cfg.disc
    mb, mf = VerticalMesh("biot", d.nb), VerticalMesh("fluid", d.nf)
    u = drop_nyquist(rng.standard_normal((d.n1, d.n2, 3, mb.n_nodes(2))))
    w = drop_nyquist(rng.standard_normal((d.n1, d.n2, 3, mb.n_nodes(2))))
    p = drop_nyquist(rng.standard_normal((d.n1, d.n2, mb.n_nodes(1))))
    v = drop_nyquist(rng.standard_normal((d.n1, d.n2, 3, mf.n_nodes(2))))
    for arr, mesh, deg in ((u, mb, 2), (w, mb, 2), (v, mf, 2)):
        arr[..., mesh.clamped_node(deg)] = 0
    p[..., mb.clamped_node(1)] = 0
    s = _zero_state(cfg)
    s.u = forward_transform(u, mb, 2)
    if s.w is not None:
        s.w = forward_transform(w, mb, 2)
    s.p_b = forward_transform(p, mb, 1)
    s.v = forward_transform(v, mf, 2)
    s_next = Simulator(cfg).step(s)
    prior = {"u": u, "w": w if cfg.params.rho_b > 0 else None, "p": p, "v": v}
    out = dense_real_space_oracle(cfg, prior, sources=None)
    worst = 0.0
    for mine, oracle in (
            (inverse_transform(s_next.u), out["u"]),
            (inverse_transform(s_next.p_b)[:, :, 0, :], out["p"]),
            (inverse_transform(s_next.v), out["v"]),
            (inverse_transform(s_next.p_f)[:, :, 0, :], out["pf"])):
        scale = max(np.abs(oracle).max(), 1e-12)
        worst = max(worst, np.abs(mine - oracle.real).max() / scale,
                    np.abs(oracle.imag).max() / scale)
    return worst


def test_criterion_03_oracle_equivalence(rng):
    """One implicit step on a 4x4x(4+4) grid matches the dense real-space
    oracle to relative 1e-9 in every field, in 3 distinct regimes."""
    for name, overrides in ORACLE_REGIMES.items():
        cfg = desk_config(make_params(**overrides), n1=4, n2=4, nb=4, nf=4)
        worst = _oracle_comparison(cfg, rng)
        assert worst < 1e-9, f"{name}: relative mismatch {worst:.3e}"


def test_criterion_04_greens_map_closed_forms():
    """dirichlet/neumann closed forms match the 1000-point BVP oracle to max
    error 1e-8 for modes (0,0), (1,0), (3,4), (8,8)."""
    for k in ((0, 0), (1, 0), (3, 4), (8, 8)):
        kap = 2 * np.pi * float(np.hypot(*k))
        grid, phi = bvp_oracle(kap, 1.0, 0.0, npts=1000)
        err_d = np.abs(dirichlet_extension(kap, 1.0, grid) - phi).max()
        grid, phi = bvp_oracle(kap, 0.0, 1.0, npts=1000)
        err_n = np.abs(neumann_extension(kap, 1.0, grid) - phi).max()
        assert err_d < 1e-8 and err_n < 1e-8, \
            f"mode {k}: dirichlet {err_d:.3e}, neumann {err_n:.3e}"


def test_criterion_05_pressure_reconstruction_consistency():
    """|| pi - p_f ||_{L2} on a solenoidally-forced manufactured case
    decreases under vertical refinement with observed order >= 1."""
    params = make_params(nu=0.7)
    md = manufacture_sources(reconstruction_case(params.nu), params)
    errs = []
    for nv in (8, 16, 32):
        cfg = desk_config(params, n1=4, n2=4, nb=nv, nf=nv)
        s = solve_steady(md, cfg)
        mf = s.v.mesh
        pi = reconstruct_fluid_pressure(s.p_b, s.v, params.nu, mf.nodes(1))
        diff = pi - s.p_f.data[:, :, 0, :]
        Mp = mass(mf, 1).toarray()
        w = mode_weights(cfg.disc.n1, cfg.disc.n2)[:, None]
        errs.append(float(np.sqrt(np.sum(w * np.einsum(
            "kjn,nm,kjm->kj", np.conj(diff), Mp, diff).real))))
    assert errs[0] > errs[1] > errs[2], f"not decreasing: {errs}"
    order = np.log2(errs[0] / errs[2]) / 2
    assert order >= 1.0, f"observed order {order:.2f} < 1 ({errs})"


def test_criterion_06_generator_dissipativity(rng):
    """Hermitian-part certificate <= 1e-8 (normalized) for 10 random
    positive parameter sets, all stored modes, nb = nf = 8."""
    mb, mf = VerticalMesh("biot", 8), VerticalMesh("fluid", 8)
    for _ in range(10):
        p = random_regime(rng, (True, True, True, True))
        worst = max(
            en.generator_dissipativity_check(*assemble_generator(m, p, mb, mf))
            for m in mode_table(DESK.n1, DESK.n2))
        assert worst <= 1e-8, f"params {p}: certificate {worst:.3e}"


def _strictly_decreasing(vals):
    return all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


def test_criterion_07_inertial_limit():
    """Joint sweep rho in {1e-1..1e-5} with delta = 0.1, c0 = 1: D1-D4
    strictly decreasing with final/first <= 1e-2; kinetic diagnostics
    decrease monotonically to <= 1e-6 of their first value."""
    params = make_params(rho_b=1.0, rho_f=1.0, delta=0.1, c0=1.0)
    cfg = desk_config(params)
    fns = smooth_initial_callables(alpha=params.alpha)
    # initial elastic velocity only: the quasi-static reference stays at rest
    data = InitialData.from_callables(cfg, u1=fns["u1"])
    spec = SweepSpec(cfg, "rho_joint", (1e-1, 1e-2, 1e-3, 1e-4, 1e-5), data)
    rep = run_sweep(spec)
    for name in ("D1", "D2", "D3", "D4"):
        vals = getattr(rep, name)
        assert _strictly_decreasing(vals), f"{name} not decreasing: {vals}"
        assert vals[-1] / vals[0] <= 1e-2, f"{name} final/first {vals}"
    for name in ("kinetic_b", "kinetic_f"):
        vals = getattr(rep, name)
        assert _strictly_decreasing(vals), f"{name} not decreasing: {vals}"
        assert vals[-1] <= 1e-6 * vals[0], f"{name} tail too large: {vals}"


def test_criterion_08_viscoelastic_limit():
    """Sweep delta in {1e-1..1e-5} with rho = 0, c0 = 1: D1-D4 strictly
    decreasing with final/first <= 1e-2; the weak-form term magnitude
    delta ||Dt u||_E ||grad xi|| decays with asymptotic log-log slope
    >= 0.9."""
    params = make_params(rho_b=0.0, rho_f=0.0, delta=1.0, c0=1.0)
    cfg = desk_config(params)
    fns = smooth_initial_callables(alpha=params.alpha)
    data = InitialData.from_callables(cfg, u0=fns["u0"])
    values = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    rep = run_sweep(SweepSpec(cfg, "delta", values, data))
    for name in ("D1", "D2", "D3", "D4"):
        vals = getattr(rep, name)
        assert _strictly_decreasing(vals), f"{name} not decreasing: {vals}"
        assert vals[-1] / vals[0] <= 1e-2, f"{name} final/first {vals}"
    # fixed smooth test function xi: its gradient norm is a constant factor
    mb = VerticalMesh("biot", DESK.nb)
    xi = forward_transform(np.broadcast_to(
        (1.0 - mb.nodes(1))[None, None, None, :],
        (DESK.n1, DESK.n2, 1, mb.n_nodes(1))).copy(), mb, 1)
    grad_xi = float(np.sqrt(en.grad_norm_sq(xi)))
    term = np.asarray(rep.delta_term) * grad_xi
    # slope over the asymptotic tail (last three sweep points)
    slope = np.polyfit(np.log(values[-3:]), np.log(term[-3:]), 1)[0]
    assert slope >= 0.9, f"weak-form term slope {slope:.3f} < 0.9 ({term})"


def test_criterion_09_storage_limit(rng):
    """Sweep c0 in {1e-1..1e-5} with rho = delta = 0 and compatible data:
    distances strictly decreasing; the c0 = 0 reference run itself passes
    the dissipativity audit and the dense-oracle equivalence."""
    params = make_params(rho_b=0.0, rho_f=0.0, delta=0.0, c0=1.0)
    cfg = desk_config(params)
    fns = smooth_initial_callables(alpha=params.alpha)
    data = InitialData.from_callables(cfg, u0=fns["u0"], d0=fns["d0"])
    values = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    rep = run_sweep(SweepSpec(cfg, "c0", values, data))
    for name in ("D1", "D2", "D3", "D4"):
        vals = getattr(rep, name)
        assert _strictly_decreasing(vals), f"{name} not decreasing: {vals}"
    # the exactly-degenerate reference satisfies criterion 1 ...
    ref_params = make_params(rho_b=0.0, rho_f=0.0, delta=0.0, c0=0.0)
    ref_cfg = desk_config(ref_params)
    traj = run(ref_cfg, data)
    en.audit(traj, ref_params)    # raises BalanceViolation on failure
    # ... and criterion 3 in the same regime
    small = desk_config(ref_params, n1=4, n2=4, nb=4, nf=4)
    assert _oracle_comparison(small, rng) < 1e-9


def test_criterion_10_mms_convergence():
    """Steady vertical orders >= 2 for u, v (energy/H1) and p_f (L2),
    >= 1 for p_b (H1); temporal order >= 0.9; 3 levels each."""
    cfg = desk_config(make_params(), n1=4, n2=4)
    spat = convergence_study(steady_case(), cfg,
                             [(8, 8), (16, 16), (32, 32)], kind="vertical")
    for fld, need in (("u", 2.0), ("v", 2.0), ("p_f", 2.0), ("p_b", 1.0)):
        got = spat["orders"][fld]
        assert got >= need, f"{fld}: vertical order {got:.2f} < {need}"
    temp = convergence_study(temporal_case(), cfg,
                             [1 / 8, 1 / 16, 1 / 32], kind="temporal")
    for fld in ("u", "p_b", "v", "p_f"):
        got = temp["orders"][fld]
        assert got >= 0.9, f"{fld}: temporal order {got:.2f} < 0.9"


def test_criterion_11_interface_condition_residuals():
    """On the fully degenerate regime, the discrete kinematic, slip, and
    normal-stress interface residuals converge with order >= 1 under
    vertical refinement."""
    params = make_params(rho_b=0.0, rho_f=0.0, delta=0.0, c0=0.0)
    fns = smooth_initial_callables(alpha=params.alpha)
    res = {k: [] for k in ("kinematic", "slip", "normal_stress")}
    for nv in (8, 16, 32):
        cfg = desk_config(params, nb=nv, nf=nv, t_end=0.25)
        data = InitialData.from_callables(cfg, u0=fns["u0"], d0=fns["d0"])
        traj = run(cfg, data)
        r = interface_residuals(traj.states[-2], traj.states[-1], params,
                                cfg.disc.dt)
        for k, v in r.items():
            res[k].append(v)
    for k, errs in res.items():
        assert errs[0] > errs[1] > errs[2], f"{k} not decreasing: {errs}"
        order = np.log2(errs[0] / errs[2]) / 2
        assert order >= 1.0, f"{k}: observed order {order:.2f} < 1 ({errs})"


def test_criterion_12_determinism_and_restart(tmp_path):
    """Byte-identical CSVs across repeated runs; snapshot-restart
    continuation matches the uninterrupted run to 1e-10."""
    from bsqs.cli import main
    from bsqs.snapshots import read_snapshot
    cfg_text = """
physics.lambda = 1.0
physics.mu = 1.0
physics.alpha = 1.0
physics.c0 = 1.0
physics.k = 1.0
physics.nu = 1.0
physics.beta = 1.0
physics.rho_b = 1.0
physics.rho_f = 0.5
physics.delta = 0.25
grid.n1 = 8
grid.n2 = 8
grid.nb = 16
grid.nf = 16
time.dt = 0.015625
time.t_end = 0.5
run.u0_3 = 0.1*cos(2*pi*x1)*(1-x3)^2
run.d0 = -0.2*cos(2*pi*x1)*(1-x3)
run.u1_1 = 0.2*sin(2*pi*x2)*(1-x3)
"""
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(cfg_text)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_file), "--out", str(out_a),
                 "--quiet"]) == 0
    assert main(["run", "--config", str(cfg_file), "--out", str(out_b),
                 "--quiet"]) == 0
    assert (out_a / "energy.csv").read_bytes() == \
        (out_b / "energy.csv").read_bytes(), "energy.csv not byte-identical"
    # restart from the mid-trajectory snapshot and march to the end
    from bsqs.config import parse_config
    cfg = parse_config(cfg_text)
    n_half = cfg.disc.n_steps // 2
    s, _ = read_snapshot(out_a / f"state_{n_half:04d}.snap")
    sim = Simulator(cfg)
    for n in range(n_half, cfg.disc.n_steps):
        s = sim.step(s)
    ref, _ = read_snapshot(out_a / f"state_{cfg.disc.n_steps:04d}.snap")
    for fld in ("u", "p_b", "v", "p_f"):
        gap = np.abs(getattr(s, fld).data - getattr(ref, fld).data).max()
        assert gap < 1e-10, f"restart mismatch in {fld}: {gap:.3e}"
