"""Manufactured solutions: admissibility checks, exact source derivation,
defect data, and convergence studies."""

from dataclasses import replace

import numpy as np
import pytest
import sympy as sp

from bsqs.errors import NotDivergenceFree, Violation, InsufficientPoints
from bsqs.verification import (X1, X3, T, ManufacturedCase,
                               convergence_study, error_norms, exact_state,
                               fit_order, manufacture_sources, mode_loads,
                               reconstruction_case, solve_steady, steady_case,
                               temporal_case)
from conftest import make_config, make_params

_C1 = sp.cos(2 * sp.pi * X1)


def test_divergence_free_enforced():
    bad = ManufacturedCase(
        u=(sp.S.Zero, sp.S.Zero, _C1 * (1 - X3) ** 2),
        p_b=_C1 * (1 - X3),
        v=(sp.S.Zero, sp.S.Zero, _C1 * (1 + X3) ** 2),  # div v != 0
        p_f=_C1 * (1 + X3))
    with pytest.raises(NotDivergenceFree):
        manufacture_sources(bad, make_params())


def test_boundary_traces_enforced():
    good = steady_case()
    bad_u = ManufacturedCase(u=(sp.S.One, sp.S.Zero, sp.S.Zero),
                             p_b=good.p_b, v=good.v, p_f=good.p_f)
    with pytest.raises(Violation):
        manufacture_sources(bad_u, make_params())
    bad_p = ManufacturedCase(u=good.u, p_b=sp.S.One, v=good.v, p_f=good.p_f)
    with pytest.raises(Violation):
        manufacture_sources(bad_p, make_params())


def test_sources_verify_pointwise():
    """Check one derived source component against a hand derivative."""
    p = make_params(rho_b=0.0, delta=0.0, c0=2.0, k_perm=1.5, alpha=0.9)
    # u = (0, 0, c1 (1-x3)^2), pb = c1 (1-x3): S has no time dependence from
    # u (steady), so S = -k lap pb = -k (d11 + d33) pb
    case = ManufacturedCase(
        u=(sp.S.Zero, sp.S.Zero, _C1 * (1 - X3) ** 2),
        p_b=_C1 * (1 - X3),
        v=(sp.S.Zero, sp.S.Zero, sp.S.Zero),
        p_f=sp.S.Zero)
    md = manufacture_sources(case, p)
    expect = -p.k_perm * (sp.diff(case.p_b, X1, 2) + sp.diff(case.p_b, X3, 2))
    assert sp.simplify(md.S - expect) == 0
    # F_f of a zero fluid field is zero
    assert all(sp.simplify(f) == 0 for f in md.F_f)


def test_defects_capture_interface_mismatch():
    """The loads carry the interface defects as loads on their interface
    nodes.  The manufactured fields have a single cos(2 pi x1) mode, so the
    loads, defects included, sit in the (1, 0) mode only."""
    cfg = make_config()
    md = manufacture_sources(steady_case(), cfg.params)
    zero = sp.S.Zero
    bare = mode_loads(replace(md, g1=zero, g2=(zero,) * 2, g3=(zero,) * 3,
                              g4=zero), cfg, 0.0)
    loads = mode_loads(md, cfg, 0.0)
    for load, volumetric in zip(loads, bare):
        rest = load.data.copy()
        rest[1, 0] = 0.0
        assert np.abs(rest).max() < 1e-14
        # the defects change the interface node alone
        node = load.mesh.interface_node(load.degree)
        moved = np.abs(load.data - volumetric.data).max(axis=(0, 1, 2))
        assert moved[node] > 1e-3
        assert np.delete(moved, node).max() == 0.0
    # g4 = c cos(2 pi x1) enters the v3 row with coefficient c / 2
    Lf, Lf0 = loads[2], bare[2]
    iv = Lf.mesh.interface_node(2)
    c = float(md.g4.subs(X1, 0))
    assert abs(Lf.data[1, 0, 2, iv] - Lf0.data[1, 0, 2, iv] - c / 2) < 1e-12


def test_reconstruction_case_has_zero_normal_stress_defect():
    nu = 0.7
    p = make_params(nu=nu)
    md = manufacture_sources(reconstruction_case(nu), p)
    assert sp.simplify(md.g4) == 0


def test_exact_state_interpolates_fields():
    cfg = make_config(nb=8, nf=8)
    md = manufacture_sources(steady_case(), cfg.params)
    s = exact_state(md, cfg, 0.0)
    errs = error_norms(s, s, cfg.params)
    assert all(v == 0.0 for v in errs.values())
    assert s.w is not None        # rho_b > 0 carries the elastic velocity


def test_steady_solve_converges_to_manufactured_fields():
    cfg = make_config(n1=4, n2=4, nb=16, nf=16)
    md = manufacture_sources(steady_case(), cfg.params)
    s = solve_steady(md, cfg)
    exact = exact_state(md, cfg, 0.0)
    errs = error_norms(s, exact, cfg.params)
    # just closeness here; orders are covered by the acceptance study
    assert errs["u"] < 0.05
    assert errs["p_b"] < 0.05
    assert errs["v"] < 0.05
    assert errs["p_f"] < 0.05


def test_fit_order_exact_powers():
    hs = [0.25, 0.125, 0.0625]
    assert fit_order(hs, [h**2 for h in hs]) == pytest.approx(2.0)
    assert fit_order(hs, [3 * h for h in hs]) == pytest.approx(1.0)
    with pytest.raises(InsufficientPoints):
        fit_order([0.1, 0.05], [1.0, 0.5])
    assert fit_order(hs, [0.0, 0.0, 0.0]) == np.inf


def test_temporal_case_profiles_live_in_element_spaces():
    case = temporal_case()
    # velocities at most quadratic in x3, pressures at most linear: the
    # vertical discretization is then exact and errors are purely temporal
    for e in case.u + case.v:
        assert sp.degree(sp.Poly(sp.expand(e).subs(T, 0.3), X3)) <= 2 \
            if e != 0 else True
    for e in (case.p_b, case.p_f):
        assert sp.degree(sp.Poly(sp.expand(e).subs(T, 0.3), X3)) <= 1


def test_convergence_study_temporal_first_order():
    cfg = make_config(n1=4, n2=4, nb=4, nf=4, dt=1 / 8, t_end=0.5)
    res = convergence_study(temporal_case(), cfg, [1 / 4, 1 / 8, 1 / 16],
                            kind="temporal")
    for k in ("u", "p_b", "v", "p_f"):
        assert res["orders"][k] > 0.85
    with pytest.raises(ValueError):
        convergence_study(temporal_case(), cfg, [1 / 4], kind="bogus")
