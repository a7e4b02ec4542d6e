"""Singular-limit sweep machinery: spec validation, trajectory distances,
vanishing-term diagnostics, and rate fitting."""

from dataclasses import replace

import numpy as np
import pytest

import bsqs.spectral
from bsqs.config import SourceSpec, with_params
from bsqs.errors import InsufficientPoints, OrderingViolation, Violation
from bsqs.integrator import InitialData, run
from bsqs.limit_lab import (DistanceReport, SweepSpec, estimate_rate,
                            run_sweep, trajectory_distance)
from conftest import make_config, make_params, smooth_initial_callables


def small_sweep_setup(param="delta", **regime):
    cfg = make_config(params=make_params(**regime), t_end=3 / 16)
    fns = smooth_initial_callables(alpha=cfg.params.alpha)
    data = InitialData.from_callables(cfg, u0=fns["u0"], d0=fns["d0"])
    return cfg, data


def test_spec_validation():
    cfg, data = small_sweep_setup()
    with pytest.raises(Violation):
        SweepSpec(cfg, "nu", (0.1, 0.01), data).validate()
    with pytest.raises(Violation):
        SweepSpec(cfg, "delta", (), data).validate()
    with pytest.raises(Violation):
        SweepSpec(cfg, "delta", (0.01, 0.1), data).validate()   # increasing
    with pytest.raises(Violation):
        SweepSpec(cfg, "delta", (0.1, 0.0), data).validate()    # nonpositive
    SweepSpec(cfg, "delta", (0.1, 0.01), data).validate()


def test_rho_sweep_requires_viscoelasticity():
    # the joint density limit is taken before the viscoelastic one, so the
    # base configuration must keep delta > 0
    cfg, data = small_sweep_setup(delta=0.0)
    with pytest.raises(OrderingViolation):
        SweepSpec(cfg, "rho_joint", (0.1, 0.01), data).validate()
    cfg2, data2 = small_sweep_setup(delta=0.1)
    SweepSpec(cfg2, "rho_joint", (0.1, 0.01), data2).validate()


def test_trajectory_distance_zero_for_identical_runs():
    cfg, data = small_sweep_setup()
    a = run(cfg, data)
    b = run(cfg, data)
    d = trajectory_distance(a, b, cfg.params)
    assert all(v == pytest.approx(0.0, abs=1e-13) for v in d.values())
    assert set(d) == {"D1", "D2", "D3", "D4"}


def test_trajectory_distance_scales_with_perturbation():
    cfg, data = small_sweep_setup()
    a = run(cfg, data)
    b = run(cfg, data)
    for s in b.states:
        s.u.data *= 1.0 + 1e-6
    d = trajectory_distance(a, b, cfg.params)
    assert 0 < d["D1"] < 1e-4


def test_run_sweep_populates_report_and_decreases():
    cfg, data = small_sweep_setup(rho_b=0.0, rho_f=0.0, delta=1.0)
    spec = SweepSpec(cfg, "delta", (1e-1, 1e-2, 1e-3), data)
    rep = run_sweep(spec)
    assert rep.values == [1e-1, 1e-2, 1e-3]
    for name in ("D1", "D2", "D3", "D4"):
        vals = getattr(rep, name)
        assert len(vals) == 3
        assert vals[0] > vals[1] > vals[2] > 0
    # the delta-weighted term vanishes with the parameter
    assert rep.delta_term[0] > rep.delta_term[-1]
    # rho terms are identically zero in this regime
    assert all(v == 0.0 for v in rep.kinetic_b)
    assert all(v == 0.0 for v in rep.kinetic_f)


def test_driven_sweep_samples_the_sources_once(monkeypatch):
    """A driven rho sweep samples each source once per stamp, in the
    reference run (plus its t = 0 probe: rho_f = 0 harvests the fluid state
    from a solve), and every swept run steps on those samples: its distances
    are bitwise those of independently run trajectories."""
    tp = 2 * np.pi
    cfg = replace(make_config(params=make_params(delta=0.5), t_end=3 / 16),
                  sources=SourceSpec(
        F_b=(None, None,
             lambda x1, x2, x3, t: np.sin(tp * x1) * (1 - x3) * np.cos(t)),
        S=lambda x1, x2, x3, t: np.cos(tp * x2) * (1 - x3) * x3 * (1 + t),
        F_f=(lambda x1, x2, x3, t: np.cos(tp * (x1 + x2)) * (1 + x3)
             * np.sin(t + 1), None, None)))
    data = InitialData()
    values = (0.1, 0.05, 0.025)
    calls = []
    sample = bsqs.spectral.sample_function

    def counted(*args, **kwargs):
        calls.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(bsqs.spectral, "sample_function", counted)
    rep = run_sweep(SweepSpec(cfg, "rho_joint", values, data))
    assert len(calls) == 3 * cfg.disc.n_steps + 3
    ref = run(with_params(cfg, rho_b=0.0, rho_f=0.0), data)
    for n, value in enumerate(values):
        swept = with_params(cfg, rho_b=value, rho_f=value)
        d = trajectory_distance(run(swept, data), ref, swept.params)
        for name in ("D1", "D2", "D3", "D4"):
            assert getattr(rep, name)[n] == d[name]
        assert d["D1"] > 0


def test_estimate_rate_slopes_near_one():
    cfg, data = small_sweep_setup(rho_b=0.0, rho_f=0.0, delta=1.0)
    spec = SweepSpec(cfg, "delta", (1e-2, 1e-3, 1e-4), data)
    rates = estimate_rate(run_sweep(spec))
    for name in ("D1", "D2", "D3", "D4"):
        assert rates[name]["slope"] > 0.8


def test_estimate_rate_needs_three_points():
    rep = DistanceReport(values=[0.1, 0.01], D1=[1.0, 0.1], D2=[1.0, 0.1],
                         D3=[1.0, 0.1], D4=[1.0, 0.1])
    with pytest.raises(InsufficientPoints):
        estimate_rate(rep)


def test_estimate_rate_handles_zero_distances():
    rep = DistanceReport(values=[0.1, 0.01, 0.001],
                         D1=[0.0, 0.0, 0.0], D2=[1.0, 0.1, 0.01],
                         D3=[1.0, 0.1, 0.01], D4=[1.0, 0.1, 0.01])
    rates = estimate_rate(rep)
    assert rates["D1"]["slope"] == np.inf
    assert rates["D2"]["slope"] == pytest.approx(1.0, abs=1e-9)
