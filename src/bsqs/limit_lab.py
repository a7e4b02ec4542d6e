"""Singular-limit sweeps: drive (rho_b, rho_f), delta, or c0 toward zero and
measure trajectory distances to the exactly-degenerate reference run.

The reference trajectory (swept parameter exactly 0) is computed directly,
so distances are to the true limit system, not a proxy.  Sweeps over the
joint density require delta > 0 in the base configuration: inertia must
vanish before viscoelasticity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig, with_params
from .energy import (_NEXT, _PREV, _rate, _slip_trace, _trace_norm_sq,
                     elastic_norm_sq, grad_norm_sq, l2_norm_sq,
                     viscous_norm_sq)
from .errors import InsufficientPoints, OrderingViolation, Violation
from .integrator import InitialData, Trajectory, check_same_grid, run

_SWEEPABLE = ("rho_joint", "delta", "c0")


@dataclass(frozen=True)
class SweepSpec:
    base: RunConfig
    param: str                 # "rho_joint" | "delta" | "c0"
    values: tuple              # strictly decreasing positive sequence
    data: InitialData

    def validate(self):
        if self.param not in _SWEEPABLE:
            raise Violation("param", self.param,
                            f"must be one of {_SWEEPABLE}")
        vals = np.asarray(self.values, dtype=float)
        if vals.size == 0 or np.any(vals <= 0) or np.any(np.diff(vals) >= 0):
            raise Violation("values", self.values,
                            "must be strictly decreasing and positive")
        if self.param == "rho_joint" and self.base.params.delta == 0:
            raise OrderingViolation(
                "rho sweep needs delta > 0: inertia vanishes first")
        return self


@dataclass
class DistanceReport:
    values: list = field(default_factory=list)
    D1: list = field(default_factory=list)   # sup_n ||u_a - u_b||_E
    D2: list = field(default_factory=list)   # L2-in-time grad pressure gap
    D3: list = field(default_factory=list)   # L2-in-time strain-rate gap
    D4: list = field(default_factory=list)   # L2-in-time tangential slip gap
    kinetic_b: list = field(default_factory=list)   # rho_b max_n ||Dt u||^2
    kinetic_f: list = field(default_factory=list)   # rho_f max_n ||v||^2
    delta_term: list = field(default_factory=list)  # delta max_n ||Dt u||_E


def _difference(a, b, name, sl):
    """Field `name` of stacked state a minus that of b, at the levels sl."""
    fa = getattr(a, name)
    return replace(fa, data=fa.data[sl] - getattr(b, name).data[sl])


def trajectory_distance(a: Trajectory, b: Trajectory, params) -> dict:
    """The four discrete limit-topology distances between two trajectories
    sharing a grid, data, and sources, with the norms evaluated over their
    blocks of levels (Trajectory.blocks) at once."""
    check_same_grid(a, b)
    dt = a.times[1] - a.times[0]
    d1_sq = 0.0
    d2_sq = 0.0
    d3_sq = 0.0
    d4_sq = 0.0
    for (sa, own), (sb, _) in zip(a.blocks(), b.blocks()):
        d1_sq = max(d1_sq, float(np.max(elastic_norm_sq(
            _difference(sa, sb, "u", own), params))))
        d2_sq += dt * float(np.sum(grad_norm_sq(
            _difference(sa, sb, "p_b", _NEXT))))
        d3_sq += dt * float(np.sum(viscous_norm_sq(
            _difference(sa, sb, "v", _NEXT), 0.5)))
        slip_a = _slip_trace(sa.levels(_PREV), sa.levels(_NEXT), dt)
        slip_b = _slip_trace(sb.levels(_PREV), sb.levels(_NEXT), dt)
        d4_sq += dt * float(np.sum(_trace_norm_sq(slip_a - slip_b)))
    return {"D1": float(np.sqrt(d1_sq)), "D2": float(np.sqrt(d2_sq)),
            "D3": float(np.sqrt(d3_sq)), "D4": float(np.sqrt(d4_sq))}


def _vanishing_terms(traj: Trajectory, params) -> dict:
    """Magnitudes of the terms the limit passage sends to zero, with the
    norms evaluated over the trajectory's blocks of levels."""
    dt = traj.times[1] - traj.times[0]
    max_dtu_l2 = 0.0
    max_dtu_e = 0.0
    max_v = 0.0
    for blk, _ in traj.blocks():
        nxt = blk.levels(_NEXT)
        du = _rate(blk.levels(_PREV).u, nxt.u, dt)
        max_dtu_l2 = max(max_dtu_l2, float(np.max(l2_norm_sq(du))))
        max_dtu_e = max(max_dtu_e, float(np.max(elastic_norm_sq(du, params))))
        max_v = max(max_v, float(np.max(l2_norm_sq(nxt.v))))
    return {
        "kinetic_b": params.rho_b * max_dtu_l2,
        "kinetic_f": params.rho_f * max_v,
        "delta_term": params.delta * float(np.sqrt(max_dtu_e)),
    }


def _swept_config(base: RunConfig, param: str, value: float) -> RunConfig:
    if param == "rho_joint":
        return with_params(base, rho_b=value, rho_f=value)
    return with_params(base, **{param: value})


def run_sweep(spec: SweepSpec) -> DistanceReport:
    """Run the reference (parameter exactly 0) and every swept value from
    identical data, and report distances and vanishing-term magnitudes.
    No swept parameter changes the sources or the time grid, so every run
    steps on the sources the reference sampled."""
    spec.validate()
    ref_cfg = _swept_config(spec.base, spec.param, 0.0)
    ref = run(ref_cfg, spec.data)
    rep = DistanceReport()
    for value in spec.values:
        cfg = _swept_config(spec.base, spec.param, value)
        traj = run(cfg, spec.data, sources=ref.sources)
        d = trajectory_distance(traj, ref, cfg.params)
        extras = _vanishing_terms(traj, cfg.params)
        rep.values.append(value)
        rep.D1.append(d["D1"])
        rep.D2.append(d["D2"])
        rep.D3.append(d["D3"])
        rep.D4.append(d["D4"])
        rep.kinetic_b.append(extras["kinetic_b"])
        rep.kinetic_f.append(extras["kinetic_f"])
        rep.delta_term.append(extras["delta_term"])
        del traj    # dropped before the next run builds its own
    return rep


def log_log_fit(xs, ys):
    """Least-squares slope and residual of log(ys) against log(xs) over the
    positive ys; (inf, 0.0) when fewer than two are positive."""
    ys = np.asarray(ys, dtype=float)
    mask = ys > 0
    if mask.sum() < 2:
        return np.inf, 0.0
    A = np.vstack([np.log(xs)[mask], np.ones(int(mask.sum()))]).T
    coef, res, *_ = np.linalg.lstsq(A, np.log(ys[mask]), rcond=None)
    return float(coef[0]), (float(res[0]) if res.size else 0.0)


def estimate_rate(report: DistanceReport) -> dict:
    """Per-distance log-log least-squares slope (and residual) against the
    swept values."""
    if len(report.values) < 3:
        raise InsufficientPoints("need at least 3 sweep points")
    out = {}
    for name in ("D1", "D2", "D3", "D4"):
        slope, resid = log_log_fit(report.values, getattr(report, name))
        out[name] = {"slope": slope, "residual": resid}
    return out
