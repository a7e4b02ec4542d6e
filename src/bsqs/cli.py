"""Command-line entry point.

Commands: run, sweep, verify, audit, greens-check.  Exit status: 0 on
success, 1 on usage errors, 2 on solver or validation failures (reported to
standard error as ``error[CODE]: message``).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import energy as en
from . import greens, snapshots
from .config import parse_config
from .errors import BsqsError, Violation
from .integrator import InitialData, run
from .limit_lab import SweepSpec, estimate_rate, run_sweep


# the commands that read a configuration file
_CONFIGURED = ("run", "sweep", "audit")


def _build_parser():
    p = argparse.ArgumentParser(prog="bsqs", description=__doc__)
    p.add_argument("command", choices=tuple(_COMMANDS))
    p.add_argument("--config",
                   help="configuration file (run, sweep and audit only)")
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--quiet", action="store_true")
    return p


def _load_config(path):
    if not os.path.isfile(path):
        raise FileNotFoundError(path)
    with open(path) as f:
        return parse_config(f.read())


def _say(args, msg):
    if not args.quiet:
        print(msg)


def _cmd_run(args):
    """`run` and `audit`: integrate, audit the states into energy.csv, and
    for `run` also write one snapshot per state."""
    cfg = _load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    traj = run(cfg, InitialData.from_plan(cfg))
    rep = en.audit(traj, cfg.params)
    snapshots.write_timeseries(snapshots.energy_report_columns(rep),
                               os.path.join(args.out, "energy.csv"))
    driven = ("" if rep.driven_constant is None
              else f"; driven constant {rep.driven_constant:.3e}")
    if args.command == "audit":
        _say(args, f"wrote energy.csv to {args.out}; "
                   f"max residual {max(rep.residual):.3e}{driven}")
        return 0
    regime = {k: getattr(cfg.params, k)
              for k in ("rho_b", "rho_f", "delta", "c0")}
    for n, s in enumerate(traj.states):
        snapshots.write_snapshot(
            s, os.path.join(args.out, f"state_{n:04d}.snap"), regime=regime)
    _say(args, f"wrote {len(traj.states)} snapshots and energy.csv to "
               f"{args.out}{driven}")
    return 0


def _cmd_sweep(args):
    cfg = _load_config(args.config)
    plan = cfg.plan
    if plan.task != "sweep" or not plan.sweep_param or not plan.sweep_values:
        raise Violation("run.task", plan.task,
                        "sweep needs run.task=sweep with parameter and values")
    os.makedirs(args.out, exist_ok=True)
    data = InitialData.from_plan(cfg)
    spec = SweepSpec(base=cfg, param=plan.sweep_param,
                     values=plan.sweep_values, data=data)
    rep = run_sweep(spec)
    snapshots.write_timeseries(snapshots.distance_report_columns(rep),
                               os.path.join(args.out, "sweep.csv"))
    try:
        rates = estimate_rate(rep)
        cols = {"distance": [], "slope": [], "residual": []}
        for name, r in rates.items():
            cols["distance"].append(("D1", "D2", "D3", "D4").index(name) + 1)
            cols["slope"].append(r["slope"])
            cols["residual"].append(r["residual"])
        snapshots.write_timeseries(cols, os.path.join(args.out, "rates.csv"))
    except BsqsError:
        pass  # fewer than 3 points: no rate fit
    _say(args, f"wrote sweep.csv to {args.out}")
    return 0


def _cmd_verify(args):
    from .config import Discretization, PhysicalParams, RunConfig
    from .verification import convergence_study, steady_case, temporal_case

    os.makedirs(args.out, exist_ok=True)
    pp = PhysicalParams(lam=1.0, mu=1.0, alpha=1.0, c0=1.0, k_perm=1.0,
                        nu=1.0, beta=1.0, rho_b=1.0, rho_f=1.0, delta=0.5)
    cfg = RunConfig(params=pp, disc=Discretization(
        n1=4, n2=4, nb=16, nf=16, dt=1 / 16, t_end=4 / 16))
    spat = convergence_study(steady_case(), cfg,
                             [(4, 4), (8, 8), (16, 16)], kind="vertical")
    temp = convergence_study(temporal_case(), cfg,
                             [1 / 8, 1 / 16, 1 / 32], kind="temporal")
    for tag, res in (("spatial", spat), ("temporal", temp)):
        cols = {"h": res["h"]}
        cols.update(res["errors"])
        snapshots.write_timeseries(
            cols, os.path.join(args.out, f"verify_{tag}.csv"))
        _say(args, f"{tag} orders: " + ", ".join(
            f"{k}={v:.2f}" for k, v in res["orders"].items()))
    return 0


def _cmd_greens_check(args):
    os.makedirs(args.out, exist_ok=True)
    cols = {"k1": [], "k2": [], "dirichlet_err": [], "neumann_err": []}
    for k1, k2 in ((0, 0), (1, 0), (2, 1), (3, 4), (5, 5), (8, 8)):
        kap = 2.0 * np.pi * float(np.hypot(k1, k2))
        grid, phi_d = greens.bvp_oracle(kap, 1.0, 0.0)
        err_d = float(np.abs(greens.dirichlet_extension(kap, 1.0, grid)
                             - phi_d).max())
        grid, phi_n = greens.bvp_oracle(kap, 0.0, 1.0)
        err_n = float(np.abs(greens.neumann_extension(kap, 1.0, grid)
                             - phi_n).max())
        cols["k1"].append(k1)
        cols["k2"].append(k2)
        cols["dirichlet_err"].append(err_d)
        cols["neumann_err"].append(err_n)
    snapshots.write_timeseries(cols, os.path.join(args.out, "greens.csv"))
    worst = max(max(cols["dirichlet_err"]), max(cols["neumann_err"]))
    _say(args, f"worst closed-form vs oracle error: {worst:.3e}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "audit": _cmd_run,
    "greens-check": _cmd_greens_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in _CONFIGURED and args.config is None:
            parser.error(f"{args.command} requires --config")
        if args.command not in _CONFIGURED and args.config is not None:
            parser.error(f"{args.command} takes no --config")
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error[NOT_FOUND]: {exc}", file=sys.stderr)
        return 1
    except BsqsError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
