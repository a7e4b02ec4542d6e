"""One benchmark sample: a single `bsqs.cli.main([...])` call in this process.

Started by run.py in a fresh interpreter per sample, so `ru_maxrss` is the
peak of this sample alone.  Imports are excluded from `wall_s`.  `setup_s`
runs from the `cli.main` call until the first `integrator.initialize` call
returns; that one timestamp is the only hook in an untraced sample.  With
--trace 1 every span in spans.FUNCTIONS is recorded as well.  With --simbuild
the sample instead builds one `Simulator` for the config and reports how
much resident memory the build added.

The result is written as JSON to --result; nothing is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _import_product(root):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import bsqs
    if not os.path.abspath(bsqs.__file__).startswith(src + os.sep):
        raise SystemExit(f"bsqs imported from {bsqs.__file__}, not {src}")
    # every module a workload touches, so install() sees all bindings
    from bsqs import (cli, config, energy, integrator, limit_lab,  # noqa: F401
                      mode_assembly, snapshots, spectral)
    return bsqs


def _current_rss_mb():
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{sblas.get('name')} {sblas.get('version')}",
        "pinned": {k: os.environ.get(k) for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")},
    }


def _snapshot_check(bsqs, config_path, out_dir, workload, csv_cols):
    """Round-trip the last snapshot and compare it with energy.csv."""
    from bsqs import energy, snapshots
    names = sorted(n for n in os.listdir(out_dir) if n.endswith(".snap"))
    if len(names) != workload.steps + 1:
        return [f"expected {workload.steps + 1} snapshots, found {len(names)}"]
    state, header = snapshots.read_snapshot(os.path.join(out_dir, names[-1]))
    errors = []
    n1, n2, nb, nf = workload.grid
    if (header["n1"], header["n2"], header["nb"], header["nf"]) != \
            (n1, n2, nb, nf):
        errors.append(f"snapshot grid {header} differs from the config")
    regime = {k: workload.physics[k] for k in ("rho_b", "rho_f", "delta", "c0")}
    if header["regime"] != regime:
        errors.append(f"snapshot regime {header['regime']} != {regime}")
    if state.t != csv_cols["t"][-1]:
        errors.append(f"snapshot t {state.t!r} != csv t {csv_cols['t'][-1]!r}")
    with open(config_path) as f:
        cfg = bsqs.parse_config(f.read())
    e_snap = energy.energy(state, cfg.params)
    e_csv = csv_cols["e"][-1]
    if abs(e_snap - e_csv) > 1e-8 * max(abs(e_csv), 1e-300):
        errors.append(f"snapshot energy {e_snap!r} != csv energy {e_csv!r}")
    return errors


def _simbuild(bsqs, args, result):
    from bsqs.integrator import Simulator
    with open(args.config) as f:
        cfg = bsqs.parse_config(f.read())
    before = _current_rss_mb()
    sim = Simulator(cfg, threads=args.threads)
    result["simulator_rss_mb"] = _current_rss_mb() - before
    result["modes"] = len(sim.ops)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--simbuild", action="store_true")
    ap.add_argument("--env", action="store_true")
    ap.add_argument("--spans", default="")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    bsqs = _import_product(args.root)
    result = {"env": environment() if args.env else None}
    if args.simbuild:
        _simbuild(bsqs, args, result)
        with open(args.result, "w") as f:
            json.dump(result, f)
        return 0

    from bsqs import cli, integrator
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    first_init = []
    initialize = integrator.initialize

    def timed_initialize(*a, **k):
        out = initialize(*a, **k)
        if not first_init:
            first_init.append(time.perf_counter())
        return out

    spans.rebind(initialize, timed_initialize)

    argv = workload.argv(args.config, args.out, threads=args.threads)
    t0 = time.perf_counter()
    rc = cli.main(argv)
    t1 = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.recording = False

    result.update({
        "rc": rc,
        "wall_s": t1 - t0,
        "setup_s": first_init[0] - t0 if first_init else None,
        "peak_rss_mb": peak_kb / 1024.0,
    })
    errors = []
    if rc == 0 and workload.snapshots:
        from bsqs import snapshots
        cols = snapshots.read_timeseries(os.path.join(args.out, workload.csv))
        errors += _snapshot_check(bsqs, args.config, args.out, workload, cols)
    if tracer is not None:
        result["trace"] = spans.metrics(tracer.spans, tracer.nonzero_steps,
                                        tracer.unknowns)
        result["fired"] = sorted(tracer.fired())
        result["bindings"] = tracer.bindings
        if args.spans:
            with open(args.spans, "w") as f:
                json.dump(tracer.dump(), f)
    result["errors"] = errors
    with open(args.result, "w") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
