"""bsqs benchmark runner.

    python3 perfbench/run.py --workload run-S --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (src/bsqs must exist; nothing needs
building).  Each workload is a closed loop with one client: a sample runs one
`bsqs` command to completion in a fresh process (perfbench/sample.py), then
the next sample starts, until --seconds have been used (at least
MIN_SAMPLES).  Every sample's outputs are checked (checks.py, and a snapshot
round trip inside the sample); a sample fails on a nonzero exit, any
`error[CODE]` on stderr, or a failed check.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
samples.  --trace 1 alternates untraced and traced samples and reports the
per-layer metrics (medians over traced samples), the tracing overhead, and
one extra process's RSS growth across a single Simulator build; it also
checks that every span fires on the workloads that rely on it.

Human-readable lines (each metric's median, the highest percentile with ten
samples beyond it, the sample count, the environment) go to stdout, then one
JSON line.  A full record is written to .perfbench_work/results/.

--write-reference runs seed 0 once and stores the checked columns in
perfbench/reference.json; run it only when the program's results change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from spans import MUST_FIRE  # noqa: E402
from workloads import WORKLOADS, seed_factor  # noqa: E402

SAMPLE = os.path.join(HERE, "sample.py")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_SAMPLES = 3
# Every process of one invocation ends within this many seconds of its start,
# so the runner exits well inside the 180 s a run may take.
HARD_LIMIT_S = 165

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

# BLAS threads stay at 1 in every sample: unpinned, run-M's energy.csv bytes
# depend on the BLAS thread count, and BLAS threads on top of --threads 2
# would exceed a 2-core machine.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def declared(trace):
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    with open(BENCHMARK) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def _report(values, trace):
    """Summarize each declared metric; list the declared ones not measured."""
    metrics, summaries, missing = {}, {}, []
    for name, unit in declared(trace):
        if not values.get(name):
            missing.append(f"metric {name} was not measured")
            continue
        summaries[name] = dict(_summary(values[name]), unit=unit)
        metrics[name] = {"value": summaries[name]["median"], "unit": unit}
    return metrics, summaries, missing


class Runner:
    def __init__(self, workload, seed):
        self.w = workload
        self.factor = seed_factor(seed)
        self.dir = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
        os.makedirs(self.dir)
        self.config = os.path.join(self.dir, "config.cfg")
        with open(self.config, "w") as f:
            f.write(workload.config_text(seed))
        self.env = dict(os.environ, **PINNED)
        self.env.pop("BSQS_THREADS", None)
        self.reference = checks.load_reference(workload.name)
        self.expected_csv = None   # bytes every sample must reproduce
        self.count = 0
        self.env_info = None
        self.hard_deadline = time.monotonic() + HARD_LIMIT_S

    def sample(self, kind="plain", threads=None, spans_path=""):
        """Run one sample process of the given kind ("plain", "traced",
        "simbuild", or "reference" for the untimed --threads 1 sweep whose
        CSV bytes the timed samples must reproduce); return its record."""
        self.count += 1
        out = os.path.join(self.dir, f"out{self.count}")
        result = os.path.join(self.dir, f"result{self.count}.json")
        cmd = [sys.executable, SAMPLE, "--root", ROOT,
               "--workload", self.w.name, "--config", self.config,
               "--out", out, "--threads",
               str(self.w.threads if threads is None else threads),
               "--trace", str(int(kind == "traced")), "--result", result]
        if self.env_info is None:
            cmd.append("--env")
        if kind == "simbuild":
            cmd.append("--simbuild")
        if spans_path:
            cmd += ["--spans", spans_path]
        t0 = time.monotonic()
        rec = {"kind": kind, "errors": []}
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=max(
                                      1.0, self.hard_deadline - t0))
        except subprocess.TimeoutExpired:
            # subprocess.run has killed the sample and waited for it
            rec["errors"].append(f"timed out after {time.monotonic() - t0:.0f} s")
            shutil.rmtree(out, ignore_errors=True)
            return rec
        rec["process_s"] = time.monotonic() - t0
        if os.path.isfile(result):
            with open(result) as f:
                rec.update(json.load(f))
            self.env_info = self.env_info or rec.get("env")
        if proc.returncode != 0:
            rec["errors"].append(f"exit status {proc.returncode}")
        if "error[" in proc.stderr or proc.returncode != 0:
            rec["errors"].append("stderr: " + proc.stderr.strip()[-400:])
        if kind != "simbuild" and proc.returncode == 0:
            rec["errors"] += checks.check_outputs(
                self.w, out, self.factor, self.reference)
            rec["out_bytes"] = sum(
                os.path.getsize(os.path.join(out, n)) for n in os.listdir(out))
            with open(os.path.join(out, self.w.csv), "rb") as f:
                csv_bytes = f.read()
            if kind == "reference":
                self.expected_csv = csv_bytes
            elif self.expected_csv not in (None, csv_bytes):
                rec["errors"].append(
                    f"{self.w.csv} differs from the --threads 1 run's bytes")
            rec["csv"] = csv_bytes
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _loop(deadline, run_one, min_rounds):
    """Closed loop: start another round while the estimate says it ends
    before the deadline; always run at least `min_rounds`."""
    durations, records = [], []
    while len(durations) < min_rounds or \
            time.monotonic() + statistics.median(durations) <= deadline:
        t0 = time.monotonic()
        records.extend(run_one())
        durations.append(time.monotonic() - t0)
    return records


def _summary(values):
    """Median, the highest percentile with ten samples beyond it, count."""
    xs = sorted(values)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    if n >= 11:
        i = n - 11          # xs[i] has exactly ten samples above it
        out["percentile"] = round(100.0 * (i + 1) / n, 1)
        out["percentile_value"] = xs[i]
    return out


def _describe(name, s):
    unit = s["unit"]
    tail = (f"p{s['percentile']:g} {s['percentile_value']:.6g} {unit}"
            if "percentile" in s else "no percentile with ten samples beyond it")
    return f"  {name:<40} median {s['median']:.6g} {unit:<5}  {tail}  n={s['n']}"


def _prologue(runner):
    """Untimed work done once per invocation, before the timed loop."""
    if runner.w.command == "sweep":
        # README promise: sweep.csv bytes do not depend on --threads
        return [runner.sample("reference", threads=1)]
    return []


def run_plain(runner, deadline):
    records = _prologue(runner)
    records += _loop(deadline, lambda: [runner.sample()], MIN_SAMPLES)
    timed = [r for r in records if r["kind"] == "plain"]
    ok = [r for r in timed if not r["errors"]] or timed
    values = {name: [r[name] for r in ok if r.get(name) is not None]
              for name, _ in declared(0)}
    return (records, *_report(values, 0))


def run_traced(runner, deadline, spans_path):
    records = _prologue(runner) + [runner.sample("simbuild")]
    records += _loop(deadline, lambda: [
        runner.sample(), runner.sample("traced", spans_path=spans_path)], 1)
    plain = [r for r in records if r["kind"] == "plain" and "wall_s" in r]
    traced = [r for r in records if r["kind"] == "traced" and "trace" in r]
    build = next(r for r in records if r["kind"] == "simbuild")
    values = {}
    for r in traced:
        for k, v in r["trace"].items():
            values.setdefault(k, []).append(v)
        values.setdefault("snapshots.bytes", []).append(r.get("out_bytes", 0))
    if plain and traced:
        values["trace.overhead_s"] = [
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain)]
    if "simulator_rss_mb" in build:
        values["integrator.simulator_rss_mb"] = [build["simulator_rss_mb"]]
    values["traffic.modes"] = [runner.w.modes]
    values["traffic.steps"] = [runner.w.steps]

    # every span this workload relies on must have fired in every traced run
    wiring = []
    for r in traced:
        fired = set(r["fired"])
        wiring += [f"span {name} never fired on {runner.w.name}"
                   for name, where in MUST_FIRE.items()
                   if runner.w.name in where and name not in fired]
        wiring += [f"{name} is bound nowhere"
                   for name, n in r["bindings"].items() if n == 0]
    if build.get("modes") not in (None, runner.w.modes):
        wiring.append(f"Simulator has {build['modes']} modes, "
                      f"expected {runner.w.modes}")
    metrics, summaries, missing = _report(values, 1)
    return records, metrics, summaries, sorted(set(wiring)) + missing


def write_reference(workload):
    runner = Runner(workload, 0)
    runner.reference = None
    try:
        rec = runner.sample()
    finally:
        runner.close()
    if rec["errors"] or "csv" not in rec:
        print("\n".join(rec["errors"]) or "no output", file=sys.stderr)
        return 1
    cols = checks.reference_columns(
        workload, checks.parse_csv(rec["csv"].decode()))
    try:
        with open(checks.REFERENCE) as f:
            ref = json.load(f)
    except FileNotFoundError:
        ref = {}
    ref[workload.name] = cols
    with open(checks.REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"stored {sorted(cols)} for {workload.name} in {checks.REFERENCE}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bsqs", "__init__.py")):
        print(f"error: no bsqs sources under {ROOT}/src", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.write_reference:
        return write_reference(workload)

    deadline = time.monotonic() + args.seconds
    runner = Runner(workload, args.seed)
    try:
        if args.trace:
            spans_path = os.path.join(WORK, "results",
                                      f"{workload.name}.spans.json")
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            records, metrics, summaries, problems = run_traced(
                runner, deadline, spans_path)
        else:
            records, metrics, summaries, problems = run_plain(runner, deadline)
    finally:
        runner.close()

    failed = [r for r in records if r["errors"]]
    correct = not failed and not problems
    print(f"bsqs benchmark: workload {workload.name}, seed {args.seed} "
          f"(amplitude factor {runner.factor:.6g}), trace {args.trace}, "
          f"{len(records)} processes attempted, {len(failed)} failed")
    for name, s in summaries.items():
        print(_describe(name, s))
    print(f"  {'fail_ratio':<40} {len(failed)}/{len(records)}")
    for r in failed:
        print("  FAILED: " + " | ".join(r["errors"]))
    for msg in problems:
        print("  PROBLEM: " + msg)
    print("  env: " + json.dumps(runner.env_info, sort_keys=True))

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "factor": runner.factor,
        "env": runner.env_info, "metrics": summaries, "problems": problems,
        "traffic": {"modes": workload.modes, "steps": workload.steps,
                    "runs": workload.runs, "grid": workload.grid},
        "samples": [{k: v for k, v in r.items() if k not in ("csv", "env")}
                    for r in records],
    }
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload.name}-seed{args.seed}-"
                                    f"trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    if not metrics:
        print("error: no sample produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
