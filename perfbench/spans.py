"""Spans around the calls into bsqs's modules, placed from outside the package.

`Tracer.install` wraps module attributes: a function is replaced in every
loaded bsqs module that binds it (so `from .spectral import sample_function`
in integrator and snapshots is covered, as is a call-time local import), and
a class method is replaced on the class.  Spans are kept in memory as
(name, start, end, parent) and turned into per-layer metrics by `metrics`.
Nothing under src/ is touched.
"""

from __future__ import annotations

import sys
import threading
import time

# span name -> (module, attribute); "Class.method" wraps a method.
FUNCTIONS = {
    "parse_config": ("bsqs.config", "parse_config"),
    "run": ("bsqs.integrator", "run"),
    "initialize": ("bsqs.integrator", "initialize"),
    "Simulator": ("bsqs.integrator", "Simulator.__init__"),
    "Simulator.step": ("bsqs.integrator", "Simulator.step"),
    "ModeOperator": ("bsqs.mode_assembly", "ModeOperator.__init__"),
    "ModeOperator.step": ("bsqs.mode_assembly", "ModeOperator.step"),
    "build_step_matrix": ("bsqs.mode_assembly", "build_step_matrix"),
    "build_step_rhs": ("bsqs.mode_assembly", "build_step_rhs"),
    "elastic_blocks": ("bsqs.mode_assembly", "elastic_blocks"),
    "energy": ("bsqs.energy", "energy"),
    "dissipation_increment": ("bsqs.energy", "dissipation_increment"),
    "slip_norm": ("bsqs.energy", "slip_norm"),
    "audit": ("bsqs.energy", "audit"),
    "elastic_norm_sq": ("bsqs.energy", "elastic_norm_sq"),
    "viscous_norm_sq": ("bsqs.energy", "viscous_norm_sq"),
    "grad_norm_sq": ("bsqs.energy", "grad_norm_sq"),
    "l2_norm_sq": ("bsqs.energy", "l2_norm_sq"),
    "trajectory_distance": ("bsqs.limit_lab", "trajectory_distance"),
    "sample_function": ("bsqs.spectral", "sample_function"),
    "forward_transform": ("bsqs.spectral", "forward_transform"),
    "inverse_transform": ("bsqs.spectral", "inverse_transform"),
    "write_snapshot": ("bsqs.snapshots", "write_snapshot"),
    "write_timeseries": ("bsqs.snapshots", "write_timeseries"),
}

NORMS = ("elastic_norm_sq", "viscous_norm_sq", "grad_norm_sq", "l2_norm_sq")
IN_RUN = ("energy", "dissipation_increment", "slip_norm")

# Span -> workloads on which it must fire at least once.  A span that stays
# silent there means an import moved and the wrapper no longer sits on the
# call path; the benchmark then reports the run as incorrect.
MUST_FIRE = {
    "parse_config": ("run-S", "run-M", "audit-driven", "sweep-rho"),
    "build_step_matrix": ("run-M",),
    "ModeOperator": ("run-M",),
    "build_step_rhs": ("sweep-rho", "run-S"),
    "ModeOperator.step": ("sweep-rho", "audit-driven"),
    "elastic_blocks": ("run-S", "sweep-rho"),
    "Simulator": ("run-M",),
    "initialize": ("run-M",),
    "Simulator.step": ("sweep-rho",),
    "energy": ("run-S",),
    "dissipation_increment": ("run-S",),
    "slip_norm": ("run-S",),
    "audit": ("audit-driven", "run-S"),
    "elastic_norm_sq": ("run-S",),
    "viscous_norm_sq": ("run-S",),
    "grad_norm_sq": ("run-S",),
    "l2_norm_sq": ("run-S",),
    "trajectory_distance": ("sweep-rho",),
    "sample_function": ("audit-driven", "sweep-rho"),
    "forward_transform": ("audit-driven", "run-S"),
    "inverse_transform": ("run-S",),
    "write_snapshot": ("run-S", "run-M"),
    "write_timeseries": ("run-S", "run-M"),
    "run": ("run-S", "run-M", "audit-driven", "sweep-rho"),
}


def rebind(fn, wrapped):
    """Replace `fn` by `wrapped` in every loaded bsqs module that binds it;
    return the number of bindings replaced."""
    count = 0
    for name, mod in list(sys.modules.items()):
        if (name == "bsqs" or name.startswith("bsqs.")) and mod is not None:
            for leaf, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, leaf, wrapped)
                    count += 1
    return count


def _resolve(module, attr):
    obj = sys.modules[module]
    owner = None
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, attr.split(".")[-1], obj


class Tracer:
    """Records spans in memory; one instance per sample process."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.nonzero_steps = 0     # ModeOperator.step calls with a nonzero result
        self.unknowns = None       # size of the first mode system built
        self.bindings = {}         # span name -> number of bindings wrapped
        self.recording = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # a pool worker's first span hangs under the main thread's open one
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else -1)
            span = [name, clock(), None, parent]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            tracer._observe(name, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, args, out):
        if name == "ModeOperator.step":
            if any(part.any() for part in out):
                with self._lock:
                    self.nonzero_steps += 1
        elif name == "ModeOperator" and self.unknowns is None:
            self.unknowns = int(args[0].matrix.shape[0])

    def install(self):
        """Wrap every target; raise if a target no longer exists."""
        for name, (module, attr) in FUNCTIONS.items():
            owner, leaf, fn = _resolve(module, attr)
            wrapped = self._wrap(name, fn)
            if "." in attr:
                setattr(owner, leaf, wrapped)
                self.bindings[name] = 1
            else:
                self.bindings[name] = rebind(fn, wrapped)

    def fired(self):
        return {s[0] for s in self.spans}

    def dump(self):
        """Spans as compact lists, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, round(a - t0, 7), round(b - t0, 7), p]
                for n, a, b, p in self.spans]


def _union_length(intervals):
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def metrics(spans, nonzero_steps, unknowns):
    """Per-layer metrics of one traced sample (see BENCHMARK.json)."""
    children = {}
    by_name = {}
    for i, (name, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(i)
        by_name.setdefault(name, []).append(i)

    def duration(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return duration(i) - _union_length(
            [(spans[k][1], spans[k][2]) for k in children.get(i, ())])

    def under(i, names):
        """Whether a strict ancestor of span i is named in `names`."""
        p = spans[i][3]
        while p != -1:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    def outermost(names):
        """Spans named in `names` with no ancestor also named in `names`."""
        return [i for n in names for i in by_name.get(n, ())
                if not under(i, names)]

    def total(name):
        return sum(duration(i) for i in outermost((name,)))

    def count(name):
        return len(by_name.get(name, ()))

    def self_total(name):
        return sum(self_time(i) for i in by_name.get(name, ()))

    steps = by_name.get("Simulator.step", [])
    step_time = sum(duration(i) for i in steps)
    solve_children = sum(duration(k) for i in steps for k in children.get(i, ())
                         if spans[k][0] == "ModeOperator.step")
    in_run = [i for i in outermost(IN_RUN) if under(i, ("run",))]
    solves = count("ModeOperator.step")

    return {
        "mode_assembly.assemble_s": total("build_step_matrix"),
        "mode_assembly.assemble_calls": count("build_step_matrix"),
        "mode_assembly.factor_s": self_total("ModeOperator"),
        "mode_assembly.factor_calls": count("ModeOperator"),
        "mode_assembly.rhs_s": total("build_step_rhs"),
        "mode_assembly.rhs_calls": count("build_step_rhs"),
        "mode_assembly.solve_s": self_total("ModeOperator.step"),
        "mode_assembly.solve_calls": solves,
        "mode_assembly.elastic_blocks_s": total("elastic_blocks"),
        "mode_assembly.elastic_blocks_calls": count("elastic_blocks"),
        "integrator.simulator_builds": count("Simulator"),
        "integrator.build_s": total("Simulator"),
        "integrator.initialize_s": total("initialize"),
        "integrator.step_s": step_time,
        "integrator.step_calls": len(steps),
        "integrator.step_self_s": sum(self_time(i) for i in steps),
        "integrator.step_overlap": solve_children / step_time
        if step_time > 0 else 0.0,
        "energy.in_run_s": sum(duration(i) for i in in_run),
        "energy.audit_s": total("audit"),
        "energy.audit_calls": count("audit"),
        "energy.norm_calls": sum(count(n) for n in NORMS),
        "limit_lab.distance_s": total("trajectory_distance"),
        "spectral.sample_s": total("sample_function"),
        "spectral.sample_calls": count("sample_function"),
        "spectral.forward_s": total("forward_transform"),
        "spectral.forward_calls": count("forward_transform"),
        "spectral.inverse_s": total("inverse_transform"),
        "spectral.inverse_calls": count("inverse_transform"),
        "snapshots.write_s": total("write_snapshot"),
        "snapshots.write_calls": count("write_snapshot"),
        "snapshots.csv_s": total("write_timeseries"),
        "config.parse_s": total("parse_config"),
        "traffic.unknowns_per_mode": unknowns or 0,
        "traffic.runs": count("run"),
        "traffic.nonzero_mode_fraction": nonzero_steps / solves
        if solves else 0.0,
    }
