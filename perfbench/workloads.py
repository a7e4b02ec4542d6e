"""The benchmark's workloads: one bsqs config document per (workload, seed).

The seed draws one amplitude factor f = sign * a, a in [0.5, 2), and
multiplies every initial-data and source amplitude by it.  Wavenumbers,
vertical shapes, grid and step count never depend on the seed, so every seed
does the same work.  Because the discrete system is linear in (initial data,
sources) jointly, the outputs the benchmark checks scale exactly: energies,
dissipation and balance residuals by f**2, the sweep distances D1..D4 by |f|.
Seed 0 gives f = 1, and for run-S reproduces the README config verbatim.

This module is plain Python so the runner can import it without numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_PHYSICS = ("lambda", "mu", "alpha", "c0", "k", "nu", "beta",
            "rho_b", "rho_f", "delta")
_QUASI_STATIC = dict(zip(_PHYSICS, (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                                    0.0, 0.0, 0.5)))
_INERTIAL = dict(_QUASI_STATIC, rho_b=1.0, rho_f=1.0)

# (key, amplitude at f = 1, shape); the amplitude is the only seeded part.
_README_DATA = (("run.u0_3", 0.1, "cos(2*pi*x1)*(1-x3)^2"),
                ("run.d0", -0.2, "cos(2*pi*x1)*(1-x3)"))
_DRIVEN_SOURCES = (
    ("sources.Fb3", 0.5, "sin(2*pi*x1)*cos(2*pi*x2)*(1-x3)*cos(4*pi*t)"),
    ("sources.S", 0.3, "cos(2*pi*x2)*x3*(1+sin(2*pi*t))"),
    ("sources.Ff1", 0.2, "cos(2*pi*x2)*(1+x3)*exp(-t)"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # bsqs subcommand
    threads: int                  # --threads passed to the product
    physics: dict
    grid: tuple                   # (n1, n2, nb, nf)
    steps: int                    # implicit-Euler steps per trajectory
    terms: tuple                  # seeded (key, amplitude, shape) entries
    sweep_values: tuple = ()      # rho_joint values of a sweep workload
    csv: str = "energy.csv"       # the CSV the output checks read
    snapshots: bool = False       # whether the command writes snapshots
    source_free: bool = True
    dt: float = 0.015625

    @property
    def runs(self) -> int:
        """Trajectories per invocation (reference plus each swept value)."""
        return 1 + len(self.sweep_values)

    @property
    def modes(self) -> int:
        n1, n2 = self.grid[:2]
        return (n1 // 2 + 1) * n2

    def argv(self, config_path: str, out_dir: str, threads=None) -> list:
        return [self.command, "--config", config_path, "--out", out_dir,
                "--threads", str(self.threads if threads is None else threads),
                "--quiet"]

    def config_text(self, seed: int) -> str:
        f = seed_factor(seed)
        n1, n2, nb, nf = self.grid
        lines = [f"physics.{k} = {self.physics[k]!r}" for k in _PHYSICS]
        lines += ["", f"grid.n1 = {n1}", f"grid.n2 = {n2}",
                  f"grid.nb = {nb}", f"grid.nf = {nf}",
                  f"time.dt = {self.dt!r}",
                  f"time.t_end = {self.steps * self.dt!r}", ""]
        if self.sweep_values:
            lines += ["run.task = sweep", "run.sweep_param = rho_joint",
                      "run.sweep_values = "
                      + ",".join(repr(v) for v in self.sweep_values), ""]
        lines += [f"{key} = {amp * f!r}*{shape}"
                  for key, amp, shape in self.terms]
        return "\n".join(lines) + "\n"


def seed_factor(seed: int) -> float:
    """Amplitude factor for a seed; exactly 1.0 for seed 0."""
    if seed == 0:
        return 1.0
    rng = random.Random(seed)
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)


# Why each workload exists is recorded in BENCHMARK.json; the grid and the
# regime decide which module dominates, so neither may change with the seed.
WORKLOADS = {w.name: w for w in (
    Workload("run-S", "run", 1, _QUASI_STATIC, (8, 8, 16, 16), 32,
             _README_DATA, snapshots=True),
    # ROADMAP case M has nb = nf = 64: its dense per-mode LU peaks at 7.2 GB
    # and would not fit beside anything else on a 7 GB machine.
    Workload("run-M", "run", 1, _QUASI_STATIC, (16, 16, 32, 32), 8,
             _README_DATA, snapshots=True),
    Workload("audit-driven", "audit", 1, _INERTIAL, (8, 8, 16, 16), 8,
             _README_DATA + _DRIVEN_SOURCES, source_free=False),
    Workload("sweep-rho", "sweep", 2, _INERTIAL, (8, 8, 16, 16), 8,
             _README_DATA + _DRIVEN_SOURCES, sweep_values=(0.1, 0.05, 0.025),
             csv="sweep.csv", source_free=False),
)}
