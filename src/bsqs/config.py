"""Physical/numerical parameters, domain constants, sources, and config parsing.

The on-disk format is line-oriented UTF-8: ``section.key = value`` with ``#``
comments.  Sections: ``physics``, ``grid``, ``time``, ``sources``, ``run``.
Physical parameters carry no defaults; the regime (which of rho_b, rho_f,
delta, c0 vanish) must always be stated explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParseError, Violation
from .exprs import Expression

# The geometry is fixed: Biot box (0,1)^3 above, fluid box (0,1)^2 x (-1,0)
# below, flat interface at x3 = 0, lateral periodicity in x1 and x2.
BIOT_X3 = (0.0, 1.0)
FLUID_X3 = (-1.0, 0.0)


@dataclass(frozen=True)
class PhysicalParams:
    """Model coefficients.  nu, alpha, lambda, mu, beta, k are strictly
    positive; rho_b, rho_f, delta, c0 are nonnegative and may vanish
    independently (the degenerate regimes are solved as such)."""

    lam: float
    mu: float
    alpha: float
    c0: float
    k_perm: float
    nu: float
    beta: float
    rho_b: float
    rho_f: float
    delta: float

    def regime(self):
        """Sign pattern of (rho_b, rho_f, delta, c0) as a tuple of booleans."""
        return (self.rho_b > 0, self.rho_f > 0, self.delta > 0, self.c0 > 0)


_POSITIVE = ("nu", "alpha", "lam", "mu", "beta", "k_perm")
_NONNEGATIVE = ("rho_b", "rho_f", "delta", "c0")


def validate_params(p: PhysicalParams) -> PhysicalParams:
    """Check the standing sign hypotheses; return p unchanged if they hold."""
    for name in _POSITIVE:
        v = getattr(p, name)
        if not np.isfinite(v) or v <= 0:
            raise Violation(name, v, "must be > 0")
    for name in _NONNEGATIVE:
        v = getattr(p, name)
        if not np.isfinite(v) or v < 0:
            raise Violation(name, v, "must be >= 0")
    return p


@dataclass(frozen=True)
class Discretization:
    n1: int = 8
    n2: int = 8
    nb: int = 16
    nf: int = 16
    dt: float = 1e-2
    t_end: float = 0.5

    def validate(self):
        for name in ("n1", "n2"):
            v = getattr(self, name)
            if v < 4 or v % 2:
                raise Violation(name, v, "must be even and >= 4")
        for name in ("nb", "nf"):
            v = getattr(self, name)
            if v < 2:
                raise Violation(name, v, "must be >= 2")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise Violation("dt", self.dt, "must be finite and > 0")
        if not (np.isfinite(self.t_end) and self.t_end >= self.dt):
            raise Violation("t_end", self.t_end, "must be finite and >= dt")
        return self

    @property
    def n_steps(self):
        steps = self.t_end / self.dt
        return int(round(steps))


@dataclass(frozen=True)
class SourceSpec:
    """Volumetric sources: F_b on the Biot box (3 components), S on the Biot
    box (scalar), F_f on the fluid box (3 components).  Components are
    callables (x1, x2, x3, t) -> array; None means identically zero."""

    F_b: tuple = (None, None, None)
    S: object = None
    F_f: tuple = (None, None, None)

    def is_zero(self):
        return all(c is None for c in self.F_b) and self.S is None \
            and all(c is None for c in self.F_f)


ZERO_SOURCES = SourceSpec()


@dataclass(frozen=True)
class RunPlan:
    task: str = "run"              # "run" | "sweep"
    sweep_param: str = ""          # "rho_joint" | "delta" | "c0"
    sweep_values: tuple = ()
    # optional closed-form initial data, keyed u0_1..u0_3, u1_1..u1_3, d0, v0_1..v0_3
    init: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunConfig:
    params: PhysicalParams
    disc: Discretization = Discretization()
    sources: SourceSpec = ZERO_SOURCES
    plan: RunPlan = RunPlan()


_PHYS_KEYS = {
    "lambda": "lam", "mu": "mu", "alpha": "alpha", "c0": "c0", "k": "k_perm",
    "nu": "nu", "beta": "beta", "rho_b": "rho_b", "rho_f": "rho_f", "delta": "delta",
}
_GRID_KEYS = ("n1", "n2", "nb", "nf")
_TIME_KEYS = ("dt", "t_end")
_SOURCE_KEYS = ("Fb1", "Fb2", "Fb3", "S", "Ff1", "Ff2", "Ff3")
_INIT_KEYS = ("u0_1", "u0_2", "u0_3", "u1_1", "u1_2", "u1_3", "d0",
              "v0_1", "v0_2", "v0_3")


def parse_config(text: str) -> RunConfig:
    """Parse a configuration document into a validated RunConfig."""
    phys, grid, time_, src, run = {}, {}, {}, {}, {}
    sections = {"physics": phys, "grid": grid, "time": time_,
                "sources": src, "run": run}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected 'section.key = value', got {raw!r}")
        lhs, rhs = (s.strip() for s in line.split("=", 1))
        if "." not in lhs:
            raise ParseError(lineno, f"key {lhs!r} missing section prefix")
        section, key = lhs.split(".", 1)
        if section not in sections:
            raise ParseError(lineno, f"unknown section {section!r}")
        sections[section][key] = (rhs, lineno)

    kwargs = {}
    for key, attr in _PHYS_KEYS.items():
        if key not in phys:
            raise ParseError(0, f"missing required physics key {key!r}")
        rhs, lineno = phys.pop(key)
        kwargs[attr] = _float(rhs, lineno)
    for key, (rhs, lineno) in phys.items():
        raise ParseError(lineno, f"unknown physics key {key!r}")
    params = validate_params(PhysicalParams(**kwargs))

    disc_kwargs = {}
    for key in _GRID_KEYS:
        if key in grid:
            rhs, lineno = grid.pop(key)
            disc_kwargs[key] = _int(rhs, lineno)
    for key, (rhs, lineno) in grid.items():
        raise ParseError(lineno, f"unknown grid key {key!r}")
    for key in _TIME_KEYS:
        if key in time_:
            rhs, lineno = time_.pop(key)
            disc_kwargs[key] = _float(rhs, lineno)
    for key, (rhs, lineno) in time_.items():
        raise ParseError(lineno, f"unknown time key {key!r}")
    disc = Discretization(**disc_kwargs).validate()

    exprs = {}
    for key in _SOURCE_KEYS:
        if key in src:
            rhs, lineno = src.pop(key)
            exprs[key] = Expression(rhs, lineno)
    for key, (rhs, lineno) in src.items():
        raise ParseError(lineno, f"unknown sources key {key!r}")
    sources = SourceSpec(
        F_b=tuple(exprs.get(f"Fb{i}") for i in (1, 2, 3)),
        S=exprs.get("S"),
        F_f=tuple(exprs.get(f"Ff{i}") for i in (1, 2, 3)),
    )

    plan_kwargs = {}
    init = {}
    if "task" in run:
        rhs, lineno = run.pop("task")
        if rhs not in ("run", "sweep"):
            raise ParseError(lineno, f"run.task must be 'run' or 'sweep', got {rhs!r}")
        plan_kwargs["task"] = rhs
    if "sweep_param" in run:
        rhs, lineno = run.pop("sweep_param")
        if rhs not in ("rho_joint", "delta", "c0"):
            raise ParseError(lineno, f"unknown sweep parameter {rhs!r}")
        plan_kwargs["sweep_param"] = rhs
    if "sweep_values" in run:
        rhs, lineno = run.pop("sweep_values")
        try:
            plan_kwargs["sweep_values"] = tuple(float(s) for s in rhs.split(","))
        except ValueError:
            raise ParseError(lineno, f"bad sweep_values list {rhs!r}") from None
    for key in _INIT_KEYS:
        if key in run:
            rhs, lineno = run.pop(key)
            init[key] = Expression(rhs, lineno)
    for key, (rhs, lineno) in run.items():
        raise ParseError(lineno, f"unknown run key {key!r}")
    plan = RunPlan(init=init, **plan_kwargs)

    return RunConfig(params=params, disc=disc, sources=sources, plan=plan)


def serialize(cfg: RunConfig) -> str:
    """Inverse of parse_config (up to formatting)."""
    lines = []
    for key, attr in _PHYS_KEYS.items():
        lines.append(f"physics.{key} = {getattr(cfg.params, attr)!r}")
    for key in _GRID_KEYS:
        lines.append(f"grid.{key} = {getattr(cfg.disc, key)}")
    for key in _TIME_KEYS:
        lines.append(f"time.{key} = {getattr(cfg.disc, key)!r}")
    for key, comp in zip(_SOURCE_KEYS,
                         (*cfg.sources.F_b, cfg.sources.S, *cfg.sources.F_f)):
        if comp is not None:
            lines.append(f"sources.{key} = {comp.text}")
    plan = cfg.plan
    lines.append(f"run.task = {plan.task}")
    if plan.sweep_param:
        lines.append(f"run.sweep_param = {plan.sweep_param}")
    if plan.sweep_values:
        lines.append("run.sweep_values = " + ",".join(repr(v) for v in plan.sweep_values))
    for key in _INIT_KEYS:
        if key in plan.init:
            lines.append(f"run.{key} = {plan.init[key].text}")
    return "\n".join(lines) + "\n"


def with_params(cfg: RunConfig, **changes) -> RunConfig:
    """Copy of cfg with selected physical parameters replaced and revalidated."""
    return replace(cfg, params=validate_params(replace(cfg.params, **changes)))


def _float(s, lineno):
    try:
        return float(s)
    except ValueError:
        raise ParseError(lineno, f"expected a number, got {s!r}") from None


def _int(s, lineno):
    try:
        v = int(s)
    except ValueError:
        raise ParseError(lineno, f"expected an integer, got {s!r}") from None
    return v
