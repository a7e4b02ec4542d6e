"""Configuration parsing, validation, and serialization round trips."""

import pytest

from bsqs.config import (Discretization, PhysicalParams, parse_config,
                         serialize, validate_params, with_params)
from bsqs.errors import ParseError, Violation
from conftest import make_config, make_params

FULL_TEXT = """
# full physical regime
physics.lambda = 1.0
physics.mu = 2.0
physics.alpha = 0.9
physics.c0 = 0.1
physics.k = 1.5
physics.nu = 0.7
physics.beta = 1.0
physics.rho_b = 1.0
physics.rho_f = 0.5
physics.delta = 0.25

grid.n1 = 4
grid.n2 = 8
grid.nb = 6
grid.nf = 4
time.dt = 0.015625
time.t_end = 0.25

sources.Fb3 = sin(2*pi*x1)*x3
sources.S = cos(2*pi*x2)*t
run.task = run
run.u0_3 = cos(2*pi*x1)*(1-x3)^2
"""


def test_parse_full_document():
    cfg = parse_config(FULL_TEXT)
    assert cfg.params.mu == 2.0
    assert cfg.params.lam == 1.0
    assert cfg.params.k_perm == 1.5
    assert cfg.disc.n2 == 8
    assert cfg.disc.n_steps == 16
    assert cfg.sources.F_b[2] is not None
    assert cfg.sources.F_b[0] is None
    assert cfg.sources.S(0.0, 0.0, 0.0, 2.0) == pytest.approx(2.0)
    assert "u0_3" in cfg.plan.init


def test_serialize_round_trip():
    cfg = parse_config(FULL_TEXT)
    again = parse_config(serialize(cfg))
    assert again.params == cfg.params
    assert again.disc == cfg.disc
    assert again.sources == cfg.sources
    assert again.plan == cfg.plan


def test_missing_physics_key_is_error():
    text = "\n".join(ln for ln in FULL_TEXT.splitlines()
                     if not ln.startswith("physics.mu"))
    with pytest.raises(ParseError):
        parse_config(text)


@pytest.mark.parametrize("line", [
    "physics.bogus = 1", "grid.bogus = 1", "time.bogus = 1",
    "sources.bogus = x1", "run.bogus = 1", "nosection = 1",
    "weird.mu = 1", "grid.n1 = banana", "time.dt = banana",
])
def test_bad_lines_raise_with_line_number(line):
    with pytest.raises(ParseError):
        parse_config(FULL_TEXT + "\n" + line)


def test_sweep_plan_parsing():
    text = FULL_TEXT + ("run.sweep_param = delta\n"
                        "run.sweep_values = 0.1,0.01,0.001\n")
    text = text.replace("run.task = run", "run.task = sweep")
    cfg = parse_config(text)
    assert cfg.plan.task == "sweep"
    assert cfg.plan.sweep_param == "delta"
    assert cfg.plan.sweep_values == (0.1, 0.01, 0.001)


def test_bad_sweep_values():
    with pytest.raises(ParseError):
        parse_config(FULL_TEXT + "run.sweep_values = 1,two\n")
    with pytest.raises(ParseError):
        parse_config(FULL_TEXT + "run.sweep_param = nu\n")


def test_validate_params_signs():
    with pytest.raises(Violation):
        validate_params(make_params(mu=0.0))
    with pytest.raises(Violation):
        validate_params(make_params(nu=-1.0))
    with pytest.raises(Violation):
        validate_params(make_params(rho_b=-0.1))
    # zero is admissible for the degenerate group
    validate_params(make_params(rho_b=0.0, rho_f=0.0, delta=0.0, c0=0.0))


def test_regime_sign_pattern():
    p = make_params(rho_b=0.0, delta=0.0)
    assert p.regime() == (False, True, False, True)


def test_discretization_validation():
    with pytest.raises(Violation):
        Discretization(n1=3, n2=4).validate()
    with pytest.raises(Violation):
        Discretization(n1=4, n2=2).validate()
    with pytest.raises(Violation):
        Discretization(nb=1).validate()
    with pytest.raises(Violation):
        Discretization(dt=0.0).validate()
    with pytest.raises(Violation):
        Discretization(dt=0.5, t_end=0.25).validate()
    # non-finite times: no step count follows from them
    for dt, t_end in ((1e-2, float("inf")), (1e-2, float("nan")),
                      (float("inf"), float("inf"))):
        with pytest.raises(Violation):
            Discretization(dt=dt, t_end=t_end).validate()
    Discretization().validate()


def test_with_params_revalidates():
    cfg = make_config()
    cfg2 = with_params(cfg, delta=0.0)
    assert cfg2.params.delta == 0.0
    assert cfg.params.delta == 0.5  # original untouched
    with pytest.raises(Violation):
        with_params(cfg, mu=-1.0)


def test_physical_params_no_defaults():
    with pytest.raises(TypeError):
        PhysicalParams(lam=1.0, mu=1.0)
