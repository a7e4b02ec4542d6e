"""Command-line interface: exit codes, outputs on disk, and diagnostics."""

import numpy as np
import pytest

from bsqs.cli import main
from bsqs.snapshots import read_snapshot, read_timeseries

CONFIG = """
physics.lambda = 1.0
physics.mu = 1.0
physics.alpha = 1.0
physics.c0 = 1.0
physics.k = 1.0
physics.nu = 1.0
physics.beta = 1.0
physics.rho_b = 1.0
physics.rho_f = 1.0
physics.delta = 0.5

grid.n1 = 4
grid.n2 = 4
grid.nb = 4
grid.nf = 4
time.dt = 0.0625
time.t_end = 0.25

run.u0_3 = 0.1*cos(2*pi*x1)*(1-x3)^2
run.d0 = -0.2*cos(2*pi*x1)*(1-x3)
"""

SWEEP_CONFIG = CONFIG.replace("physics.rho_b = 1.0", "physics.rho_b = 0.0") \
                     .replace("physics.rho_f = 1.0", "physics.rho_f = 0.0") \
                     .replace("physics.delta = 0.5", "physics.delta = 1.0") + """
run.task = sweep
run.sweep_param = delta
run.sweep_values = 0.1,0.01,0.001
"""


# the README configuration with the packaging smoke's three sources
DRIVEN_README_CONFIG = """
physics.lambda = 1.0
physics.mu = 1.0
physics.alpha = 1.0
physics.c0 = 1.0
physics.k = 1.0
physics.nu = 1.0
physics.beta = 1.0
physics.rho_b = 0.0
physics.rho_f = 0.0
physics.delta = 0.5
grid.n1 = 8
grid.n2 = 8
grid.nb = 16
grid.nf = 16
time.dt = 0.015625
time.t_end = 0.5
run.u0_3 = 0.1*cos(2*pi*x1)*(1-x3)^2
run.d0 = -0.2*cos(2*pi*x1)*(1-x3)
sources.Fb3 = 0.5*sin(2*pi*x1)*cos(2*pi*x2)*(1-x3)*cos(4*pi*t)
sources.S = 0.3*cos(2*pi*x2)*x3*(1+sin(2*pi*t))
sources.Ff1 = 0.2*cos(2*pi*x2)*(1+x3)*exp(-t)
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    return path


def test_run_writes_outputs(config_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(config_file), "--out", str(out),
               "--quiet"])
    assert rc == 0
    cols = read_timeseries(out / "energy.csv")
    assert len(cols["t"]) == 5                        # 4 steps + initial
    assert cols["e"][0] > 0
    snaps = sorted(out.glob("state_*.snap"))
    assert len(snaps) == 5
    s, header = read_snapshot(snaps[-1])
    assert s.t == pytest.approx(0.25)
    assert header["regime"]["rho_b"] == 1.0


def test_run_deterministic_csv(config_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config_file), "--out", str(out_a),
                 "--quiet"]) == 0
    assert main(["run", "--config", str(config_file), "--out", str(out_b),
                 "--quiet"]) == 0
    assert (out_a / "energy.csv").read_bytes() == \
        (out_b / "energy.csv").read_bytes()


def test_sweep_command(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CONFIG)
    out = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    sweep = read_timeseries(out / "sweep.csv")
    assert sweep["swept_value"] == [0.1, 0.01, 0.001]
    assert sweep["D1"][0] > sweep["D1"][-1]
    rates = read_timeseries(out / "rates.csv")
    assert len(rates["slope"]) == 4


def test_sweep_requires_sweep_task(config_file, tmp_path):
    rc = main(["sweep", "--config", str(config_file),
               "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2


def test_greens_check(tmp_path):
    out = tmp_path / "out"
    rc = main(["greens-check", "--out", str(out), "--quiet"])
    assert rc == 0
    cols = read_timeseries(out / "greens.csv")
    assert max(cols["dirichlet_err"]) < 1e-8
    assert max(cols["neumann_err"]) < 1e-8


def test_audit_command(config_file, tmp_path):
    out = tmp_path / "out"
    rc = main(["audit", "--config", str(config_file), "--out", str(out),
               "--quiet"])
    assert rc == 0
    cols = read_timeseries(out / "energy.csv")
    assert max(cols["residual"]) <= 1e-10 * max(cols["e"][0], 1.0)


def test_run_evaluates_energy_once_per_state(config_file, tmp_path,
                                             monkeypatch):
    """run() only integrates; the audit is the one diagnostics pass, so each
    of the 4 + 1 states has its energy evaluated once.  The audit passes
    blocks of levels stacked on a leading axis, so the levels are counted,
    not the calls."""
    import bsqs.energy

    levels = []
    energy = bsqs.energy.energy

    def counted(s, *args, **kwargs):
        levels.append(int(np.prod(s.u.data.shape[:-4])))
        return energy(s, *args, **kwargs)

    monkeypatch.setattr(bsqs.energy, "energy", counted)
    assert main(["run", "--config", str(config_file),
                 "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert sum(levels) == 4 + 1


def test_run_and_audit_write_the_same_energy_csv(config_file, tmp_path):
    ran, audited = tmp_path / "run", tmp_path / "audit"
    for command, out in (("run", ran), ("audit", audited)):
        assert main([command, "--config", str(config_file),
                     "--out", str(out), "--quiet"]) == 0
    assert (ran / "energy.csv").read_bytes() == \
        (audited / "energy.csv").read_bytes()
    assert len(list(ran.glob("state_*.snap"))) == 5
    assert list(audited.glob("state_*.snap")) == []


def test_missing_config_is_usage_error(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.cfg"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error[NOT_FOUND]" in capsys.readouterr().err


def test_solver_error_exit_code(tmp_path, capsys):
    bad = CONFIG.replace("physics.mu = 1.0", "physics.mu = -1.0")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(bad)
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error[VIOLATION]" in capsys.readouterr().err


def test_infinite_end_time_is_violation(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(CONFIG.replace("time.t_end = 0.25", "time.t_end = inf"))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error[VIOLATION]")


@pytest.mark.parametrize("command", ["run", "audit"])
def test_summary_reports_the_driven_constant(tmp_path, capsys, command):
    """A driven run's summary line ends with the audit's driven constant
    (the a-priori source bound it solves); a source-free one names none."""
    from bsqs import energy
    from bsqs.config import parse_config
    from bsqs.integrator import InitialData, run

    driven = CONFIG + "".join(
        line + "\n" for line in DRIVEN_README_CONFIG.splitlines()
        if line.startswith("sources."))
    cfg = parse_config(driven)
    rep = energy.audit(run(cfg, InitialData.from_plan(cfg)), cfg.params)
    assert rep.driven_constant > 0
    for text, tail in ((driven, f"; driven constant "
                                f"{rep.driven_constant:.3e}\n"),
                       (CONFIG, None)):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        if tail is None:
            assert "driven constant" not in out
        else:
            assert out.endswith(tail)


def test_audit_of_a_nearly_incompressible_solid(tmp_path):
    """lambda = 3000 (Poisson ratio 0.4998): the step matrix is ill
    conditioned, yet its band LU is backward stable, so the step's gate on
    the normwise backward error passes every solve.  A gate of 1e-11 on the
    relative residual |A x - b| / |b| trips here on rounding alone."""
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(DRIVEN_README_CONFIG.replace("physics.lambda = 1.0",
                                                "physics.lambda = 3000.0"))
    out = tmp_path / "out"
    rc = main(["audit", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    assert len(read_timeseries(out / "energy.csv")["t"]) == 33


@pytest.mark.parametrize("expr", [
    "(" * 300 + "x1" + ")" * 300,          # past the tokenizer's 200 levels
    "-" * 5000 + "x1",                     # past the parser's depth limits
    "+".join(["x1"] * 100000),
    "+".join(["x1"] * 2000),               # parses; too deep to evaluate
    # parses, but its value fails in arithmetic, is complex or not finite
    "1/0",
    "10^400",
    "(0-8)^(1/3)",
    "(x1-1)^0.5",
    "exp(1000)*x3",
    "1/(x1-x1)",
    "(t-2)^0.5",
    # each factor is finite, their product is not
    "1e200*x3*exp(500*(1+t))",
], ids=["parens-300", "minus-5000", "sum-100000", "sum-2000", "div-zero",
        "overflow", "complex", "nan", "inf-exp", "inf-div", "complex-t",
        "inf-product"])
def test_too_deep_expression_is_parse_error(tmp_path, capsys, expr):
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(CONFIG + f"sources.S = 0.001*({expr})\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 2
    line = CONFIG.count("\n") + 1
    assert capsys.readouterr().err.startswith(f"error[PARSE]: line {line}:")


def test_complex_time_factor_is_parse_error(tmp_path, capsys):
    """(-1)^(16 t) is complex at the stamp t = 1/64: the time factor fails
    its value check, the source is sampled at each stamp instead, and the
    value's own check reports it."""
    cfg = tmp_path / "complex.cfg"
    cfg.write_text(DRIVEN_README_CONFIG
                   + "sources.Ff2 = x3*(1-x3)*(-1)^(16*t)\n")
    rc = main(["audit", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 2
    line = DRIVEN_README_CONFIG.count("\n") + 1
    assert capsys.readouterr().err.startswith(
        f"error[PARSE]: line {line}: complex value")


@pytest.mark.parametrize("command", ["run", "sweep", "audit", "verify",
                                     "greens-check"])
def test_config_flag_follows_the_command(config_file, tmp_path, capsys,
                                         command):
    """run, sweep and audit need --config; verify and greens-check take
    none.  Either misuse is a usage error that names the command."""
    needs = command in ("run", "sweep", "audit")
    argv = [command, "--out", str(tmp_path / "o"), "--quiet"]
    if not needs:
        argv += ["--config", str(config_file)]
    assert main(argv) == 1
    assert command in capsys.readouterr().err


def test_bad_usage_exit_code():
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["run"]) == 1                 # missing required flags
    assert main(["--help"]) == 0


def test_seed_flag_is_usage_error(config_file, tmp_path):
    rc = main(["run", "--config", str(config_file),
               "--out", str(tmp_path / "o"), "--seed", "3", "--quiet"])
    assert rc == 1


def test_verify_command(tmp_path):
    out = tmp_path / "out"
    rc = main(["verify", "--out", str(out), "--quiet"])
    assert rc == 0
    spat = read_timeseries(out / "verify_spatial.csv")
    temp = read_timeseries(out / "verify_temporal.csv")
    assert len(spat["h"]) == 3 and len(temp["h"]) == 3
    # errors decrease under refinement
    assert spat["u"][0] > spat["u"][-1]
    assert temp["u"][0] > temp["u"][-1]
