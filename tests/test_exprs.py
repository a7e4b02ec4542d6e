"""Expression grammar: parsing, evaluation, and error reporting."""

import math

import numpy as np
import pytest

from bsqs.errors import ParseError
from bsqs.exprs import Expression


def test_number_and_arithmetic():
    e = Expression("1 + 2*3 - 4/8")
    assert e(0.0, 0.0, 0.0) == pytest.approx(6.5)
    # deep, but within the evaluator's reach
    assert Expression("(" * 150 + "x1" + ")" * 150)(2.0, 0, 0) == 2.0
    assert Expression("+".join(["x1"] * 500))(2.0, 0, 0) == 1000.0


def test_precedence_and_power():
    assert Expression("2^3^1")(0, 0, 0) == pytest.approx(8.0)
    assert Expression("2**3 + 1")(0, 0, 0) == pytest.approx(9.0)
    assert Expression("-2^2")(0, 0, 0) == pytest.approx(-4.0)
    assert Expression("2^-1")(0, 0, 0) == 0.5
    assert Expression("2^3^2")(0, 0, 0) == 512.0
    assert Expression("--x1")(3.0, 0, 0) == 3.0
    assert Expression("+x1")(3.0, 0, 0) == 3.0


def test_variables_and_time():
    e = Expression("x1 + 2*x2 + 3*x3 + 4*t")
    assert e(1.0, 2.0, 3.0, 4.0) == pytest.approx(1 + 4 + 9 + 16)


def test_functions_and_pi():
    e = Expression("sin(pi*x1) + cos(0) + exp(x3)")
    assert e(0.5, 0.0, 0.0) == pytest.approx(1.0 + 1.0 + 1.0)
    assert Expression("sin(2*pi*x1)")(1.0, 0, 0) == pytest.approx(0.0, abs=1e-15)


def test_broadcasting():
    e = Expression("x1*x3")
    x1 = np.array([1.0, 2.0])[:, None]
    x3 = np.array([3.0, 4.0, 5.0])[None, :]
    out = e(x1, 0.0, x3)
    assert out.shape == (2, 3)
    assert out[1, 2] == pytest.approx(10.0)


def test_constant_broadcasts_to_grid_shape():
    e = Expression("7")
    out = e(np.zeros((2, 1, 1)), np.zeros((1, 3, 1)), np.zeros((1, 1, 4)))
    assert out.shape == (2, 3, 4)
    assert np.all(out == 7.0)


def test_scientific_notation():
    assert Expression("1e-3 + 2.5E+1")(0, 0, 0) == pytest.approx(25.001)
    assert Expression(".5e1")(0, 0, 0) == 5.0
    assert Expression("3.")(0, 0, 0) == 3.0
    assert Expression("1.e1")(0, 0, 0) == 10.0
    assert Expression("007")(0, 0, 0) == 7.0


@pytest.mark.parametrize("bad", ["", "x1 +", "sin(x1", "foo(x1)", "x9",
                                 "1 $ 2", "(x1))", "0x1", "1_0", "1j", "True",
                                 "x1 # c", "sin", "x1/cos", "sin(x1, x2)",
                                 "x1.real", "x1[0]", "1 < 2", "x1 % 2",
                                 "x1 // 2", "x1 if t else x2", "lambda: 1",
                                 "__import__('os')"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        Expression(bad, line=3)


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as exc:
        Expression("x9", line=42)
    assert exc.value.line == 42


def test_equality_and_repr():
    assert Expression("x1+1") == Expression("x1+1")
    assert Expression("x1+1") != Expression("x1+2")
    assert "x1+1" in repr(Expression("x1+1"))


def test_nested_calls():
    e = Expression("exp(-(x1 - 0.5)^2)")
    assert e(0.5, 0, 0) == pytest.approx(1.0)
    assert e(1.5, 0, 0) == pytest.approx(math.exp(-1.0))
