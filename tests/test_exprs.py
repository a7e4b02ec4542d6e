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


@pytest.mark.parametrize("text, space, time", [
    ("0.5*sin(2*pi*x1)*(1-x3)*cos(4*pi*t)", "(0.5) * (sin(2*pi*x1)) * (1-x3)",
     "(cos(4*pi*t))"),
    ("-2*x3*(1+sin(t))*exp(-t)", "(-2) * (x3)", "(1+sin(t)) * (exp(-t))"),
    ("3*(x1*t)*x2", "(3) * (x1) * (x2)", "(t)"),    # parentheses flattened
    ("x3^2", "(x3**2)", None),
    ("t", "1", "(t)"),
])
def test_separate_splits_the_top_product(text, space, time):
    """The factors of the top multiplication chain without t, constants
    included, form f and the others g; f * g is the value to roundoff."""
    f, g = Expression(text, line=5).separate()
    assert f.text == space and f.line == 5
    assert (g is None and time is None) or g.text == time
    x1, x2, x3 = np.meshgrid([0.1, 0.4], [0.2, 0.7], [0.0, 0.5, 1.0],
                             indexing="ij")
    t = 0.3
    value = f(x1, x2, x3) * (1.0 if g is None else g(0.0, 0.0, 0.0, t))
    assert value == pytest.approx(Expression(text)(x1, x2, x3, t), rel=1e-15)


@pytest.mark.parametrize("text", ["sin(2*pi*(x1 - t))*(1-x3)", "x3 + t",
                                  "x3/t", "x1*exp(x3*t)"])
def test_separate_refuses_a_factor_of_both(text):
    assert Expression(text).separate() is None


def test_separate_factor_keeps_the_value_checks():
    """A factor has the checks of the expression: (-1)^(16 t) is not
    finite at t = 1/64 in numpy and complex for a float t."""
    _, g = Expression("x3*(1-x3)*(-1)^(16*t)", line=9).separate()
    for t in (1 / 64, np.array([1 / 64, 2 / 64])):
        with pytest.raises(ParseError) as exc:
            g(0.0, 0.0, 0.0, t)
        assert exc.value.line == 9


def test_separate_a_long_chain():
    """Splitting walks the chain without recursion; a chain too deep to
    evaluate fails in evaluation as the expression does."""
    text = "*".join(["x1"] * 2000) + "*t"
    f, g = Expression(text).separate()
    assert g.text == "(t)"
    with pytest.raises(ParseError):
        f(1.0, 0.0, 0.0)
