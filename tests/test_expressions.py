import math

import numpy as np
import pytest

from fracdiff.expressions import ExpressionError, expression_parse


def test_spec_examples():
    assert expression_parse("0", ())() == 0.0
    assert expression_parse("enzyme(u)", ("u",))(1.0) == pytest.approx(-0.5)
    assert expression_parse("u*(1-u-0.5*v)", ("u", "v"))(1.0, 0.0) == pytest.approx(0.0)


def test_arithmetic_and_precedence():
    ev = expression_parse("1+2*3-4/2", ())
    assert ev() == pytest.approx(5.0)
    assert expression_parse("2^3^2", ())() == pytest.approx(512.0)  # right-assoc
    assert expression_parse("-2^2", ())() == pytest.approx(-4.0)
    assert expression_parse("2^-1", ())() == pytest.approx(0.5)
    assert expression_parse("(1+2)*(3-1)", ())() == pytest.approx(6.0)
    assert expression_parse("--3", ())() == pytest.approx(3.0)


def test_functions_and_variables():
    ev = expression_parse("sin(x)^2 + cos(x)^2", ("x",))
    xs = np.linspace(0.0, math.pi, 11)
    assert np.allclose(ev(xs), 1.0)
    assert expression_parse("exp(t)", ("t",))(1.0) == pytest.approx(math.e)
    assert expression_parse("abs(-u)", ("u",))(0.3) == pytest.approx(0.3)
    assert expression_parse("enzyme(-u)", ("u",))(1.0) == pytest.approx(0.5)


def test_numbers():
    assert expression_parse("1e2", ())() == 100.0
    assert expression_parse(".5", ())() == 0.5
    assert expression_parse("2.5e-1", ())() == 0.25
    assert expression_parse("3.", ())() == 3.0


@pytest.mark.parametrize(
    "text,names,pos",
    [
        ("t", ("x",), 0),
        ("1 + 0.2*cos(t)", ("x",), 12),
        ("u*v", ("x", "u"), 2),
        ("x", (), 0),
    ],
)
def test_undeclared_name_refused_at_parse(text, names, pos):
    """Only the declared names are variables: any other is refused when the
    text is parsed, at its position, listing the names allowed."""
    with pytest.raises(ExpressionError, match=r"only \[.*\] are allowed") as exc:
        expression_parse(text, names)
    assert exc.value.position == pos
    assert str(list(names)) in str(exc.value)


def test_values_bind_by_position():
    ev = expression_parse("x - t", ("t", "x"))
    assert ev(1.0, 5.0) == pytest.approx(4.0)
    xs = np.linspace(0.0, 1.0, 5)
    ts = np.array([[0.0], [2.0]])
    assert np.allclose(ev(ts, xs), xs - ts)
    assert ev(ts, xs).shape == (2, 5)
    with pytest.raises(TypeError):
        ev(1.0)


def test_constant_returns_its_scalar():
    """A constant is not broadcast against the values: the callers'
    broadcast shapes every user function's result."""
    out = expression_parse("2*3", ("x", "t"))(np.zeros(5), np.zeros((3, 1)))
    assert np.ndim(out) == 0 and out == 6.0


@pytest.mark.parametrize(
    "text,pos",
    [
        ("1+", 2),
        ("(1+2", 4),
        ("1+*2", 2),
        ("foo(1)", 0),
        ("sin x", 4),
        ("1 $ 2", 2),
        ("1 2", 2),
        ("w+1", 0),
    ],
)
def test_errors_carry_position(text, pos):
    with pytest.raises(ExpressionError) as exc:
        expression_parse(text, ("x", "t", "u", "v"))
    assert exc.value.position == pos
    assert str(pos) in str(exc.value)


def test_non_string_rejected():
    with pytest.raises(TypeError):
        expression_parse(42, ("x",))
