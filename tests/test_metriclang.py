"""Metric file parsing, printing round-trips, and jet evaluation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from metricinv.errors import (
    DimensionMismatchError,
    DomainError,
    MetricSyntaxError,
    MissingDiagonalError,
    UnknownIdentifierError,
)
from metricinv.metriclang import (
    BinOp,
    Call,
    Const,
    Coord,
    Neg,
    Power,
    ZERO,
    eval_expr,
    parse_expression,
    parse_metric,
    poly_diff,
    pullback_metric,
    substitute,
)

from conftest import partial, same_jet, truncate
from expr_printer import format_expr, format_metric

COORDS = ("x", "y")


def test_parse_sphere_chart():
    spec = parse_metric("dim=2; coords=[x,y]; g[1,1]=1; g[2,2]=sin(x)^2")
    assert spec.dim == 2
    assert spec.coords == ("x", "y")
    assert spec.signature == (1, 1)
    assert spec.components[0][1] == ZERO
    assert spec.components[1][1] == Power(Call("sin", Coord(0)), Fraction(2))


def test_missing_diagonal():
    with pytest.raises(MissingDiagonalError, match=r"g\[2,2\]"):
        parse_metric("dim=2; coords=[x,y]; g[1,1]=1")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError, match="'z'"):
        parse_metric("dim=2; coords=[x,y]; g[1,1]=1/z; g[2,2]=1")


def test_dimension_mismatches():
    with pytest.raises(DimensionMismatchError):
        parse_metric("dim=3; coords=[x,y]; g[1,1]=1; g[2,2]=1; g[3,3]=1")
    with pytest.raises(DimensionMismatchError):
        parse_metric("dim=2; coords=[x,y]; signature=[+1]; g[1,1]=1; g[2,2]=1")
    with pytest.raises(DimensionMismatchError):
        parse_metric("dim=2; coords=[x,y]; g[1,3]=1; g[2,2]=1")


def test_syntax_errors_carry_position():
    with pytest.raises(MetricSyntaxError) as info:
        parse_metric("dim=2\ncoords=[x,y]\ng[1,1] = 1 + + \ng[2,2]=1")
    assert "line 3" in str(info.value)
    with pytest.raises(MetricSyntaxError):
        parse_metric("dim=2; coords=[x,y]; g[2,1]=1; g[2,2]=1; g[1,1]=1")
    with pytest.raises(MetricSyntaxError):
        parse_metric("dim=2; coords=[x,y]; g[1,1]=1; g[1,1]=2; g[2,2]=1")
    with pytest.raises(MetricSyntaxError):
        parse_metric("dim=2; coords=[x,y]; g[1,1]=2x; g[2,2]=1")  # no implicit mult


def test_exponent_must_be_rational_literal():
    with pytest.raises(MetricSyntaxError):
        parse_expression("x^y", COORDS)
    assert parse_expression("x^(1/2)", COORDS) == Power(Coord(0), Fraction(1, 2))
    assert parse_expression("x^-2", COORDS) == Power(Coord(0), Fraction(-2))
    assert parse_expression("x^2.5", COORDS) == Power(Coord(0), Fraction(5, 2))


def test_power_binds_tighter_than_unary_minus():
    e = parse_expression("-x^2", COORDS)
    assert e == Neg(Power(Coord(0), Fraction(2)))
    # right-associative exponent tower collapses to one rational
    assert parse_expression("x^2^3", COORDS) == Power(Coord(0), Fraction(8))


def test_named_constants():
    e = parse_expression("pi + e", COORDS)
    assert eval_expr(e, (0.0, 0.0), 0).value == pytest.approx(math.pi + math.e)


def test_comments_and_defaults():
    spec = parse_metric(
        "# a sphere\ndim = 2 # dims\ncoords = [x, y]\ng[1,1] = 1\ng[2,2] = sin(x)^2\n"
    )
    assert spec.components[0][1] == ZERO
    assert spec.signature == (1, 1)


def test_signature_parsing():
    spec = parse_metric(
        "dim=2; coords=[t,x]; signature=[-1,+1]; g[1,1]=-1; g[2,2]=1"
    )
    assert spec.signature == (-1, 1)
    assert not spec.is_riemannian


def test_eval_expr_sin_squared_taylor():
    # d/dx sin^2 = sin 2x -> 0 at pi/2; second derivative 2 cos 2x -> -2
    e = parse_expression("sin(x)^2", COORDS)
    jet = eval_expr(e, (math.pi / 2, 0.0), 2)
    assert jet.value == pytest.approx(1.0, abs=1e-15)
    assert partial(jet, (1, 0)) == pytest.approx(0.0, abs=1e-15)
    assert partial(jet, (2, 0)) == pytest.approx(-2.0, rel=1e-14)


def test_eval_expr_constant():
    jet = eval_expr(Const(1.0), (3.0, 4.0), 2)
    assert jet.value == 1.0
    assert np.all(jet.c[1:] == 0.0)


def test_eval_expr_domain_error():
    e = parse_expression("1/y^2", COORDS)
    with pytest.raises(DomainError):
        eval_expr(e, (1.0, 0.0), 2)


def test_round_trip_fixture_files(tmp_path):
    for text in [
        "dim=2; coords=[x,y]; g[1,1]=1; g[2,2]=sin(x)^2",
        "dim=3; coords=[x,y,z]; g[1,1]=exp(x); g[2,2]=1+x*y; g[3,3]=2; g[1,3]=x^2",
        "dim=2; coords=[t,x]; signature=[-1,+1]; g[1,1]=-1; g[2,2]=1/(1+t^2)",
    ]:
        spec = parse_metric(text)
        assert parse_metric(format_metric(spec)) == spec


# -- expression strategies ------------------------------------------------------

_FUNCS = ["sin", "cos", "exp", "sinh", "cosh", "tanh"]


def _exprs(depth):
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False).map(
            lambda v: Const(float(v))
        ),
        st.integers(min_value=0, max_value=1).map(Coord),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), sub, sub).map(
            lambda t: BinOp(*t)
        ),
        st.tuples(st.sampled_from(_FUNCS), sub).map(lambda t: Call(*t)),
        sub.map(Neg),
        st.tuples(
            sub,
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=3),
        ).map(lambda t: Power(t[0], Fraction(t[1], t[2]))),
    )


@given(_exprs(3))
@settings(max_examples=150)
def test_print_parse_round_trip(expr):
    printed = format_expr(expr, COORDS)
    assert parse_expression(printed, COORDS) == expr


@given(_exprs(2), st.floats(min_value=0.2, max_value=1.5),
       st.floats(min_value=0.2, max_value=1.5))
@settings(max_examples=100)
def test_eval_matches_direct_float_eval(expr, px, py):
    """Order-0 jet evaluation agrees with plain float evaluation."""

    def direct(e):
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Coord):
            return (px, py)[e.index]
        if isinstance(e, Neg):
            return -direct(e.arg)
        if isinstance(e, Call):
            return getattr(math, e.fn)(direct(e.arg))
        if isinstance(e, Power):
            return direct(e.base) ** float(e.exponent)
        left, right = direct(e.left), direct(e.right)
        return {
            "+": left + right, "-": left - right,
            "*": left * right, "/": left / right if right != 0 else math.inf,
        }[e.op]

    try:
        expected = direct(expr)
    except (OverflowError, ZeroDivisionError, ValueError):
        return
    if isinstance(expected, complex):
        return
    if not math.isfinite(expected) or abs(expected) > 1e12:
        return
    try:
        got = eval_expr(expr, (px, py), 0).value
    except DomainError:
        return
    assert got == pytest.approx(expected, rel=1e-13, abs=1e-13)


@given(_exprs(2))
@settings(max_examples=60)
def test_eval_truncation_consistency(expr):
    """Evaluating at order K+1 and restricting to order K is exact."""
    point = (0.8, 1.3)
    try:
        high = eval_expr(expr, point, 3)
    except DomainError:
        return
    if not np.all(np.isfinite(high.c)):
        return
    assert same_jet(truncate(high, 2), eval_expr(expr, point, 2))


def test_substitute_and_poly_diff():
    e = parse_expression("x^2 + 3.0*y", COORDS)
    s = substitute(e, [Coord(1), Coord(0)])
    assert format_expr(s, COORDS) == "y^2 + 3.0 * x"
    d = poly_diff(e, 0)
    val = eval_expr(d, (2.0, 5.0), 0).value
    assert val == pytest.approx(4.0)


def test_pullback_matches_chain_rule():
    """Pullback components equal g(phi(q)) contracted with the Jacobian."""
    spec = parse_metric(
        "dim=2; coords=[x,y]; g[1,1]=exp(x); g[2,2]=1+y^2; g[1,2]=0.3*x*y"
    )
    phi = [
        parse_expression("x + 0.2*y^2", COORDS),
        parse_expression("y - 0.1*x^2", COORDS),
    ]
    pulled = pullback_metric(spec, phi)
    q = (0.4, -0.7)
    p = tuple(eval_expr(f, q, 0).value for f in phi)
    jac = np.array(
        [[eval_expr(poly_diff(f, i), q, 0).value for i in range(2)] for f in phi]
    )
    g_at_p = np.array(
        [[eval_expr(spec.components[i][j], p, 0).value for j in range(2)]
         for i in range(2)]
    )
    expected = jac.T @ g_at_p @ jac
    got = np.array(
        [[eval_expr(pulled.components[i][j], q, 0).value for j in range(2)]
         for i in range(2)]
    )
    assert np.allclose(got, expected, rtol=1e-12)
    assert pulled.components[0][1] == pulled.components[1][0]
