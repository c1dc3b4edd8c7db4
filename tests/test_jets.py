"""Jet ring: frozen examples plus property tests of the ring axioms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from metricinv.errors import (
    DomainError,
    OrderExceededError,
    ShapeMismatchError,
)
from metricinv.curvature import TensorComponents
from metricinv.jets import Jet, _context, apply_fn, jet_pow, seed

from conftest import partial, same_jet, truncate


def test_seed_coordinate_function():
    j = seed((2.0, 5.0), 0, 2)
    assert j.value == 2.0
    assert partial(j, (1, 0)) == 1.0
    assert partial(j, (0, 1)) == 0.0
    assert partial(j, (2, 0)) == 0.0


def test_seed_truncated_to_constant():
    j = seed((0.0,), 0, 0)
    assert j.c.shape == (1,)
    assert j.value == 0.0


def test_seed_three_vars_order_one():
    j = seed((1.0, 1.0, 1.0), 2, 1)
    assert j.value == 1.0
    assert [partial(j, a) for a in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] == [0.0, 0.0, 1.0]


def test_seed_index_out_of_range():
    with pytest.raises(IndexError):
        seed((1.0, 2.0), 2, 1)


def test_mul_square_of_coordinate():
    x = seed((3.0,), 0, 2)
    assert np.array_equal((x * x).c, [9.0, 6.0, 1.0])


def test_mul_identity():
    x = seed((0.4, -1.2), 1, 3)
    one = Jet.constant(1.0, 2, 3)
    assert same_jet(x * one, x)


def test_mul_polynomial_product():
    x = seed((0.0,), 0, 3)
    one = Jet.constant(1.0, 1, 3)
    assert np.array_equal(((one + x) * (one - x)).c, [1.0, 0.0, -1.0, 0.0])


def test_mul_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        seed((0.0,), 0, 2) * seed((0.0, 0.0), 0, 2)
    with pytest.raises(ShapeMismatchError):
        seed((0.0,), 0, 2) * seed((0.0,), 0, 3)


def test_sin_maclaurin():
    s = apply_fn("sin", seed((0.0,), 0, 3))
    assert np.allclose(s.c, [0.0, 1.0, 0.0, -1.0 / 6.0], atol=1e-15)


def test_recip_geometric_series():
    r = apply_fn("recip", Jet(1, 3, [1.0, -1.0, 0.0, 0.0]))
    assert np.allclose(r.c, [1.0, 1.0, 1.0, 1.0], atol=1e-15)


def test_log_domain_error():
    with pytest.raises(DomainError):
        apply_fn("log", seed((0.0,), 0, 2))
    with pytest.raises(DomainError):
        apply_fn("recip", seed((0.0,), 0, 2))
    with pytest.raises(DomainError):
        apply_fn("sqrt", Jet.constant(-1.0, 1, 2))


def test_partial_order_exceeded():
    # a tensor of jets cannot be extended to a higher order
    t = TensorComponents(("d", "d"), 2, 2, np.zeros((2, 2, 6)))
    with pytest.raises(OrderExceededError):
        t.truncate(3)


def test_unknown_function_tag_raises():
    # negation is unary `-`, not a function tag
    for tag in ("neg", "arcsin"):
        with pytest.raises(ValueError, match="unknown function tag"):
            apply_fn(tag, seed((0.5,), 0, 2))


def test_partial_constant_term():
    j = apply_fn("exp", seed((0.7, 0.1), 0, 2))
    assert partial(j, (0, 0)) == j.value


def test_elementary_function_values():
    # one nontrivial second derivative per function, against closed forms
    x0 = 0.4
    x = seed((x0,), 0, 3)
    cases = {
        "sin": (math.sin(x0), math.cos(x0), -math.sin(x0)),
        "cos": (math.cos(x0), -math.sin(x0), -math.cos(x0)),
        "exp": (math.exp(x0),) * 3,
        "log": (math.log(x0), 1 / x0, -1 / x0**2),
        "sinh": (math.sinh(x0), math.cosh(x0), math.sinh(x0)),
        "cosh": (math.cosh(x0), math.sinh(x0), math.cosh(x0)),
        "tan": (math.tan(x0), 1 / math.cos(x0) ** 2,
                2 * math.tan(x0) / math.cos(x0) ** 2),
        "tanh": (math.tanh(x0), 1 - math.tanh(x0) ** 2,
                 -2 * math.tanh(x0) * (1 - math.tanh(x0) ** 2)),
        "sqrt": (math.sqrt(x0), 0.5 / math.sqrt(x0), -0.25 * x0 ** -1.5),
        "recip": (1 / x0, -1 / x0**2, 2 / x0**3),
    }
    for tag, (v, d1, d2) in cases.items():
        j = apply_fn(tag, x)
        assert j.value == pytest.approx(v, rel=1e-14), tag
        assert partial(j, (1,)) == pytest.approx(d1, rel=1e-13), tag
        assert partial(j, (2,)) == pytest.approx(d2, rel=1e-12), tag


def test_pow_rational():
    x = seed((2.0,), 0, 3)
    j = jet_pow(x, Fraction(3, 2))
    f = lambda t: t**1.5
    assert j.value == pytest.approx(f(2.0), rel=1e-14)
    assert partial(j, (1,)) == pytest.approx(1.5 * 2.0**0.5, rel=1e-13)
    # integer exponents work on any constant term
    y = seed((0.0,), 0, 3)
    assert np.array_equal(jet_pow(y, Fraction(3)).c, [0.0, 0.0, 0.0, 1.0])
    assert same_jet(jet_pow(y, Fraction(0)), Jet.constant(1.0, 1, 3))
    with pytest.raises(DomainError):
        jet_pow(seed((0.0,), 0, 2), Fraction(1, 2))


def test_cauchy_product_batch_is_bitwise_per_entry():
    """The batched product sums each coefficient in the (k, i, j) order of
    the product table, exactly as an explicit loop over the table does."""
    from metricinv.jets import _context, cauchy_product

    rng = np.random.default_rng(3)
    for n_vars, order in [(4, 0), (4, 1), (3, 2), (2, 4)]:
        ctx = _context(n_vars, order)
        a = rng.standard_normal((3, 1, ctx.size))
        b = rng.standard_normal((4, ctx.size))
        batch = cauchy_product(a, b, ctx)
        assert batch.shape == (3, 4, ctx.size)
        for p in range(3):
            for q in range(4):
                loop = [0.0] * ctx.size
                for k, i, j in zip(ctx.prod_k, ctx.prod_i, ctx.prod_j):
                    loop[k] += a[p, 0, i] * b[q, j]
                assert batch[p, q].tolist() == loop
                assert (Jet(n_vars, order, a[p, 0]) * Jet(n_vars, order, b[q])).c.tolist() == loop


def test_truncation_is_prefix():
    # the multi-indices of degree <= 2 lead those of degree <= 4, so the
    # order-2 jet is the prefix of the order-4 coefficients
    low, high = _context(2, 2), _context(2, 4)
    assert high.multi_indices[: low.size] == low.multi_indices
    x, y = seed((0.3, -0.2), 0, 4), seed((0.3, -0.2), 1, 4)
    t = truncate(apply_fn("exp", x * y), 2)
    assert same_jet(t, apply_fn("exp", truncate(x, 2) * truncate(y, 2)))


# -- property tests -----------------------------------------------------------


def jets_strategy(n_vars: int, order: int, nonzero_const: bool = False):
    from metricinv.jets import _context

    size = _context(n_vars, order).size
    coeff = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
    arrays = st.lists(coeff, min_size=size, max_size=size)

    def build(coeffs):
        if nonzero_const and abs(coeffs[0]) < 0.3:
            coeffs = [coeffs[0] + (0.5 if coeffs[0] >= 0 else -0.5)] + coeffs[1:]
        return Jet(n_vars, order, coeffs)

    return arrays.map(build)


def _close(a: Jet, b: Jet, rtol: float):
    scale = max(1.0, float(np.max(np.abs(a.c))), float(np.max(np.abs(b.c))))
    return np.allclose(a.c, b.c, rtol=rtol, atol=rtol * scale)


@given(jets_strategy(2, 3), jets_strategy(2, 3))
def test_mul_commutative(a, b):
    assert _close(a * b, b * a, 1e-12)


@given(jets_strategy(2, 3), jets_strategy(2, 3), jets_strategy(2, 3))
@settings(max_examples=60)
def test_mul_associative(a, b, c):
    assert _close((a * b) * c, a * (b * c), 1e-12)


@given(jets_strategy(2, 3), jets_strategy(2, 3), jets_strategy(2, 3))
@settings(max_examples=60)
def test_mul_distributes(a, b, c):
    assert _close(a * (b + c), a * b + a * c, 1e-12)


@given(jets_strategy(3, 3, nonzero_const=True))
def test_recip_is_inverse(a):
    one = Jet.constant(1.0, 3, 3)
    assert _close(a * apply_fn("recip", a), one, 1e-10)


@given(jets_strategy(2, 2))
def test_exp_chain_rule(a):
    e = apply_fn("exp", a)
    for i in range(2):
        lhs = partial(e, tuple(1 if j == i else 0 for j in range(2)))
        rhs = partial(a, tuple(1 if j == i else 0 for j in range(2))) * e.value
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-2, max_value=2, allow_nan=False),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_seed_partial_round_trip(terms):
    """Polynomials built from seeds reproduce their analytic derivatives."""
    point = (0.7, -0.4)
    x = seed(point, 0, 4)
    y = seed(point, 1, 4)
    jet = Jet.constant(0.0, 2, 4)
    for coeff, px, py in terms:
        jet = jet + coeff * jet_pow(x, Fraction(px)) * jet_pow(y, Fraction(py))

    def d(px, py, ax, ay):
        if px < ax or py < ay:
            return 0.0
        fact = (
            math.factorial(px) // math.factorial(px - ax)
            * (math.factorial(py) // math.factorial(py - ay))
        )
        return fact * point[0] ** (px - ax) * point[1] ** (py - ay)

    for ax in range(3):
        for ay in range(3):
            expect = sum(c * d(px, py, ax, ay) for c, px, py in terms)
            assert partial(jet, (ax, ay)) == pytest.approx(expect, rel=1e-11, abs=1e-11)


@given(jets_strategy(2, 3), jets_strategy(2, 3))
def test_truncation_commutes_exactly(a, b):
    """Order K+1 arithmetic restricted to order K is bitwise the order-K result."""
    a2, b2 = truncate(a, 2), truncate(b, 2)
    assert same_jet(truncate(a * b, 2), a2 * b2)
    assert same_jet(truncate(a + b, 2), a2 + b2)
    ap = Jet(2, 3, np.concatenate([[a.c[0] + 2.5], a.c[1:]]))  # shift domain
    assert same_jet(truncate(apply_fn("exp", ap), 2), apply_fn("exp", truncate(ap, 2)))
    assert same_jet(truncate(apply_fn("recip", ap), 2), apply_fn("recip", truncate(ap, 2)))
