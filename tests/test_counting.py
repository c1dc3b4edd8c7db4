"""Exact invariant counts, generating functions, and their stored form."""

from math import comb

import pytest

from metricinv.counting import (
    RationalFunction,
    cumulative_generating_function,
    delta_count,
    poincare,
    pole_order_at_one,
    s_count,
    series_expand,
    weyl_trace_count,
)
from metricinv.errors import PoleAtZeroError


def test_s_count_examples():
    assert s_count(3, 2) == 3
    assert s_count(2, 2) == 1
    assert s_count(4, 2) == 14
    assert [s_count(3, k) for k in range(5)] == [0, 0, 3, 18, 45]
    assert s_count(2, 0) == s_count(2, 1) == 0


def test_delta_count_examples():
    assert delta_count(3, 3) == 15
    assert delta_count(2, 3) == 1
    assert delta_count(4, 2) == 14
    assert delta_count(5, 2) == 5 + weyl_trace_count(5)
    assert weyl_trace_count(4) == 10
    assert weyl_trace_count(3) == 0


def test_counts_reject_dim_one():
    with pytest.raises(ValueError):
        s_count(1, 3)
    with pytest.raises(ValueError):
        delta_count(0, 2)
    with pytest.raises(ValueError):
        poincare(1)


def test_s_delta_cross_consistency():
    for n in range(2, 7):
        for k in range(0, 13):
            assert s_count(n, k) - s_count(n, k - 1) == delta_count(n, k)


def test_poincare_series_match_delta():
    for n in range(2, 33):
        series = series_expand(poincare(n), 24)
        assert series == [delta_count(n, k) for k in range(25)]


def test_cumulative_series_match_s():
    for n in range(2, 33):
        series = series_expand(cumulative_generating_function(n), 24)
        assert series == [s_count(n, k) for k in range(25)]


def test_poincare_laurent_parts_cancel():
    # Constructed reduced: the denominator is +-(1 - z)^e with a positive
    # leading coefficient, and the numerator does not vanish at z = 1.
    for n in range(2, 33):
        for f, e in ((poincare(n), n), (cumulative_generating_function(n), n + 1)):
            one_minus_z = [(-1) ** i * comb(e, i) for i in range(e + 1)]
            assert f.denominator in (
                tuple(one_minus_z), tuple(-x for x in one_minus_z)
            )
            assert f.denominator[-1] > 0
            assert sum(f.numerator) != 0


def test_poincare_n2_series():
    assert series_expand(poincare(2), 5) == [0, 0, 1, 1, 3, 4]


def test_poincare_n3_series():
    # 27 cross-checks s(3,4) - s(3,3) = 45 - 18
    assert series_expand(poincare(3), 4) == [0, 0, 3, 15, 27]


def test_pole_orders():
    for n in range(2, 33):
        assert pole_order_at_one(poincare(n)) == n
        assert pole_order_at_one(cumulative_generating_function(n)) == n + 1
    assert pole_order_at_one(RationalFunction((1,), (1, -1))) == 1
    assert pole_order_at_one(RationalFunction((1,), (1,))) == 0
    # num and den share (z - 1); its multiplicities are subtracted
    f = RationalFunction((-1, 1), (1, -2, 1))
    assert pole_order_at_one(f) == 1


def test_series_known_functions():
    geo = RationalFunction((1,), (1, -1))
    assert series_expand(geo, 4) == [1, 1, 1, 1, 1]
    ramp = RationalFunction((0, 0, 1), (1, -2, 1))
    assert series_expand(ramp, 5) == [0, 0, 1, 2, 3, 4]


def test_series_pole_at_zero():
    with pytest.raises(PoleAtZeroError):
        series_expand(RationalFunction((1,), (0, 1)), 3)
