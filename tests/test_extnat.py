"""Arithmetic laws for the extended naturals.

inf is ``math.inf``, so addition, comparison, min and max are Python's
builtins; these tests pin that they saturate and order correctly on
N ∪ {inf}, next to the three operations that need special cases.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conebound.extnat import INF, Interval, ext_ceil_div, ext_monus, ext_mul

extnats = st.one_of(st.integers(min_value=0, max_value=40), st.just(INF))

SMALL = list(range(0, 9)) + [INF]


# -- point cases ---------------------------------------------------------------


def test_add_cases():
    assert 2 + 3 == 5
    assert INF + 0 == INF
    assert INF + INF == INF


def test_mul_cases():
    assert ext_mul(2, 3) == 6
    assert ext_mul(INF, 1) == INF
    assert ext_mul(0, INF) == 0
    assert ext_mul(INF, 0) == 0


def test_monus_cases():
    assert ext_monus(5, 2) == 3
    assert ext_monus(2, 5) == 0
    assert ext_monus(INF, 7) == INF
    assert ext_monus(3, INF) == 0
    assert ext_monus(INF, INF) == 0


def test_ceil_div_cases():
    assert ext_ceil_div(7, 2) == 4
    assert ext_ceil_div(6, 3) == 2
    assert ext_ceil_div(INF, 4) == INF
    assert ext_ceil_div(5, INF) == 0
    assert ext_ceil_div(INF, INF) == 0


def test_ceil_div_zero_divisor_is_a_bug():
    with pytest.raises(ValueError):
        ext_ceil_div(3, 0)


def test_interval_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        Interval(3, 2)
    with pytest.raises(ValueError):
        Interval(INF, 5)


def test_interval_rejects_non_extnats():
    # a finite float is what a missing inf special case would leak
    with pytest.raises(TypeError):
        Interval(0, 2.0)
    with pytest.raises(ValueError):
        Interval(-1, 3)


# -- algebraic laws --------------------------------------------------------------


@given(extnats, extnats)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(extnats, extnats, extnats)
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(extnats, extnats)
def test_mul_commutative(a, b):
    assert ext_mul(a, b) == ext_mul(b, a)


@given(extnats, extnats, extnats)
def test_mul_associative(a, b, c):
    assert ext_mul(ext_mul(a, b), c) == ext_mul(a, ext_mul(b, c))


@given(extnats, extnats)
def test_order_total(a, b):
    assert a <= b or b <= a
    assert min(a, b) in (a, b)
    assert max(a, b) in (a, b)


# -- rearrangement soundness, checked against exhaustive enumeration -------------


def test_monus_rearrangement_sound_on_finite_model():
    # independent oracle: brute force over {0..8, inf}^3
    for a in SMALL:
        for b in SMALL:
            for c in SMALL:
                if a <= b + c:
                    assert ext_monus(a, c) <= b, (a, b, c)


def test_ceil_div_rearrangement_sound_on_finite_model():
    for a in SMALL:
        for b in SMALL:
            for c in SMALL:
                a1, b1, c1 = a + 1, b + 1, c + 1
                if a1 <= ext_mul(b1, c1):
                    assert ext_ceil_div(a1, c1) <= b1, (a, b, c)
