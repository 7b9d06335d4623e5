from fractions import Fraction

import pytest

from oracles import abs_prec, agrees, digit_sum, factorial_valuation, norm_exponent, residue
from padiff.padic import (
    DEFAULT_PRECISION,
    PadicNumber,
    PrecisionError,
    vp_fraction,
    vp_int,
)


def test_vp_int():
    assert vp_int(1, 5) == 0
    assert vp_int(250, 5) == 3
    assert vp_int(-250, 5) == 3
    assert vp_int(2 ** 40, 2) == 40
    with pytest.raises(ValueError):
        vp_int(0, 5)


def test_vp_fraction():
    assert vp_fraction(Fraction(1, 25), 5) == -2
    assert vp_fraction(Fraction(75, 8), 5) == 2
    assert vp_fraction(Fraction(75, 8), 2) == -3


def test_factorial_valuation_against_direct_product():
    import math
    for p in (2, 3, 5, 7):
        for s in (1, 7, 24, 25, 26, 100):
            assert factorial_valuation(s, p) == vp_int(math.factorial(s), p)
    assert factorial_valuation(0, 3) == 0


def test_factorial_valuation_legendre_closed_form():
    # v_p(s!) == (s - digit_sum_p(s)) / (p - 1)
    for p in (3, 5, 7):
        for s in range(0, 400, 7):
            assert factorial_valuation(s, p) * (p - 1) == s - digit_sum(s, p)
    assert factorial_valuation(25, 5) == 6


def test_from_rational_unit_digits():
    # -1/4 in Z_5: the unit mod 5**4 solves 4*u == -1, i.e. u == 156
    x = PadicNumber.from_rational(-1, 4, 5)
    assert x.v == 0
    assert residue(x, 0, 4) == pow(-4, -1, 5 ** 4) == 156
    assert x.u == pow(-4, -1, 5 ** DEFAULT_PRECISION)
    assert x.exact == Fraction(-1, 4)


def test_geometric_series_inverse():
    # 1/(1-5) == -1/4 should match the truncated geometric sum of 5**k
    x = PadicNumber.from_rational(-1, 4, 5)
    geom = sum(5 ** k for k in range(5))
    assert x.u % 5 ** 5 == geom


def test_negative_valuation():
    x = PadicNumber.from_rational(7, 25, 5)
    assert x.v == -2
    assert x.u == 7
    y = PadicNumber.from_rational(1, 10, 5)
    assert y.v == -1
    assert y.u * 2 % 5 ** 3 == 1


def test_exact_cancellation_gives_exact_zero():
    a = PadicNumber.from_rational(3, 7, 5)
    b = PadicNumber.from_rational(-3, 7, 5)
    z = a + b
    assert z.is_exact_zero
    assert (a - a).is_exact_zero


def test_capped_cancellation_gives_inexact_zero():
    a = PadicNumber.approximate(5, 0, 1, 4)       # 1 + O(5**4)
    b = PadicNumber.approximate(5, 0, -1, 4)      # -1 + O(5**4)
    z = a + b
    assert z.u == 0 and not z.is_exact_zero
    assert abs_prec(z) == 4


def test_approximate_normalises_the_unit():
    # 10 + O(5**3) is 2 * 5 + O(5**3); 0, 125 and N <= 0 know no digit
    assert PadicNumber.approximate(5, 1, 10, 3) == PadicNumber(5, 2, 2, 2)
    assert PadicNumber.approximate(5, 1, -3, 2) == PadicNumber(5, 1, 22, 2)
    for u, N in ((0, 3), (125, 3), (7, 0), (7, -2)):
        assert PadicNumber.approximate(5, 1, u, N) == PadicNumber.inexact_zero(5, 1 + max(N, 0))


def test_add_partial_cancellation_precision():
    # (1 + O(5**4)) + (-1 + 5 + O(5**4)) == 5 + O(5**4): one digit lost
    a = PadicNumber.approximate(5, 0, 1, 4)
    b = PadicNumber.approximate(5, 0, (-1 + 5) % 5 ** 4, 4)
    c = a + b
    assert c.v == 1
    assert c.N == 3
    assert c.u == 1


def test_mul_precision_and_valuation():
    a = PadicNumber.approximate(5, 2, 3, 4)
    b = PadicNumber.approximate(5, -1, 2, 6)
    c = a * b
    assert c.v == 1
    assert c.N == 4
    assert c.u == 6


def test_exact_times_capped_keeps_capped_precision():
    a = PadicNumber.from_rational(1, 3, 5)
    b = PadicNumber.approximate(5, 0, 2, 6)
    c = a * b
    assert c.N == 6
    assert not c.is_exact


def test_div_roundtrip():
    a = PadicNumber.approximate(5, 1, 7, 8)
    b = PadicNumber.approximate(5, -2, 3, 8)
    c = (a / b) * b
    assert agrees(c, a)
    assert c.v == a.v


def test_div_by_zeroish():
    z = PadicNumber.inexact_zero(5, 10)
    one = PadicNumber.from_int(1, 5)
    with pytest.raises(PrecisionError):
        one / z
    with pytest.raises(ZeroDivisionError):
        one / PadicNumber.exact_zero(5)


def test_exact_zero_absorbs():
    z = PadicNumber.exact_zero(5)
    a = PadicNumber.approximate(5, 0, 2, 6)
    assert (z * a).is_exact_zero
    assert (z / a).is_exact_zero
    assert (a + z) == a
    assert (z - a) == -a


def test_demotion_of_huge_rationals():
    big = 1 + (1 << 5000)
    x = PadicNumber.from_rational(big, 1, 5)
    assert not x.is_exact
    assert x.u == big % 5 ** DEFAULT_PRECISION
    assert x.v == 0


def test_demotion_keeps_valuation_exact():
    big = (1 + (1 << 5000)) * 5 ** 9
    x = PadicNumber.from_rational(big, 1, 5)
    assert x.v == 9
    assert not x.is_exact


def test_agrees_on_common_digits():
    a = PadicNumber.approximate(5, 0, 1 + 2 * 5 + 3 * 25, 3)
    b = PadicNumber.approximate(5, 0, 1 + 2 * 5 + 3 * 25 + 4 * 125, 4)
    c = PadicNumber.approximate(5, 0, 1 + 2 * 5 + 4 * 25, 3)
    assert agrees(a, b)
    assert not agrees(a, c)


def test_agrees_exact_vs_capped():
    x = PadicNumber.from_rational(-1, 4, 5)
    geom = PadicNumber.approximate(5, 0, sum(5 ** k for k in range(6)), 6)
    assert agrees(x, geom)
    off = PadicNumber.approximate(5, 0, 1 + sum(5 ** k for k in range(6)), 6)
    assert not agrees(x, off)


def test_agrees_zeroish():
    z = PadicNumber.inexact_zero(5, 3)
    assert agrees(z, PadicNumber.exact_zero(5))
    assert agrees(z, PadicNumber.approximate(5, 3, 2, 2))   # 2*5**3 is O(5**3)
    assert not agrees(z, PadicNumber.from_int(1, 5))


def test_json_roundtrip():
    x = PadicNumber.approximate(7, -2, 11, 9)
    y = PadicNumber.from_json(x.to_json(), 7)
    assert x == y
    z = PadicNumber.exact_zero(7)
    assert PadicNumber.from_json(z.to_json(), 7).is_exact_zero


def test_norm_exponent():
    x = PadicNumber.from_rational(1, 25, 5)
    assert norm_exponent(x) == 2
    assert norm_exponent(PadicNumber.exact_zero(5)) is None
    with pytest.raises(PrecisionError):
        norm_exponent(PadicNumber.inexact_zero(5, 4))
