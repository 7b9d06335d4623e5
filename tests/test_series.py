from fractions import Fraction

import pytest

from oracles import agrees, monomial
from padiff.diffmod import growth_order
from padiff.padic import PadicNumber, PrecisionError
from padiff.pipeline import _sup_settled
from padiff.series import TruncatedSeries


def S(p, values, tail_exact=True):
    return TruncatedSeries.from_rationals(p, values, tail_exact)


def test_poly_product_is_exact():
    x = S(5, [1, 1])
    y = S(5, [1, -1])
    z = x * y
    assert z.tail_exact
    assert z.order == 2
    assert z.coeffs[0].exact == 1
    assert z.coeffs[1].is_exact_zero
    assert z.coeffs[2].exact == -1


def test_window_shrinks_to_min():
    x = S(5, [1, 2, 3, 4], tail_exact=False)       # known through t**3
    y = S(5, [1, 1, 1, 1, 1, 1], tail_exact=False) # known through t**5
    z = x * y
    assert not z.tail_exact
    assert z.order == 3
    w = x + y
    assert w.order == 3 and not w.tail_exact


def test_poly_times_window_keeps_window():
    x = S(5, [0, 1])                                # t, exact
    y = S(5, [1, 1, 1, 1], tail_exact=False)
    z = x * y
    assert z.order == 3 and not z.tail_exact
    assert z.coeffs[0].is_exact_zero
    assert z.coeffs[3].exact == 1


def test_invert_geometric():
    x = S(5, [1, -1])
    inv = x.invert(order=10)
    assert all(c.exact == 1 for c in inv.coeffs)
    assert not inv.tail_exact
    prod = (x * inv).truncate(10)
    assert prod.coeffs[0].exact == 1
    assert all(c.is_exact_zero for c in prod.coeffs[1:])


def test_invert_constant_is_exact():
    x = S(5, [3])
    inv = x.invert(order=4)
    assert inv.tail_exact
    assert inv.coeffs[0].exact == Fraction(1, 3)


def test_invert_requires_unit():
    with pytest.raises(ZeroDivisionError):
        S(5, [0, 1]).invert()
    bad = TruncatedSeries(5, [PadicNumber.inexact_zero(5, 6), PadicNumber.from_int(1, 5)])
    with pytest.raises(PrecisionError):
        bad.invert()


def test_divide_cancels_common_t_power():
    # (t**2 + t**3) / (t + t**2) == t
    num = S(5, [0, 0, 1, 1])
    den = S(5, [0, 1, 1])
    q = num.divide(den, order=3)
    assert q.coeffs[1].exact == 1
    assert q.coeffs[0].is_exact_zero
    assert all(c.is_exact_zero or c.exact == 0 for i, c in enumerate(q.coeffs) if i != 1)


def test_divide_by_monomial_preserves_exactness():
    num = S(5, [0, 0, 3, 7])
    den = monomial(5, 2)
    q = num.divide(den)
    assert q.tail_exact
    assert [c.exact for c in q.coeffs] == [3, 7]


def test_divide_rejects_nondivisible():
    num = S(5, [1, 1])
    den = S(5, [0, 1])
    with pytest.raises(ValueError):
        num.divide(den)


def test_derive_polynomial():
    x = S(5, [1, 2, 3])
    dx = x.derive()
    assert dx.tail_exact
    assert [c.exact for c in dx.coeffs] == [2, 6]


def test_derive_window_loses_one_index():
    x = S(5, [1, 2, 3, 4], tail_exact=False)
    dx = x.derive()
    assert dx.order == 2 and not dx.tail_exact
    assert [c.exact for c in dx.coeffs] == [2, 6, 12]


def test_gauss_norm_values():
    # 1/5 + t**2 at rho = 5**(-1/2): max(1, -1) attained by the constant term
    x = S(5, [(1, 5), 0, 1])
    g = x.gauss_norm(Fraction(1, 2))
    assert g.exponent == 1
    assert not g.boundary and not g.indeterminate
    # 1 + 5**-3 t**4 at rho = 5**(-1/2): 3 - 2 == 1 beats 0
    y = S(5, [1, 0, 0, 0, (1, 125)])
    h = y.gauss_norm(Fraction(1, 2))
    assert h.exponent == 1
    assert y.gauss_norm(Fraction(1)).exponent == 0


def test_gauss_norm_boundary_flag():
    x = S(5, [1, 1, 1], tail_exact=False)
    g = x.gauss_norm(Fraction(0))
    assert not g.boundary
    y = S(5, [1, (1, 5), (1, 25)], tail_exact=False)
    h = y.gauss_norm(Fraction(0))
    assert h.boundary


def test_gauss_norm_indeterminate_flag():
    big_unknown = PadicNumber.inexact_zero(5, -4)   # only known to be O(5**-4)
    x = TruncatedSeries(5, [PadicNumber.from_int(1, 5), big_unknown])
    g = x.gauss_norm(Fraction(0))
    assert g.exponent == 0
    assert g.indeterminate
    small_unknown = PadicNumber.inexact_zero(5, 9)
    y = TruncatedSeries(5, [PadicNumber.from_int(1, 5), small_unknown])
    assert not y.gauss_norm(Fraction(0)).indeterminate


def test_t_order_ambiguity():
    z = PadicNumber.inexact_zero(5, 8)
    x = TruncatedSeries(5, [z, PadicNumber.from_int(2, 5)])
    k, ambiguous = x.t_order_info()
    assert k == 1 and ambiguous
    with pytest.raises(PrecisionError):
        x.t_order()
    y = S(5, [0, 0, 7])
    assert y.t_order() == 2


def test_growth_profile_reciprocal_integers():
    # coefficients 1/i: the log-growth estimate approaches 1 near i = 5**3
    vals = [0] + [(1, i) for i in range(1, 131)]
    x = S(5, vals)
    prof = growth_order([x], 130, start=0)
    assert prof.lam == Fraction(1, 5)
    assert 0.98 < prof.value < 1.0
    assert prof.attained == (0, 125)


def test_growth_profile_integral_coeffs():
    x = S(5, [1, 5, 25, 1, 1])
    prof = growth_order([x], 4, start=0)
    assert prof.lam == 0
    assert prof.value == 0.0


def test_fil_membership():
    assert _sup_settled(S(5, [1, 1, 1, 1]), 0.0)
    # window series with the sup at the edge cannot be certified
    assert not _sup_settled(S(5, [25, 5, 1], tail_exact=False), 0.0)
    assert _sup_settled(S(5, [25, 5, 1]), 0.0)


def test_agrees():
    x = S(5, [1, 2, 3], tail_exact=False)
    y = S(5, [1, 2, 3, 4], tail_exact=False)
    assert agrees(x, y)
    z = S(5, [1, 2, 4], tail_exact=False)
    assert not agrees(x, z)
    a = S(5, [1, 2])
    b = S(5, [1, 2, 0, 0])
    assert agrees(a, b)
    c = S(5, [1, 2, 0, 1])
    assert not agrees(a, c)


def test_truncate_and_pad():
    x = S(5, [1, 2])
    y = S(5, [0, 0, 1, 2])
    t = y.truncate(1)
    assert t.order == 1 and not t.tail_exact
    padded = x.pad_to(4)
    assert padded.order == 4 and padded.coeffs[4].is_exact_zero
