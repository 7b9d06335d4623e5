from fractions import Fraction

import pytest

from padiff.linalg import (
    NoSolutionError,
    SeriesMatrix,
    field_kernel,
    field_solve,
    kernel_basis,
    smith_normal_form,
)
from padiff.padic import PadicNumber, PrecisionError
from padiff.series import TruncatedSeries


def num(q, p=5):
    f = Fraction(q)
    return PadicNumber.from_rational(f.numerator, f.denominator, p)


def M(rows, p=5):
    return SeriesMatrix.from_rational_rows(p, rows)


# ----------------------------------------------------------------------
# field layer


def test_field_solve_2x2():
    # x + 2y = 5, 3x + 4y = 11  ->  x = 1, y = 2
    A = [[num(1), num(2)], [num(3), num(4)]]
    x = field_solve(A, [num(5), num(11)], 5)
    assert x[0].exact == 1 and x[1].exact == 2


def test_field_solve_inconsistent():
    A = [[num(1), num(1)], [num(2), num(2)]]
    with pytest.raises(NoSolutionError):
        field_solve(A, [num(1), num(3)], 5)


def test_field_kernel():
    A = [[num(1), num(2), num(3)]]
    basis = field_kernel(A, 5)
    assert len(basis) == 2
    for vec in basis:
        acc = PadicNumber.exact_zero(5)
        for a, v in zip(A[0], vec):
            acc = acc + a * v
        assert acc.is_exact_zero


def test_field_kernel_trivial():
    A = [[num(1), num(0)], [num(0), num(1)]]
    assert field_kernel(A, 5) == []


def test_field_rank_ambiguity_raises():
    fuzz = PadicNumber.inexact_zero(5, 12)
    A = [[fuzz]]
    with pytest.raises(PrecisionError):
        field_solve(A, [num(1)], 5)


def test_field_pivot_picks_largest_norm():
    # the 1/5 entry must be chosen before the 5 entry to avoid precision loss
    A = [[num(5), num(1)], [num(Fraction(1, 5)), num(1)]]
    x = field_solve(A, [num(6), num(Fraction(6, 5))], 5)
    assert x[0].agrees(num(1)) and x[1].agrees(num(1))


# ----------------------------------------------------------------------
# series matrices


def test_matmul_and_matvec():
    A = M([[[0, 1], [1]], [[2], [0, 0, 1]]])      # [[t, 1], [2, t**2]]
    I = SeriesMatrix.identity(5, 2)
    assert (A @ I).agrees(A)
    v = [TruncatedSeries.one(5), TruncatedSeries.monomial(5, 1)]
    out = A.matvec(v)                              # (t + t, 2 + t**3)
    assert out[0].coeffs[1].exact == 2
    assert out[1].coeffs[0].exact == 2 and out[1].coeffs[3].exact == 1


def test_det_and_minor():
    A = M([[[1], [0, 1]], [[0, -1], [1]]])        # [[1, t], [-t, 1]] det 1 + t**2
    d = A.det()
    assert d.coeffs[0].exact == 1 and d.coeffs[2].exact == 1
    assert A.minor((0,), (1,)).coeffs[1].exact == 1


def test_transpose_derive():
    A = M([[[0, 1], [3]], [[0, 0, 2], [0]]])
    At = A.transpose()
    assert At.entry(0, 1).coeffs[2].exact == 2
    dA = A.derive()
    assert dA.entry(0, 0).coeffs[0].exact == 1
    assert dA.entry(1, 0).coeffs[1].exact == 4


# ----------------------------------------------------------------------
# Smith normal form


def check_reconstruction(A, dec):
    m, n = A.shape
    left = dec.U @ A @ dec.V
    D = dec.diagonal_matrix(m, n)
    assert left.truncate(dec.valid_order).agrees(D.truncate(dec.valid_order))


def test_snf_diagonal_already():
    A = M([[[0, 1], [0]], [[0], [0, 0, 1]]])      # diag(t, t**2)
    dec = smith_normal_form(A, working_order=8)
    assert dec.exponents == [1, 2]
    assert dec.certified
    check_reconstruction(A, dec)


def test_snf_unit_corner():
    # [[1 + t, t], [t**2, t**3]]: one unit pivot, then a t**3-ish block
    A = M([[[1, 1], [0, 1]], [[0, 0, 1], [0, 0, 0, 1]]])
    dec = smith_normal_form(A, working_order=12)
    assert dec.exponents[0] == 0
    assert dec.rank >= 1
    check_reconstruction(A, dec)


def test_snf_rank_deficient():
    # second row is t times the first: rank 1
    A = M([[[1], [0, 1]], [[0, 1], [0, 0, 1]]])
    dec = smith_normal_form(A, working_order=10)
    assert dec.exponents == [0, None]
    assert dec.certified
    check_reconstruction(A, dec)


def test_snf_divisor_chain():
    A = M([[[0, 2], [0, 1]], [[0, 1], [0, 3]]])   # all entries order-1
    dec = smith_normal_form(A, working_order=10)
    es = [e for e in dec.exponents if e is not None]
    assert es == sorted(es)
    assert es[0] == 1
    check_reconstruction(A, dec)


def test_snf_wide_matrix():
    A = M([[[1], [0, 1], [0, 0, 1]]])
    dec = smith_normal_form(A, working_order=9)
    assert dec.exponents == [0]
    check_reconstruction(A, dec)


def test_kernel_basis_annihilates():
    # kernel of [1, t, t**2] over the series ring has rank 2
    A = M([[[1], [0, 1], [0, 0, 1]]])
    basis = kernel_basis(A, working_order=9)
    assert len(basis) == 2
    for vec in basis:
        out = A.matvec(vec)
        assert all(c.is_zero_series() or c.t_order_info()[0] is None for c in out)


def test_kernel_basis_normalized_leading_one():
    A = M([[[1], [0, 1], [0, 0, 1]]])
    for vec in kernel_basis(A, working_order=9):
        orders = [c.t_order_info()[0] for c in vec if c.t_order_info()[0] is not None]
        k = min(orders)
        lead = [c for c in vec if c.t_order_info()[0] == k][0]
        assert lead.coeffs[k].exact == 1


def test_snf_uncertified_on_fuzzy_block():
    fuzz = TruncatedSeries(5, [PadicNumber.inexact_zero(5, 10)])
    one = TruncatedSeries.one(5)
    A = SeriesMatrix(5, [[one, TruncatedSeries.zero(5)],
                         [TruncatedSeries.zero(5), fuzz]])
    dec = smith_normal_form(A, working_order=6)
    assert not dec.certified
    assert dec.exponents == [0, None]
