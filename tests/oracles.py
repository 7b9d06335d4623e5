"""Reference values and comparisons the tests check padiff against.

None of these is on a CLI path: they are closed forms (Legendre's
formula, the hypergeometric coefficient valuations), a comparison
relation that reads only the digits both sides claim, and small
constructors and predicates the tests build their inputs with.
"""

import math
from fractions import Fraction

from padiff.corpus import _capped
from padiff.linalg import SeriesMatrix
from padiff.padic import DEFAULT_PRECISION, PadicNumber, PrecisionError
from padiff.series import TruncatedSeries


def factorial_valuation(s: int, p: int) -> int:
    """v_p(s!) by summing floor(s / p**k)."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    total = 0
    q = s
    while q:
        q //= p
        total += q
    return total


def digit_sum(s: int, p: int) -> int:
    total = 0
    while s:
        total += s % p
        s //= p
    return total


def norm_exponent(x: PadicNumber) -> Fraction | None:
    """log_p of the norm: -v as a Fraction, None for the exact zero."""
    if x.is_exact_zero:
        return None
    if x.u == 0:
        raise PrecisionError("norm of an inexact zero is only bounded")
    return Fraction(-x.v)


def hypergeom_valuation_oracle(k: int, p: int) -> int:
    """v_p of the k-th coefficient of sum_k (C(2k,k)/4**k)**2 t**k via
    Legendre's formula (odd p)."""
    return 2 * (factorial_valuation(2 * k, p) - 2 * factorial_valuation(k, p))


def hypergeom_series_capped(p: int, order: int) -> list[PadicNumber]:
    """The same coefficients in capped arithmetic, O(1) per step.

    Valuations stay exact under capped multiplication, which is what the
    long-window growth measurements need.
    """
    a = PadicNumber.approximate(p, 0, 1, DEFAULT_PRECISION)
    out = [a]
    for k in range(order):
        a = a * _capped(Fraction((2 * k + 1) ** 2, (2 * k + 2) ** 2), p, DEFAULT_PRECISION)
        out.append(a)
    return out


def agrees(x, y) -> bool:
    """Do x and y agree on every digit both of them claim?

    PadicNumbers compare on their common absolute precision; series
    coefficient by coefficient on the common window, and two polynomials
    also past it; matrices entry by entry, of the same shape.
    """
    if isinstance(x, SeriesMatrix):
        return x.shape == y.shape and all(agrees(a, b) for ra, rb in zip(x.entries, y.entries)
                                          for a, b in zip(ra, rb))
    if isinstance(x, TruncatedSeries):
        hi = min(x.order, y.order)
        if not all(agrees(x.coeffs[i], y.coeffs[i]) for i in range(hi + 1)):
            return False
        if x.tail_exact and y.tail_exact:
            longer = x if x.order > y.order else y
            return all(c.is_exact_zero for c in longer.coeffs[hi + 1:])
        return True
    if x.p != y.p:
        return False
    common = min(x.abs_prec, y.abs_prec)
    if common == math.inf:
        return x.exact == y.exact
    common = int(common)
    base = min(x.val_lower_bound(), y.val_lower_bound(), common)
    if base == math.inf:
        return True
    base = int(base)
    k = common - base
    if k <= 0:
        return True
    return x.residue(base, k) == y.residue(base, k)


def monomial(p: int, k: int) -> TruncatedSeries:
    """The polynomial t**k."""
    coeffs = [PadicNumber.exact_zero(p) for _ in range(k + 1)]
    coeffs[k] = PadicNumber.from_int(1, p)
    return TruncatedSeries(p, coeffs, True)


def is_zero(A: SeriesMatrix) -> bool:
    """Every known coefficient of every entry is exactly zero."""
    return all(c.is_zero_series() for row in A.entries for c in row)


def precision_oracle(a: list[PadicNumber], b: list[PadicNumber], hi: int,
                     lo: int = 0) -> list:
    """A_k of the product a*b for k = 0..hi by its definition, math.inf
    below lo: the min over the pairs (i, k - i) of
    min(abs_prec(x) + v(y), v(x) + abs_prec(y)), v infinite on the exact
    zero; math.inf when no pair reaches k."""
    out = [math.inf] * lo
    for k in range(lo, hi + 1):
        best = math.inf
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            x, y = a[i], b[k - i]
            best = min(best, x.abs_prec + y.val_lower_bound(),
                       x.val_lower_bound() + y.abs_prec)
        out.append(best)
    return out


def fold_oracle(z: PadicNumber, pairs: list[PadicNumber], sign: int) -> PadicNumber:
    """z + x * y (z - x * y when sign is -1) over the pairs [x, y, x, y, ...]
    in order, one PadicNumber operation at a time."""
    for x, y in zip(pairs[0::2], pairs[1::2]):
        z = z + x * y if sign > 0 else z - x * y
    return z
