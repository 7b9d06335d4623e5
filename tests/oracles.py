"""Reference values and comparisons the tests check padiff against.

None of these is on a CLI path: they are closed forms (Legendre's
formula, the hypergeometric coefficient valuations), a comparison
relation that reads only the digits both sides claim, the pairwise
definitions the kernels' shortcuts must reproduce, and small
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


def abs_prec(x: PadicNumber):
    """Absolute precision exponent; math.inf for exactly known values."""
    return math.inf if x.exact is not None else x.v + x.N


def val_lower_bound(x: PadicNumber):
    """A sound lower bound on the valuation (math.inf for the exact zero)."""
    return math.inf if x.is_exact_zero else x.v


def residue(x: PadicNumber, base_v: int, k: int) -> int:
    """The integer (x * p**-base_v) mod p**k; requires v >= base_v."""
    if k <= 0 or x.u == 0:
        return 0
    if x.v < base_v:
        raise ValueError("residue requested below the valuation")
    pk = x.p ** k
    u = x.u if x.exact is None else x._unit_to(k)
    return u * pow(x.p, x.v - base_v, pk) % pk


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
    common = min(abs_prec(x), abs_prec(y))
    if common == math.inf:
        return x.exact == y.exact
    base = min(val_lower_bound(x), val_lower_bound(y), common)
    if base == math.inf:
        return True
    k = common - base
    if k <= 0:
        return True
    return residue(x, base, k) == residue(y, base, k)


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
            best = min(best, abs_prec(x) + val_lower_bound(y),
                       val_lower_bound(x) + abs_prec(y))
        out.append(best)
    return out


def add_oracle(x: PadicNumber, y: PadicNumber, sign: int) -> PadicNumber:
    """x + y (x - y when sign is -1) by the two-term rule: exact zeros
    drop out, two exact values add as rationals, and otherwise the sum
    is known to the least absolute precision a of the two, read from the
    residues of both at their least valuation."""
    p = x.p
    if x.is_exact_zero:
        return y if sign > 0 else -y
    if y.is_exact_zero:
        return x
    if x.exact is not None and y.exact is not None:
        q = x.exact + y.exact if sign > 0 else x.exact - y.exact
        return PadicNumber.from_rational(q.numerator, q.denominator, p)
    a = min(abs_prec(x), abs_prec(y))
    base = min(x.v, y.v)
    k = a - base
    if k <= 0:
        return PadicNumber.inexact_zero(p, a)
    w = (residue(x, base, k) + sign * residue(y, base, k)) % p ** k
    if w == 0:
        return PadicNumber.inexact_zero(p, a)
    j = 0
    while w % p ** (j + 1) == 0:
        j += 1
    return PadicNumber(p, base + j, w // p ** j, k - j)


def fold_oracle(z: PadicNumber, pairs: list[PadicNumber], sign: int) -> PadicNumber:
    """z + x * y (z - x * y when sign is -1) over the pairs [x, y, x, y, ...]
    in order, one add_oracle at a time."""
    for x, y in zip(pairs[0::2], pairs[1::2]):
        z = add_oracle(z, x * y, sign)
    return z
