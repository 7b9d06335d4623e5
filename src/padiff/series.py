"""Truncated power series over Q_p with per-coefficient precision.

A ``TruncatedSeries`` stores coefficients 0..order.  ``tail_exact`` means
the value is a genuine polynomial: every later coefficient is exactly
zero.  Otherwise nothing is known past ``order`` and every operation
must shrink its output window accordingly.

All radius and norm bookkeeping is done on logarithmic scale with exact
``Fraction`` exponents: a radius is written p**(-r) and only r is ever
stored, so corpus-level radius identities can be checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from padiff.padic import DEFAULT_PRECISION, PadicNumber, PrecisionError, vp_int


@dataclass(frozen=True)
class GaussNorm:
    """Result of a Gauss norm evaluation at radius p**(-r).

    exponent      -- log_p of the norm, None when the series is exactly 0
    attained_at   -- least index where the max is attained
    boundary      -- max sits at the truncation edge of an inexact tail,
                     so the true norm may be larger
    indeterminate -- an undetermined coefficient could beat the max
    """

    exponent: Fraction | None
    attained_at: int | None
    boundary: bool
    indeterminate: bool


@dataclass(frozen=True)
class GrowthProfile:
    """Coefficient growth estimates over an index window.

    lam        -- max of -v(a_i)/i, the linear growth rate in log_p units;
                  None when no determinate nonzero coefficient was seen
    delta_hat  -- max of (-v(a_i) * ln p) / ln(i + 1), clamped at 0; this
                  estimates the log-growth order
    """

    lam: Fraction | None
    delta_hat: float
    lam_attained: int | None
    delta_attained: int | None
    indeterminate: bool


@dataclass(frozen=True)
class FilVerdict:
    """Membership test for the log-growth filtration step delta."""

    verdict: str          # "holds" | "fails" | "inconclusive"
    log_sup: float
    attained_at: int | None


class TruncatedSeries:
    __slots__ = ("p", "coeffs", "tail_exact")

    def __init__(self, p: int, coeffs: list[PadicNumber], tail_exact: bool = False):
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self.p = p
        self.coeffs = coeffs
        self.tail_exact = tail_exact

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_rationals(cls, p: int, values, tail_exact: bool = True,
                       N: int = DEFAULT_PRECISION) -> "TruncatedSeries":
        """Build from ints, Fractions or (num, den) pairs."""
        coeffs = []
        for val in values:
            if isinstance(val, tuple):
                coeffs.append(PadicNumber.from_rational(val[0], val[1], p, N))
            else:
                q = Fraction(val)
                coeffs.append(PadicNumber.from_rational(q.numerator, q.denominator, p, N))
        if not coeffs:
            coeffs = [PadicNumber.exact_zero(p)]
        return cls(p, coeffs, tail_exact)

    @classmethod
    def zero(cls, p: int, order: int = 0, tail_exact: bool = True) -> "TruncatedSeries":
        return cls(p, [PadicNumber.exact_zero(p) for _ in range(order + 1)], tail_exact)

    @classmethod
    def one(cls, p: int) -> "TruncatedSeries":
        return cls(p, [PadicNumber.from_int(1, p)], True)

    @classmethod
    def constant(cls, value: PadicNumber) -> "TruncatedSeries":
        return cls(value.p, [value], True)

    @classmethod
    def monomial(cls, p: int, k: int, coeff: int = 1) -> "TruncatedSeries":
        coeffs = [PadicNumber.exact_zero(p) for _ in range(k + 1)]
        coeffs[k] = PadicNumber.from_int(coeff, p)
        return cls(p, coeffs, True)

    # ------------------------------------------------------------------
    # views

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> PadicNumber:
        if i < 0:
            raise IndexError("negative coefficient index")
        if i <= self.order:
            return self.coeffs[i]
        if self.tail_exact:
            return PadicNumber.exact_zero(self.p)
        raise IndexError("coefficient %d beyond the known window %d" % (i, self.order))

    def is_zero_series(self) -> bool:
        """All known coefficients are exactly zero."""
        return all(c.is_exact_zero for c in self.coeffs)

    def t_order_info(self) -> tuple[int | None, bool]:
        """(first determinate nonzero index, ambiguity flag).

        The flag is set when an undetermined coefficient sits at or below
        the reported index, so the true order of vanishing might differ.
        """
        ambiguous = False
        for i, c in enumerate(self.coeffs):
            if c.is_exact_zero:
                continue
            if c.u == 0:
                ambiguous = True
                continue
            return i, ambiguous
        if self.tail_exact and not ambiguous:
            return None, False
        return None, True

    def t_order(self) -> int:
        k, ambiguous = self.t_order_info()
        if ambiguous:
            raise PrecisionError("order of vanishing in t is ambiguous")
        if k is None:
            raise ValueError("zero series has no finite order of vanishing")
        return k

    def agrees(self, other: "TruncatedSeries") -> bool:
        hi = min(self.order, other.order)
        if not all(self.coeffs[i].agrees(other.coeffs[i]) for i in range(hi + 1)):
            return False
        if self.tail_exact and other.tail_exact:
            longer = self if self.order > other.order else other
            return all(c.is_exact_zero for c in longer.coeffs[hi + 1:])
        return True

    # ------------------------------------------------------------------
    # shaping

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self.pad_to(order)
        return TruncatedSeries(self.p, self.coeffs[:order + 1], False)

    def pad_to(self, order: int) -> "TruncatedSeries":
        if order <= self.order:
            return self
        if not self.tail_exact:
            raise ValueError("cannot extend an inexact tail")
        zero = PadicNumber.exact_zero(self.p)
        return TruncatedSeries(self.p, self.coeffs + [zero] * (order - self.order), True)

    # ------------------------------------------------------------------
    # ring operations

    def _common_window(self, other: "TruncatedSeries") -> int | None:
        if self.tail_exact and other.tail_exact:
            return None
        if self.tail_exact:
            return other.order
        if other.tail_exact:
            return self.order
        return min(self.order, other.order)

    def _addsub(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        if self.p != other.p:
            raise ValueError("mixed primes")
        w = self._common_window(other)
        a, b = self.coeffs, other.coeffs
        if w is not None:
            a, b = a[:w + 1], b[:w + 1]
        # past the shorter operand the other side is an exact zero
        # (a tail_exact pad), and x +- 0 is x while 0 - y is -y
        if sign > 0:
            out = [x + y for x, y in zip(a, b)]
            out += a[len(b):] or b[len(a):]
        else:
            out = [x - y for x, y in zip(a, b)]
            out += a[len(b):] or [-y for y in b[len(a):]]
        return TruncatedSeries(self.p, out, w is None)

    def __add__(self, other):
        return self._addsub(other, 1)

    def __sub__(self, other):
        return self._addsub(other, -1)

    def __neg__(self):
        return TruncatedSeries(self.p, [-c for c in self.coeffs], self.tail_exact)

    def scale(self, c: PadicNumber) -> "TruncatedSeries":
        return TruncatedSeries(self.p, [c * x for x in self.coeffs], self.tail_exact)

    def __mul__(self, other):
        if self.p != other.p:
            raise ValueError("mixed primes")
        w = self._common_window(other)
        hi = self.order + other.order if w is None else w
        zero = PadicNumber.exact_zero(self.p)
        out = [zero] * (hi + 1)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if not b.is_exact_zero]
        for i, a in enumerate(self.coeffs):
            if a.is_exact_zero:
                continue
            jmax = hi - i
            for j, b in terms:
                if j > jmax:
                    break
                out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.p, out, w is None)

    def derive(self) -> "TruncatedSeries":
        """d/dt; an inexact tail costs one index of window."""
        if self.order == 0:
            if self.tail_exact:
                return TruncatedSeries.zero(self.p)
            raise ValueError("window too small to differentiate")
        p = self.p
        out = []
        for i in range(1, self.order + 1):
            c = self.coeffs[i]
            if c.is_exact_zero:
                out.append(c)
            elif c.exact is not None:
                # what from_int(i) * c gives, without building from_int(i)
                out.append(PadicNumber._from_exact(c.exact * i, p,
                                                   min(DEFAULT_PRECISION, c.N),
                                                   c.v + vp_int(i, p)))
            else:
                out.append(PadicNumber.from_int(i, p) * c)
        return TruncatedSeries(p, out, self.tail_exact)

    def invert(self, order: int | None = None) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be determinate."""
        c0 = self.coeffs[0]
        if c0.is_exact_zero:
            raise ZeroDivisionError("inverting a series divisible by t")
        if c0.u == 0:
            raise PrecisionError("constant term indistinguishable from zero")
        if order is None:
            order = self.order
        if not self.tail_exact and order > self.order:
            raise ValueError("requested order exceeds the known window")
        if self.tail_exact and all(c.is_exact_zero for c in self.coeffs[1:]):
            inv = PadicNumber.from_int(1, self.p) / c0
            return TruncatedSeries.constant(inv).pad_to(order)
        one = PadicNumber.from_int(1, self.p)
        inv0 = one / c0
        out = [inv0]
        for n in range(1, order + 1):
            acc = PadicNumber.exact_zero(self.p)
            for k in range(1, min(n, self.order) + 1):
                a = self.coeffs[k]
                if a.is_exact_zero:
                    continue
                acc = acc + a * out[n - k]
            out.append(-(inv0 * acc))
        return TruncatedSeries(self.p, out, False)

    def divide(self, other: "TruncatedSeries", order: int | None = None) -> "TruncatedSeries":
        """Quotient in the power series ring.

        The divisor's order of vanishing k must be determinate and the
        first k coefficients here must not be determinately nonzero.
        Undetermined small coefficients below k are dropped; the drop is
        within their stated precision.
        """
        k = other.t_order()
        for i in range(min(k, self.order + 1)):
            if not self.coeffs[i].is_exact_zero and self.coeffs[i].u != 0:
                raise ValueError("not divisible: coefficient %d survives below t**%d" % (i, k))
        if self.order < k:
            if self.tail_exact:
                return TruncatedSeries.zero(self.p)
            raise ValueError("window too small for the shift")
        num = TruncatedSeries(self.p, self.coeffs[k:], self.tail_exact)
        den = TruncatedSeries(other.p, other.coeffs[k:], other.tail_exact)
        if den.tail_exact and all(c.is_exact_zero for c in den.coeffs[1:]):
            # monomial divisor: a pure shift and scale, exactness survives
            inv = PadicNumber.from_int(1, self.p) / den.coeffs[0]
            out = num.scale(inv)
            return out if order is None else out.truncate(order)
        w = num._common_window(den)
        if order is None:
            order = num.order if w is None else w
        elif w is not None and order > w:
            raise ValueError("requested order exceeds the known window")
        d0 = den.coeffs[0]
        out: list[PadicNumber] = []
        for n in range(order + 1):
            acc = num.coefficient(n)
            for j in range(max(n - den.order, 0), n):
                b = den.coeffs[n - j]
                if b.is_exact_zero or out[j].is_exact_zero:
                    continue
                acc = acc - b * out[j]
            out.append(acc / d0)
        return TruncatedSeries(self.p, out, False)

    # ------------------------------------------------------------------
    # norms and growth

    def gauss_norm(self, r: Fraction) -> GaussNorm:
        """sup norm on the closed disc of radius p**(-r), r >= 0."""
        r = Fraction(r)
        if r < 0:
            raise ValueError("radius exponent must be >= 0")
        # with r = a/b every exponent -v - r*i is key/b for the integer
        # key -v*b - a*i, so the scan compares integers only
        a, b = r.numerator, r.denominator
        best = None
        attained = None
        pending = None          # largest key of an inexact zero
        for i, c in enumerate(self.coeffs):
            if c.u:
                key = -c.v * b - a * i
                if best is None or key > best:
                    best = key
                    attained = i
            elif c.exact is None:
                key = -c.v * b - a * i
                if pending is None or key > pending:
                    pending = key
        indeterminate = pending is not None and (best is None or pending > best)
        boundary = (not self.tail_exact) and attained == self.order
        return GaussNorm(None if best is None else Fraction(best, b), attained,
                         boundary, indeterminate)

    def growth_profile(self, lo: int, hi: int) -> GrowthProfile:
        """Growth estimates from coefficients lo..hi (indices >= 1 only)."""
        hi = min(hi, self.order)
        lo = max(lo, 1)
        lam = None
        lam_at = None
        delta = 0.0
        delta_at = None
        indeterminate = False
        lnp = math.log(self.p)
        for i in range(lo, hi + 1):
            c = self.coeffs[i]
            if c.is_exact_zero:
                continue
            if c.u == 0:
                if -c.v > 0:
                    indeterminate = True
                continue
            li = Fraction(-c.v, i)
            if lam is None or li > lam:
                lam = li
                lam_at = i
            di = (-c.v) * lnp / math.log(i + 1)
            if di > delta:
                delta = di
                delta_at = i
        return GrowthProfile(lam, delta, lam_at, delta_at, indeterminate)

    def fil_membership(self, delta: float, bound: float, hi: int | None = None,
                       stable_frac: float = 0.75) -> FilVerdict:
        """Is sup_i (|a_i| / (i+1)**delta) <= p**bound, judged on the window?

        "fails" is definitive; "holds" additionally requires the sup to be
        attained early enough that the tail cannot plausibly flip it.
        """
        if hi is None:
            hi = self.order
        hi = min(hi, self.order)
        lnp = math.log(self.p)
        sup = float("-inf")
        attained = None
        for i in range(hi + 1):
            c = self.coeffs[i]
            if c.is_exact_zero or c.u == 0:
                continue
            val = (-c.v) * lnp - delta * math.log(i + 1)
            if val > sup:
                sup = val
                attained = i
        if attained is None:
            return FilVerdict("holds", float("-inf"), None)
        if sup > bound * lnp + 1e-9:
            return FilVerdict("fails", sup, attained)
        if self.tail_exact or attained <= stable_frac * hi:
            return FilVerdict("holds", sup, attained)
        return FilVerdict("inconclusive", sup, attained)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.p == other.p and self.tail_exact == other.tail_exact
                and self.coeffs == other.coeffs)

    def __repr__(self):
        shown = []
        for i, c in enumerate(self.coeffs):
            if c.is_exact_zero:
                continue
            shown.append("(%r)*t^%d" % (c, i))
            if len(shown) == 4:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        tail = "" if self.tail_exact else " + O(t^%d)" % (self.order + 1)
        return "<series %s%s>" % (body, tail)
