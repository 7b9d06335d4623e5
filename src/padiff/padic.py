"""Capped-precision arithmetic in Q_p with exact-value tracking.

A value is stored either as an exact rational (so cancellation can be
recognised structurally) or in capped form ``u * p**v + O(p**(v+N))``
with ``u`` a unit modulo ``p**N``.  An exact value has no precision of
its own: it caches its unit to DEFAULT_PRECISION digits, whatever
produced it, and expands more digits from the rational on demand.  Exact
rationals whose numerator or denominator outgrows a size budget are
demoted to capped form, keeping those digits; the valuation stays exact
under demotion, only trailing digits are dropped.

A sum with a capped or inexact-zero term is the true sum to the least
absolute precision among its terms, in any order.  capped_sum is that
rule, for two terms (PadicNumber addition) or many (the series kernels),
and approximate is the one normaliser of a residue into v, unit and N.
"""

from __future__ import annotations

from fractions import Fraction

DEFAULT_PRECISION = 48

# exact rationals larger than this (in bits) are demoted to capped form
DEMOTE_BITS = 4096

class PrecisionError(ArithmeticError):
    """A result was requested beyond the precision the inputs justify."""


def vp_int(n: int, p: int) -> int:
    """Valuation of a nonzero integer: the exact power of p dividing n."""
    if n == 0:
        raise ValueError("valuation of 0 is +inf")
    n = abs(n)
    v = 0
    # peel large blocks first; keeps this cheap for big inputs
    pk = p * p * p * p
    while n % pk == 0:
        n //= pk
        v += 4
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_fraction(q: Fraction, p: int) -> int:
    if q == 0:
        raise ValueError("valuation of 0 is +inf")
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def unit_digits(num: int, den: int, p: int, v: int, k: int) -> int:
    """The unit of the nonzero rational num/den, of valuation v, mod p**k."""
    if v > 0:
        num //= p ** v
    elif v < 0:
        den //= p ** (-v)
    pk = p ** k
    return num % pk * pow(den, -1, pk) % pk


class PadicNumber:
    """An element of Q_p known to finite (or exact) precision.

    Slots:
      p      -- the prime
      v      -- valuation (for an inexact zero: lower bound only)
      u      -- unit part, 0 <= u < p**N and coprime to p; u == 0 iff no
                digits are known (inexact zero, N == 0)
      N      -- relative precision in p-adic digits; for an exact nonzero
                value, and for one demoted from exact, DEFAULT_PRECISION
                digits of the rational, whatever produced it
      exact  -- the exact rational value when it is tracked, else None;
                exact == 0 marks the exact zero
    """

    __slots__ = ("p", "v", "u", "N", "exact")

    def __init__(self, p: int, v: int, u: int, N: int, exact: Fraction | None = None):
        self.p = p
        self.v = v
        self.u = u
        self.N = N
        self.exact = exact

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def from_rational(cls, numerator: int, denominator: int, p: int) -> "PadicNumber":
        """The exact value numerator/denominator.

        The rational value itself is retained (until it outgrows the
        size budget), so sums that cancel exactly yield the exact zero.
        """
        if denominator == 0:
            raise ZeroDivisionError("rational with zero denominator")
        if p < 2:
            raise ValueError("p must be a prime >= 2")
        return cls._from_exact(Fraction(numerator, denominator), p)

    @classmethod
    def from_int(cls, n: int, p: int) -> "PadicNumber":
        return cls._from_exact(Fraction(n), p)

    @classmethod
    def exact_zero(cls, p: int) -> "PadicNumber":
        return cls(p, 0, 0, 0, _ZERO)

    @classmethod
    def approximate(cls, p: int, v: int, u: int, N: int) -> "PadicNumber":
        """Capped value u * p**v + O(p**(v+N)); u need not be reduced."""
        u = u % p ** N if N > 0 else 0
        if not u:
            return cls.inexact_zero(p, v + max(N, 0))
        if u % p:
            return cls(p, v, u, N, None)
        j = vp_int(u, p)
        return cls(p, v + j, u // p ** j, N - j, None)

    @classmethod
    def inexact_zero(cls, p: int, abs_prec: int) -> "PadicNumber":
        """A value known only to be O(p**abs_prec)."""
        return cls(p, abs_prec, 0, 0, None)

    @classmethod
    def _from_exact(cls, q: Fraction, p: int, v: int | None = None) -> "PadicNumber":
        """The exact value q, demoted when it outgrows the size budget; v,
        when given, is vp_fraction(q, p)."""
        num, den = q.numerator, q.denominator
        if not num:
            return cls(p, 0, 0, 0, _ZERO)
        if v is None:
            v = vp_int(num, p) - vp_int(den, p)
        u = unit_digits(num, den, p, v, DEFAULT_PRECISION)
        big = num.bit_length() > DEMOTE_BITS or den.bit_length() > DEMOTE_BITS
        return cls(p, v, u, DEFAULT_PRECISION, None if big else q)

    # ------------------------------------------------------------------
    # predicates and views

    @property
    def is_exact_zero(self) -> bool:
        # every exact nonzero value carries a unit digit (N >= 1), so
        # u == 0 together with an exact value means the exact zero
        return self.u == 0 and self.exact is not None

    @property
    def is_zeroish(self) -> bool:
        """True when the value cannot be told apart from zero."""
        return self.u == 0

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    # ------------------------------------------------------------------
    # arithmetic

    def _addsub(self, other: "PadicNumber", sign: int) -> "PadicNumber":
        p = self._same_prime(other)
        if self.is_exact_zero:
            return other if sign > 0 else other.__neg__()
        if other.is_exact_zero:
            return self
        if self.exact is not None and other.exact is not None:
            q = self.exact + other.exact if sign > 0 else self.exact - other.exact
            return PadicNumber._from_exact(q, p)
        return capped_sum(p, [self, other], sign)

    def __add__(self, other):
        return self._addsub(other, 1)

    def __sub__(self, other):
        return self._addsub(other, -1)

    def __neg__(self):
        if self.u == 0:
            return self
        exact = None if self.exact is None else -self.exact
        return PadicNumber(self.p, self.v, (-self.u) % self.p ** self.N, self.N, exact)

    def __mul__(self, other):
        p = self._same_prime(other)
        if self.is_exact_zero or other.is_exact_zero:
            return PadicNumber.exact_zero(p)
        if self.exact is not None and other.exact is not None:
            # valuations of exact nonzero values are exact, so they add
            return PadicNumber._from_exact(self.exact * other.exact, p, self.v + other.v)
        if self.u == 0 or other.u == 0:
            # |x*y| <= p**-(bound_x + bound_y)
            return PadicNumber.inexact_zero(p, self.v + other.v)
        N, a, b = self._units(other)
        pN = p ** N
        return PadicNumber(p, self.v + other.v, a * b % pN, N, None)

    def __truediv__(self, other):
        p = self._same_prime(other)
        if other.is_exact_zero:
            raise ZeroDivisionError("division by exact zero")
        if other.u == 0:
            raise PrecisionError("division by a value indistinguishable "
                                 "from zero")
        if self.is_exact_zero:
            return self
        if self.exact is not None and other.exact is not None:
            return PadicNumber._from_exact(self.exact / other.exact, p, self.v - other.v)
        if self.u == 0:
            return PadicNumber.inexact_zero(p, self.v - other.v)
        N, a, b = self._units(other)
        pN = p ** N
        u = a * pow(b, -1, pN) % pN
        return PadicNumber(p, self.v - other.v, u, N, None)

    def _units(self, other) -> tuple[int, int, int]:
        # (N, unit, unit) of a product or quotient: an exact operand does not
        # cap the partner's relative precision N, so its unit is expanded to
        # N digits from the rational when the partner has more than
        # DEFAULT_PRECISION
        if self.exact is not None:
            return other.N, self._unit_to(other.N), other.u
        if other.exact is not None:
            return self.N, self.u, other._unit_to(self.N)
        return min(self.N, other.N), self.u, other.u

    def _unit_to(self, N: int) -> int:
        """An exact value's unit to at least N digits."""
        if self.N >= N:
            return self.u
        return unit_digits(self.exact.numerator, self.exact.denominator, self.p, self.v, N)

    def _same_prime(self, other) -> int:
        if not isinstance(other, PadicNumber):
            raise TypeError("expected a PadicNumber, got %r" % (other,))
        if self.p != other.p:
            raise ValueError("mixed primes %d and %d" % (self.p, other.p))
        return self.p

    # ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return (self.p == other.p and self.v == other.v and self.u == other.u
                and self.N == other.N and self.exact == other.exact)

    def __hash__(self):
        return hash((self.p, self.v, self.u, self.N, self.exact))

    def __repr__(self):
        if self.is_exact_zero:
            return "0(p=%d)" % self.p
        if self.u == 0:
            return "O(%d^%d)" % (self.p, self.v)
        tag = "" if self.exact is None else "!"
        return "%d*%d^%d%s + O(%d^%d)" % (self.u, self.p, self.v, tag,
                                          self.p, self.v + self.N)

    def to_json(self) -> dict:
        if self.is_exact_zero:
            return {"v": "inf", "unit": "0", "precision": 0}
        return {"v": str(self.v), "unit": str(self.u), "precision": self.N}

    @classmethod
    def from_json(cls, d: dict, p: int) -> "PadicNumber":
        if d["v"] == "inf":
            return cls.exact_zero(p)
        return cls.approximate(p, int(d["v"]), int(d["unit"]), int(d["precision"]))


def capped_sum(p: int, terms: list[PadicNumber], sign: int) -> PadicNumber:
    """terms[0] + sign * sum(terms[1:]), some term capped or an inexact
    zero: the terms' residues at their least valuation base, added as one
    integer mod p**(A - base), A their least absolute precision, and
    normalised once by approximate."""
    A = min(c.v + c.N for c in terms if c.exact is None)
    base = min(c.v for c in terms if c.u or c.exact is None)
    k = A - base
    if k <= 0:
        return PadicNumber.inexact_zero(p, A)
    res = [(c.u if c.exact is None else c._unit_to(k - d)) * p ** d
           if c.u and (d := c.v - base) < k else 0 for c in terms]
    return PadicNumber.approximate(p, base, res[0] + sign * sum(res[1:]), k)


_ZERO = Fraction(0)
