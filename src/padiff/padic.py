"""Capped-precision arithmetic in Q_p with exact-value tracking.

A value is stored either as an exact rational (so cancellation can be
recognised structurally) or in capped form ``u * p**v + O(p**(v+N))``
with ``u`` a unit modulo ``p**N``.  Exact rationals whose numerator or
denominator outgrows a size budget are demoted to capped form; the
valuation stays exact under demotion, only trailing digits are dropped.
"""

from __future__ import annotations

from fractions import Fraction

DEFAULT_PRECISION = 48

# exact rationals larger than this (in bits) are demoted to capped form
DEMOTE_BITS = 4096

_INF = float("inf")


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


class PadicNumber:
    """An element of Q_p known to finite (or exact) precision.

    Slots:
      p      -- the prime
      v      -- valuation (for an inexact zero: lower bound only)
      u      -- unit part, 0 <= u < p**N and coprime to p; u == 0 iff no
                digits are known (inexact zero, N == 0)
      N      -- relative precision in p-adic digits
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
    def from_rational(cls, numerator: int, denominator: int = 1,
                      p: int = 2, N: int = DEFAULT_PRECISION) -> "PadicNumber":
        """The p-adic expansion of numerator/denominator to N digits.

        The rational value itself is retained (until it outgrows the
        size budget), so sums that cancel exactly yield the exact zero.
        """
        if denominator == 0:
            raise ZeroDivisionError("rational with zero denominator")
        if p < 2:
            raise ValueError("p must be a prime >= 2")
        if N < 1:
            raise ValueError("N must be >= 1")
        return cls._from_exact(Fraction(numerator, denominator), p, N)

    @classmethod
    def from_int(cls, n: int, p: int, N: int = DEFAULT_PRECISION) -> "PadicNumber":
        return cls._from_exact(Fraction(n), p, N)

    @classmethod
    def exact_zero(cls, p: int) -> "PadicNumber":
        return cls(p, 0, 0, 0, _ZERO)

    @classmethod
    def approximate(cls, p: int, v: int, u: int, N: int) -> "PadicNumber":
        """Capped value u * p**v + O(p**(v+N)); u need not be reduced."""
        if N <= 0 or u == 0:
            return cls(p, v + max(N, 0), 0, 0, None)
        u %= p ** N
        if u == 0:
            return cls(p, v + N, 0, 0, None)
        if u % p == 0:
            j = vp_int(u, p)
            if j >= N:
                return cls(p, v + N, 0, 0, None)
            return cls(p, v + j, (u // p ** j) % p ** (N - j), N - j, None)
        return cls(p, v, u, N, None)

    @classmethod
    def inexact_zero(cls, p: int, abs_prec: int) -> "PadicNumber":
        """A value known only to be O(p**abs_prec)."""
        return cls(p, abs_prec, 0, 0, None)

    @classmethod
    def _from_exact(cls, q: Fraction, p: int, N: int,
                    v: int | None = None) -> "PadicNumber":
        """The value q to N digits; v, when given, is vp_fraction(q, p)."""
        num = q.numerator
        if not num:
            return cls(p, 0, 0, 0, _ZERO)
        den = q.denominator
        if v is None:
            v = vp_int(num, p) - vp_int(den, p)
        big = num.bit_length() > DEMOTE_BITS or den.bit_length() > DEMOTE_BITS
        if v > 0:
            num //= p ** v
        elif v < 0:
            den //= p ** (-v)
        pN = p ** N
        u = num % pN * pow(den, -1, pN) % pN
        if big:
            return cls(p, v, u, N, None)
        return cls(p, v, u, N, q)

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

    @property
    def abs_prec(self):
        """Absolute precision exponent; +inf for exactly known values."""
        if self.exact is not None:
            return _INF
        return self.v + self.N

    def val_lower_bound(self):
        """A sound lower bound on the valuation (+inf for the exact zero)."""
        if self.is_exact_zero:
            return _INF
        return self.v

    def norm_exponent(self) -> Fraction | None:
        """log_p of the norm: -v as a Fraction, None for the exact zero."""
        if self.is_exact_zero:
            return None
        if self.u == 0:
            raise PrecisionError("norm of an inexact zero is only bounded")
        return Fraction(-self.v)

    def residue(self, base_v: int, k: int) -> int:
        """The integer (self * p**-base_v) mod p**k; requires v >= base_v."""
        if k <= 0:
            return 0
        pk = self.p ** k
        if self.exact is not None:
            if not self.exact:
                return 0
            num = self.exact.numerator
            den = self.exact.denominator
            w = vp_int(num, self.p) - vp_int(den, self.p)
            if w < base_v:
                raise ValueError("residue requested below the valuation")
            if w > 0:
                num //= self.p ** w
            elif w < 0:
                den //= self.p ** (-w)
            r = num % pk * pow(den, -1, pk) % pk
            return r * pow(self.p, w - base_v, pk) % pk
        if self.u == 0:
            return 0
        if self.v < base_v:
            raise ValueError("residue requested below the valuation")
        return self.u * pow(self.p, self.v - base_v, pk) % pk

    def agrees(self, other: "PadicNumber") -> bool:
        """Do the two values agree on every digit both of them claim?"""
        if self.p != other.p:
            return False
        common = min(self.abs_prec, other.abs_prec)
        if common == _INF:
            return self.exact == other.exact
        common = int(common)
        base = min(self.val_lower_bound(), other.val_lower_bound(), common)
        if base == _INF:
            return True
        base = int(base)
        k = common - base
        if k <= 0:
            return True
        return self.residue(base, k) == other.residue(base, k)

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
            a = min(self.v + self.N, other.v + other.N)
            if q == 0:
                return PadicNumber.exact_zero(p)
            v = vp_fraction(q, p)
            return PadicNumber._from_exact(q, p, max(a - v, 1), v)
        a = min(self.abs_prec, other.abs_prec)  # finite: one side is capped
        a = int(a)
        base = min(self.val_lower_bound(), other.val_lower_bound())
        if base == _INF:
            return PadicNumber.inexact_zero(p, a)
        base = int(base)
        k = a - base
        if k <= 0:
            return PadicNumber.inexact_zero(p, a)
        w = (self.residue(base, k) + sign * other.residue(base, k)) % p ** k
        if w == 0:
            return PadicNumber.inexact_zero(p, a)
        j = vp_int(w, p)
        v = base + j
        return PadicNumber.approximate(p, v, w // p ** j, a - v)

    def __add__(self, other):
        return self._addsub(other, 1)

    def __sub__(self, other):
        return self._addsub(other, -1)

    def __neg__(self):
        if self.exact is not None:
            if not self.exact:
                return self
            return PadicNumber(self.p, self.v, (-self.u) % self.p ** self.N,
                               self.N, -self.exact)
        if self.u == 0:
            return self
        return PadicNumber(self.p, self.v, (-self.u) % self.p ** self.N,
                           self.N, None)

    def __mul__(self, other):
        p = self._same_prime(other)
        if self.is_exact_zero or other.is_exact_zero:
            return PadicNumber.exact_zero(p)
        if self.exact is not None and other.exact is not None:
            # valuations of exact nonzero values are exact, so they add
            return PadicNumber._from_exact(self.exact * other.exact, p,
                                           min(self.N, other.N), self.v + other.v)
        if self.u == 0 or other.u == 0:
            # |x*y| <= p**-(bound_x + bound_y)
            return PadicNumber.inexact_zero(p, self.v + other.v)
        N = self._result_rel_prec(other)
        pN = p ** N
        return PadicNumber(p, self.v + other.v, self.u * other.u % pN, N, None)

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
            return PadicNumber._from_exact(self.exact / other.exact, p,
                                           min(self.N, other.N), self.v - other.v)
        if self.u == 0:
            return PadicNumber.inexact_zero(p, self.v - other.v)
        N = self._result_rel_prec(other)
        pN = p ** N
        u = self.u * pow(other.u, -1, pN) % pN
        return PadicNumber(p, self.v - other.v, u, N, None)

    def _result_rel_prec(self, other) -> int:
        # an exact operand does not cap the partner's relative precision
        if self.exact is not None:
            return other.N
        if other.exact is not None:
            return self.N
        return min(self.N, other.N)

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


_ZERO = Fraction(0)
