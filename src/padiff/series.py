"""Truncated power series over Q_p with per-coefficient precision.

A ``TruncatedSeries`` stores coefficients 0..order.  ``tail_exact`` means
the value is a genuine polynomial: every later coefficient is exactly
zero.  Otherwise nothing is known past ``order`` and every operation
must shrink its output window accordingly.

All radius and norm bookkeeping is done on logarithmic scale with exact
``Fraction`` exponents: a radius is written p**(-r) and only r is ever
stored, so corpus-level radius identities can be checked exactly.

A product whose operands hold a capped or inexact-zero coefficient is
computed packed.  Each operand becomes integer digits at its least
valuation, packed side by side into one big int, and the two are
multiplied once (Kronecker substitution).  Coefficient k is known to
A_k = min over its pairs of min(abs_x + v_y, v_x + abs_y), two min-plus
convolutions, and is the packed value mod p**A_k: a capped sum is the
true sum to the least precision of its terms, in any order.  Where the
entries of one operand that reach k all hold one abs (or one v), a
convolution is that value plus the other operand's minimum over k's
window, a running prefix minimum or the minimum of a slice.  Pairs of
exact coefficients settle the coefficients no other pair reaches, in an
exact sum (_slot).  The whole product is summed pair by pair
instead when one of those sums is demoted, or when the operands'
valuations spread so far that the packed ints would be mostly zeros.
Products of exact series always are, since their coefficients are
rationals rather than digits.

An exact value caches its unit to DEFAULT_PRECISION digits, whatever
produced it, so exact results do not depend on the order of the
operations.  The one order-dependent event left is the demotion of a
partial exact sum past DEMOTE_BITS: which partial sums exist, and so
which are demoted, depends on the order of the additions.  A pairwise
sum (_slot) demotes just what adding its pairs one at a time would: an
all-exact coefficient whose size bound shows that no partial sum can
pass DEMOTE_BITS, in any order, is summed whole over one denominator.
Once a coefficient's exact run ends (a capped or inexact-zero pair, a
demotion, a capped start), the rest is one padic.capped_sum of the value
so far and each later pair product x * y, the rule PadicNumber addition
uses for two terms.

Division, horizontal sections and regular solves are online recursions,
all run by one driver, _online: output s is a finishing step applied to
a right-hand side minus c * x_(s-d)[l] over the operator's triples
(d >= 1, l, c).  Each caller keeps only its triples, its right-hand side
and its finishing step.  The driver runs in blocks of BLOCK outputs when
some operator coefficient is capped or an inexact zero and none is exact
and nonzero.  A block's history, the pairs whose earlier output lies
before it, is one packed product per operator entry; only in-block pairs
are summed pairwise.  Every pair then has a non-exact factor, so each
sum is the true sum mod p**A_k however the pairs are grouped, and no
exact partial sum can be demoted.  Any other recursion is one block,
whose pairs are subtracted in the order the caller lists them: that
order is data, since it decides which partial exact sums are demoted in
an output that is not summed whole.
Blocking, whole sums and capped sums keep the pairwise fold's values,
so every v, unit and N is the pairwise loop's; Newton iteration would be
faster asymptotically but would change the precision of the coefficients
the reports print.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, product, repeat
from operator import add, and_, is_, mul

from padiff.padic import DEMOTE_BITS, PadicNumber, PrecisionError, capped_sum, vp_int


@dataclass(frozen=True)
class GaussNorm:
    """Result of a Gauss norm evaluation at radius p**(-r).

    exponent      -- log_p of the norm, None when the series is exactly 0
    boundary      -- max sits at the truncation edge of an inexact tail,
                     so the true norm may be larger
    indeterminate -- an undetermined coefficient could beat the max
    """

    exponent: Fraction | None
    boundary: bool
    indeterminate: bool


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
    def from_rationals(cls, p: int, values, tail_exact: bool = True) -> "TruncatedSeries":
        """Build from ints, Fractions or (num, den) pairs."""
        coeffs = []
        for val in values:
            if isinstance(val, tuple):
                coeffs.append(PadicNumber.from_rational(val[0], val[1], p))
            else:
                q = Fraction(val)
                coeffs.append(PadicNumber.from_rational(q.numerator, q.denominator, p))
        if not coeffs:
            coeffs = [PadicNumber.exact_zero(p)]
        return cls(p, coeffs, tail_exact)

    @classmethod
    def zero(cls, p: int) -> "TruncatedSeries":
        return cls(p, [PadicNumber.exact_zero(p)], True)

    @classmethod
    def one(cls, p: int) -> "TruncatedSeries":
        return cls(p, [PadicNumber.from_int(1, p)], True)

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
        out = _product(self.p, self.coeffs[:hi + 1], other.coeffs[:hi + 1], hi)
        return TruncatedSeries(self.p, out, w is None)

    def derive(self) -> "TruncatedSeries":
        """d/dt; an inexact tail costs one index of window."""
        if self.order == 0:
            if self.tail_exact:
                return TruncatedSeries.zero(self.p)
            raise ValueError("window too small to differentiate")
        p = self.p
        out = []
        # each branch is what from_int(i) * c gives, without building
        # from_int(i): v_p(i) joins the valuation, an exact value is the
        # rational times i, and a capped unit is multiplied by the unit
        # part of i to its own N digits
        for i in range(1, self.order + 1):
            c = self.coeffs[i]
            if c.is_exact_zero:
                out.append(c)
                continue
            j = vp_int(i, p)
            if c.exact is not None:
                c = PadicNumber._from_exact(c.exact * i, p, c.v + j)
            elif c.u:
                c = PadicNumber(p, c.v + j, (i // p ** j) * c.u % p ** c.N, c.N)
            else:
                c = PadicNumber.inexact_zero(p, c.v + j)
            out.append(c)
        return TruncatedSeries(p, out, self.tail_exact)

    def invert(self, order: int | None = None) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be determinate."""
        if self.coeffs[0].is_exact_zero:
            raise ZeroDivisionError("inverting a series divisible by t")
        return TruncatedSeries.one(self.p).divide(
            self, self.order if order is None else order)

    def divide(self, other: "TruncatedSeries", order: int | None = None) -> "TruncatedSeries":
        """Quotient in the power series ring.

        The divisor's order of vanishing k must be determinate and the
        first k coefficients here must not be determinately nonzero.
        Undetermined small coefficients below k are dropped; the drop is
        within their stated precision.  The quotient is the recursion
        q_n = (a_n - sum_(d >= 1) b_d q_(n-d)) / b_0 (see _online).
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
        # earliest output first: the divisor's degrees descending
        ops = [[(d, 0, den.coeffs[d]) for d in range(min(order, den.order), 0, -1)]]
        out = _online(self.p, ops, lambda s, i: num.coefficient(s),
                      lambda s, r: [r[0] / d0], [], order + 1)
        return TruncatedSeries(self.p, [x[0] for x in out], False)

    # ------------------------------------------------------------------
    # norms

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
        return GaussNorm(None if best is None else Fraction(best, b), boundary,
                         indeterminate)

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


# ----------------------------------------------------------------------
# product kernels

# outputs per block of an online recursion whose operator allows blocks
BLOCK = 32

# digits a packed slot may span beyond twice the largest relative
# precision among the operands before a product takes the pairwise loop
_SLOT_SLACK = 64


def _product(p: int, a: list[PadicNumber], b: list[PadicNumber], hi: int,
             lo: int = 0) -> list[PadicNumber]:
    """Coefficients lo..hi of a*b, those below lo left at the exact zero:
    packed when an operand holds a capped or inexact-zero coefficient and
    _packed_product does not decline, else pair by pair."""
    out = None
    if any(c.exact is None for c in a) or any(c.exact is None for c in b):
        out = _packed_product(p, a, b, hi, lo)
    return out or _product_loop(p, a, b, hi, False, lo)


def _product_loop(p: int, a: list[PadicNumber], b: list[PadicNumber], hi: int,
                  exact_only: bool, lo: int = 0) -> list[PadicNumber]:
    """Coefficients lo..hi of a*b, each folding its pairs by ascending
    index of a (_slot); those below lo are left at the exact zero.
    A slot is summed as soon as its pairs are listed, so no more than one
    slot's pairs are held at a time.

    With exact_only, only pairs of exact nonzero coefficients are summed.
    """
    ka, kb = ([c.u != 0 and c.exact is not None for c in s] if exact_only
              else [c.u != 0 or c.exact is None for c in s] for s in (a, b))
    out = [PadicNumber.exact_zero(p)] * (hi + 1)
    if True not in ka or True not in kb:
        return out
    # a0..a1 and b0..b1 span the kept coefficients of a and b
    a0, a1 = ka.index(True), len(a) - 1 - ka[::-1].index(True)
    b0, b1 = kb.index(True), len(b) - 1 - kb[::-1].index(True)
    if a0 == a1 or b0 == b1:
        # a side c * t**e: a slot has at most one pair
        for i, j in product(range(a0, a1 + 1), range(b0, b1 + 1)):
            if ka[i] and kb[j] and lo <= i + j <= hi:
                out[i + j] = _slot(p, 1, out[i + j], [a[i], b[j]])
        return out
    rb, rkb = b[::-1], kb[::-1]
    for k in range(max(lo, a0 + b0), min(hi, a1 + b1) + 1):
        # pairs (i, k - i) for i in i0..i1-1, read off the reversed b
        i0, i1, o = max(a0, k - b1), min(a1, k - b0) + 1, len(b) - 1 - k
        both = list(map(and_, ka[i0:i1], rkb[o + i0:o + i1]))
        if True in both:
            out[k] = _slot(p, 1, out[k], list(chain.from_iterable(
                compress(zip(a[i0:i1], rb[o + i0:o + i1]), both))))
    return out


def _slot(p: int, sign: int, z: PadicNumber, pairs: list) -> PadicNumber:
    """The left fold z + x * y (- x * y when sign is -1) over the pairs
    [x, y, x, y, ...] of nonzero values, in list order, field for field.
    A slot of more than one pair is summed whole (_whole) when that
    provably demotes nothing, and any other slot is folded (_fold).
    """
    return (len(pairs) > 2 and _whole(p, sign, z, pairs)) or _fold(p, sign, z, pairs)


def _whole(p: int, sign: int, z: PadicNumber, pairs: list) -> PadicNumber | None:
    """The slot as one integer sum over L, or None unless every value is
    exact and L and sum |n_i| L / d_i fit in DEMOTE_BITS: d_i is
    den(x) den(y), n_i is +-num(x) num(y), the start is one more term, and
    L is the largest d_i if the others divide it, else their lcm.  Every
    partial sum and pair product of the fold then has a denominator
    dividing L and a |numerator| within that sum, so the fold demotes
    nothing and gives this rational total.
    """
    qs = [c.exact for c in pairs]
    if z.exact is None or any(map(is_, qs, repeat(None))):
        return None
    xs, ys = qs[0::2], qs[1::2]
    nums = [x.numerator * y.numerator for x, y in zip(xs, ys)]
    dens = [x.denominator * y.denominator for x, y in zip(xs, ys)]
    # the start is one more term, signed so that the sign below cancels
    nums.append(sign * z.exact.numerator)
    dens.append(z.exact.denominator)
    L = max(dens)
    if L.bit_length() > DEMOTE_BITS:
        return None
    factors, rests = zip(*map(divmod, repeat(L), dens))
    if any(rests):
        L = math.lcm(*dens)
        factors = map(L.__floordiv__, dens)
    terms = list(map(mul, nums, factors))
    if max(L, sum(map(abs, terms))).bit_length() > DEMOTE_BITS:
        return None
    return PadicNumber._from_exact(Fraction(sign * sum(terms), L), p)


def _fold(p: int, sign: int, z: PadicNumber, pairs: list) -> PadicNumber:
    """The pairwise fold of one slot from z.  While its pairs are exact,
    its sum is an integer numerator over the lcm of their denominators,
    made a PadicNumber once.  A gcd is due only when a pair product or
    partial sum passes DEMOTE_BITS unreduced, and the fold demotes it if
    it still does reduced.  That, or a capped or inexact-zero factor, ends
    the run, and the rest is one capped sum (padic.capped_sum).
    """
    run = None              # z as (num, den) while the run lasts
    it = iter(pairs)
    for x, y in zip(it, it):
        start = run or (z.exact is not None and (z.exact.numerator, z.exact.denominator))
        term = (start and x.exact is not None and y.exact is not None
                and _reduced(sign * x.exact.numerator * y.exact.numerator,
                             x.exact.denominator * y.exact.denominator))
        if term:
            (num, den), (n, d) = start, term
            g = math.gcd(den, d)
            num, den = num * (d // g) + n * (den // g), den // g * d
            run = _reduced(num, den)
            if run is None:
                # the partial sum is demoted, and the run ends capped
                z = PadicNumber._from_exact(Fraction(num, den), p)
            continue
        if run:
            z = PadicNumber._from_exact(Fraction(*run), p)
        return capped_sum(p, [z, x * y, *map(mul, it, it)], sign)
    return z if run is None else PadicNumber._from_exact(Fraction(*run), p)


def _reduced(num: int, den: int) -> tuple[int, int] | None:
    """num/den, reduced if it passes DEMOTE_BITS; None if it still does."""
    if num.bit_length() > DEMOTE_BITS or den.bit_length() > DEMOTE_BITS:
        g = math.gcd(num, den)
        num, den = num // g, den // g
        if num.bit_length() > DEMOTE_BITS or den.bit_length() > DEMOTE_BITS:
            return None
    return num, den


def _packed_product(p: int, a: list[PadicNumber], b: list[PadicNumber],
                    hi: int, lo: int = 0) -> list[PadicNumber] | None:
    """Coefficients lo..hi of a*b by one big-int multiply (Kronecker);
    those below lo are left at the exact zero.

    A coefficient that some pair with a non-exact factor reaches is known
    to the absolute precision A_k, the min over those pairs of
    min(abs_x + v_y, v_x + abs_y), and its value is the true sum of the
    pair products mod p**A_k whatever the order of the additions.  So the
    values come from one product of the operands' integer digits packed
    at a fixed slot width, each slot normalised by PadicNumber.approximate.
    The other coefficients sum their exact pairs in _product_loop's exact
    sums.  None when one of those sums is demoted past DEMOTE_BITS, since
    the demoted value's DEFAULT_PRECISION digits then cap A_k and which
    partial sums are demoted depends on the order of the additions; None
    too when a slot would span far more digits than any coefficient knows.
    """
    prec = _precision(a, b, hi, lo)
    live = [k for k, e in enumerate(prec) if e != math.inf]
    va = min((c.v for c in a if c.u), default=None)
    vb = min((c.v for c in b if c.u), default=None)
    base = None if va is None or vb is None else va + vb
    K = 0 if base is None or not live else max(prec[k] for k in live) - base
    # a slot spans the operands' valuation spread plus their precision;
    # when the spread dominates, the packed ints are mostly zero digits
    # and the pairwise loop is far cheaper
    if K > 2 * max(c.N for c in a + b if c.exact is None) + _SLOT_SLACK:
        return None
    out = _product_loop(p, a, b, hi, True, lo)
    if any(c.exact is None for c in out):
        return None
    if K <= 0:
        for k in live:
            out[k] = PadicNumber.inexact_zero(p, prec[k])
        return out
    pw = [1]
    for _ in range(K):
        pw.append(pw[-1] * p)
    ra = _digits(a, va, K, pw)
    rb = _digits(b, vb, K, pw)
    terms = min(len(ra) - ra.count(0), len(rb) - rb.count(0))
    width = max(((terms * (pw[K] - 1) ** 2).bit_length() + 7) // 8, 1)
    packed = _pack(ra, width) * _pack(rb, width)
    data = packed.to_bytes(width * (len(ra) + len(rb) - 1), "little")
    for k in live:
        e = prec[k] - base
        slot = int.from_bytes(data[k * width:(k + 1) * width], "little")
        out[k] = (PadicNumber.approximate(p, base, slot, e) if e > 0
                  else PadicNumber.inexact_zero(p, prec[k]))
    return out


def _precision(a: list[PadicNumber], b: list[PadicNumber], hi: int,
               lo: int = 0) -> list:
    """A_k for k = lo..hi, by two min-plus convolutions: abs_a (+) v_b and
    v_a (+) abs_b; the list is indexed by k, math.inf below lo.

    abs is infinite on exact coefficients and v on exact zeros, so exact
    pairs and pairs with an exact-zero factor drop out; A_k is math.inf
    when no other pair reaches k.
    """
    abs_a = [c.v + c.N if c.exact is None else math.inf for c in a]
    v_a = [math.inf if c.is_exact_zero else c.v for c in a]
    abs_b = [c.v + c.N if c.exact is None else math.inf for c in b]
    v_b = [math.inf if c.is_exact_zero else c.v for c in b]
    return [math.inf] * lo + list(map(min, _min_plus(abs_a, v_b, hi, lo),
                                      _min_plus(v_a, abs_b, hi, lo)))


def _min_plus(f: list, g: list, hi: int, lo: int) -> list:
    """min over i + j = k of f[i] + g[j] for k = lo..hi, math.inf when no
    pair reaches k; alpha plus a window minimum of one operand when every
    entry of the other that reaches the band is alpha.
    """
    for x, y in ((f, g), (g, f)):
        lx, ly = len(x), len(y)
        vals = set(x[max(0, lo - ly + 1):hi + 1])
        if len(vals) == 1:
            (alpha,), pre = vals, list(accumulate(y, min))
            return [alpha + (pre[min(k, ly - 1)] if k < lx
                             else min(y[k - lx + 1:k + 1], default=math.inf))
                    for k in range(lo, hi + 1)]
    # pairs (k - j, j) from j = max(0, k - lf + 1), read off the reversed f
    rf, lf = f[::-1], len(f)
    return [min(map(add, rf[max(lf - 1 - k, 0):lf + len(g) - 1 - k], g[max(0, k - lf + 1):k + 1]),
                default=math.inf) for k in range(lo, hi + 1)]


def _digits(coeffs: list[PadicNumber], base: int, K: int, pw: list[int]) -> list[int]:
    """Integers r < p**K with c == r * p**base mod p**(base + K), within
    the digits each c knows.

    An exact coefficient is expanded from its rational past its cached
    DEFAULT_PRECISION digits when K asks for more; zeros and values at or
    past p**(base + K) give 0.
    """
    out = []
    for c in coeffs:
        d = c.v - base
        if not c.u or d >= K:
            out.append(0)
            continue
        n = K - d
        u = c.u if c.exact is None else c._unit_to(n)
        out.append(u % pw[n] * pw[d])
    return out


def _pack(digits: list[int], width: int) -> int:
    return int.from_bytes(b"".join(r.to_bytes(width, "little") for r in digits),
                          "little")


def _online(p: int, ops, rhs, finish, out: list, count: int) -> list:
    """Extend out, the output vectors known so far, to count outputs of an
    online recursion, and return it.

    Output s is finish(s, r), where r_i = rhs(s, i) minus c * x_(s-d)[l]
    for each triple (d >= 1, l, c) of ops[i] with d <= s, folded in the
    order ops[i] lists them (_slot).  The outputs run in blocks of
    BLOCK when some coefficient of ops is capped or an inexact zero and
    none is exact and nonzero, else in one block.  An exact value caches
    DEFAULT_PRECISION digits whatever produced it, but a partial exact
    sum past DEMOTE_BITS is demoted, and which partial sums exist depends
    on the order of the subtractions: one block keeps the caller's (an
    output _whole sums is the same in any order).  A block's history,
    the pairs whose earlier output lies before it, is one _product per
    operator entry (i, l).
    """
    ops = [[t for t in triples if not t[2].is_exact_zero] for triples in ops]
    coeffs = [c for triples in ops for _, _, c in triples]
    step = BLOCK if coeffs and all(c.exact is None for c in coeffs) else max(count, 1)
    # only a delay below step can pair two outputs of one block
    near = [[t for t in triples if t[0] < step] for triples in ops]
    zero = PadicNumber.exact_zero(p)
    for b0 in range(0, count, step):
        b1 = min(b0 + step, count)
        history = [[zero] * (b1 - b0) for _ in ops]
        if b0:
            known = [list(col) for col in zip(*out[:b0])]
            for i, triples in enumerate(ops):
                # entry (i, l) indexed by d - 1, to the last d that reaches the block
                entries: dict[int, list[PadicNumber]] = {}
                for d, l, c in triples:
                    if d < b1:
                        entries.setdefault(l, [zero] * (b1 - 1))[d - 1] = c
                for l, op in entries.items():
                    sums = _product(p, known[l], op, b1 - 2, b0 - 1)
                    history[i] = [x + y for x, y in zip(history[i], sums[b0 - 1:])]
        for s in range(max(b0, len(out)), b1):
            r = [rhs(s, i) - history[i][s - b0] for i in range(len(ops))]
            for i, triples in enumerate(near):
                pairs = [v for d, l, c in triples if s - d >= b0
                         and not (x := out[s - d][l]).is_exact_zero for v in (c, x)]
                if pairs:
                    r[i] = _slot(p, -1, r[i], pairs)
            out.append(finish(s, r))
    return out
