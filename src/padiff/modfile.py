"""JSON on-disk format for differential modules.

A module file records the prime, the rank, the connection matrix and
optionally a dict of expected invariants used by the corpus checks.
Matrix entries come in three shapes: a polynomial string in t with
rational coefficients ("-1", "-t", "3/4*t^2"), a plain list of rational
strings giving the coefficients directly, or an object with explicit
"coefficients" carrying capped p-adic values and a tail flag for
entries that are only known through a finite window.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from padiff.diffmod import DifferentialModule
from padiff.linalg import SeriesMatrix
from padiff.padic import PadicNumber
from padiff.series import TruncatedSeries

FORMAT = "padiff-module-v1"

# size bounds on a description file, so a careless or hostile one cannot
# exhaust memory: 10**4 is the largest coefficient window in use
MAX_DEGREE = 10 ** 4
MAX_COEFFS = 10 ** 4
MAX_ORDER = 10 ** 4
MAX_RANK = 8


class ModfileError(ValueError):
    """A module file failed to parse or validate."""


_TOKEN = re.compile(r"\d+|[t^*/+-]")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ModfileError("syntax error at %r" % text[pos])
        tokens.append(m.group(0))
        pos = m.end()
    return tokens


def parse_polynomial(text: str, p: int) -> TruncatedSeries:
    """Polynomial in t with rational coefficients, e.g. "3/4*t^2 - t".

    Terms are rational constants, monomials t or t^k, or products
    coefficient * t^k (the * may be omitted); they are joined by + or -.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ModfileError("empty entry")
    coeffs: dict[int, Fraction] = {}
    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else None

    first = True
    while i < len(tokens):
        sign = 1
        signed = False
        while peek() in ("+", "-"):
            if tokens[i] == "-":
                sign = -sign
            signed = True
            i += 1
        if not first and not signed:
            raise ModfileError("expected + or - before %r" % peek())
        tok = peek()
        if tok is None:
            raise ModfileError("dangling sign at end of entry")
        coeff = Fraction(1)
        have_coeff = False
        if tok.isdigit():
            i += 1
            num = int(tok)
            den = 1
            if peek() == "/":
                i += 1
                if peek() is None or not peek().isdigit():
                    raise ModfileError("expected an integer after '/'")
                den = int(tokens[i])
                i += 1
                if den == 0:
                    raise ModfileError("zero denominator")
            coeff = Fraction(num, den)
            have_coeff = True
            if peek() == "*":
                i += 1
                if peek() != "t":
                    raise ModfileError("expected t after '*'")
        power = 0
        if peek() == "t":
            i += 1
            power = 1
            if peek() == "^":
                i += 1
                if peek() is None or not peek().isdigit():
                    raise ModfileError("expected an exponent after '^'")
                # a bound on the digit count keeps int() cheap too
                if len(tokens[i]) > len(str(MAX_DEGREE)) or int(tokens[i]) > MAX_DEGREE:
                    raise ModfileError("exponent exceeds the degree bound %d"
                                       % MAX_DEGREE)
                power = int(tokens[i])
                i += 1
        elif not have_coeff:
            raise ModfileError("syntax error at %r" % tok)
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coeff
        first = False
    top = max(coeffs)
    values = [coeffs.get(k, Fraction(0)) for k in range(top + 1)]
    return TruncatedSeries.from_rationals(p, values)


# Miller-Rabin with the prime bases up to 37 decides primality exactly for
# every n below the least strong pseudoprime to all of them,
# psi_12 = 399165290221 * 798330580441 (Sorenson and Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic primality test; values past _MR_BOUND are rejected."""
    if n >= _MR_BOUND:
        raise ModfileError("prime field %d is too large: primality is only "
                           "decided below %d" % (n, _MR_BOUND))
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _coeff_to_json(c: PadicNumber):
    if c.is_exact:
        return str(c.exact)
    return c.to_json()


def _coeff_from_json(value, p: int) -> PadicNumber:
    if isinstance(value, str):
        q = Fraction(value)
        return PadicNumber.from_rational(q.numerator, q.denominator, p)
    return PadicNumber.from_json(value, p)


def _entry_to_json(s: TruncatedSeries):
    if s.tail_exact and all(c.is_exact for c in s.coeffs):
        return [str(c.exact) for c in s.coeffs]
    return {
        "coefficients": [_coeff_to_json(c) for c in s.coeffs],
        "tail_exact": s.tail_exact,
    }


def _entry_from_json(value, p: int) -> TruncatedSeries:
    if isinstance(value, str):
        return parse_polynomial(value, p)
    if isinstance(value, list):
        listed, tail_exact = value, True
    else:
        listed, tail_exact = value["coefficients"], bool(value.get("tail_exact", False))
    if len(listed) > MAX_COEFFS:
        raise ModfileError("%d coefficients exceed the bound %d"
                           % (len(listed), MAX_COEFFS))
    return TruncatedSeries(p, [_coeff_from_json(v, p) for v in listed], tail_exact)


def module_from_json(doc: dict) -> tuple[str, DifferentialModule, dict]:
    if doc.get("format") != FORMAT:
        raise ModfileError("not a module file (format %r)" % doc.get("format"))
    p = int(doc["prime"])
    if not _is_prime(p):
        raise ModfileError("prime field is %d, which is not prime" % p)
    rank = int(doc["rank"])
    if not 1 <= rank <= MAX_RANK:
        raise ModfileError("rank %d is outside 1..%d" % (rank, MAX_RANK))
    rows = doc["matrix"]
    if len(rows) != rank or any(len(r) != rank for r in rows):
        raise ModfileError("matrix shape disagrees with the declared rank")
    entries = []
    for i, row in enumerate(rows):
        out = []
        for j, cell in enumerate(row):
            try:
                out.append(_entry_from_json(cell, p))
            except (ValueError, ZeroDivisionError) as exc:    # ModfileError too
                raise ModfileError("entry (%d, %d): %s" % (i, j, exc)) from None
        entries.append(out)
    module = DifferentialModule(SeriesMatrix(p, entries), label=doc.get("name", ""))
    return doc.get("name", ""), module, dict(doc.get("expected", {}))


@dataclass(frozen=True)
class ModuleDescription:
    name: str
    module: DifferentialModule
    expected: dict = field(default_factory=dict)
    orders: dict = field(default_factory=dict)
    path: str | None = None


_ORDER_KEYS = ("solve", "growth", "iterates")


def parse_module(path) -> ModuleDescription:
    """Load and validate a module description file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:      # bad JSON, or an int past the digit limit
        raise ModfileError("%s: %s" % (path, exc)) from None
    try:
        name, module, expected = module_from_json(doc)
    except ModfileError as exc:
        raise ModfileError("%s: %s" % (path, exc)) from None
    orders = dict(doc.get("orders", {}))
    for key in orders:
        if key not in _ORDER_KEYS:
            raise ModfileError("%s: unknown order key %r" % (path, key))
        orders[key] = int(orders[key])
        if not 1 <= orders[key] <= MAX_ORDER:
            raise ModfileError("%s: order %s = %d is outside 1..%d"
                               % (path, key, orders[key], MAX_ORDER))
    return ModuleDescription(name, module, expected, orders, str(path))
