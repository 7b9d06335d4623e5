"""Checks of verify-conjecture reports against values computed here.

Nothing in this file reads padiff: every expected value comes from a
closed form evaluated with Python integers and Fractions, so a wrong
digit in the program cannot hide in a copy of its own output.

A report coefficient is either an exact rational string or a capped
claim {"v", "unit", "precision"} meaning unit * p**v + O(p**(v + precision));
a claim with precision 0 says only that the value is O(p**v).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

# A = [[0, -1], [1, -t]] of the rank-2 worked example, entries as
# coefficient lists in t; D = d/dt + A annihilates its bounded section.
EX44_MATRIX = (((0,), (-1,)), ((1,), (0, -1)))


# ----------------------------------------------------------------------
# closed forms


def legendre_vp_factorial(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula, sum of floor(n / p**k)."""
    total = 0
    q = n
    while q:
        q //= p
        total += q
    return total


def hypergeom_vp(k: int, p: int) -> int:
    """v_p of F_k = (C(2k,k) / 4**k)**2 for odd p, by Legendre's formula."""
    return 2 * (legendre_vp_factorial(2 * k, p) - 2 * legendre_vp_factorial(k, p))


def hypergeom_numerators(order: int) -> list[int]:
    """f_k = C(2k,k)**2, so that F(t) = sum f_k (t/16)**k."""
    return [comb(2 * k, k) ** 2 for k in range(order + 1)]


def hypergeom_series(order: int) -> list[Fraction]:
    """F_k = (C(2k,k) / 4**k)**2 for k = 0..order."""
    return [Fraction(f, 16 ** k) for k, f in enumerate(hypergeom_numerators(order))]


def hypergeom_reciprocal(order: int) -> list[Fraction]:
    """Coefficients of 1/F up to order, computed in integers.

    With F(t) = f(t/16) for the integer series f with f_0 = 1, the
    reciprocal is h(t/16) where h = 1/f has integer coefficients.
    """
    f = hypergeom_numerators(order)
    h = [1]
    for n in range(1, order + 1):
        h.append(-sum(f[k] * h[n - k] for k in range(1, n + 1)))
    return [Fraction(x, 16 ** n) for n, x in enumerate(h)]


def exp_series(p: int, order: int) -> list[Fraction]:
    """Coefficients p**k / k! of exp(p t)."""
    return [Fraction(p ** k, factorial(k)) for k in range(order + 1)]


def vp(q: Fraction, p: int) -> int | float:
    """Valuation of a rational; +inf for zero."""
    if q == 0:
        return float("inf")
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ----------------------------------------------------------------------
# reading reports


def _coefficients(entry) -> list:
    """Coefficient list of a serialized series entry."""
    if isinstance(entry, dict):
        return entry["coefficients"]
    return entry


def claim_agrees(claim, value: Fraction, p: int) -> bool:
    """Does the claimed coefficient agree with value on every claimed digit?"""
    if isinstance(claim, str):
        return Fraction(claim) == value
    if claim["v"] == "inf":
        return value == 0
    v, unit, prec = int(claim["v"]), int(claim["unit"]), int(claim["precision"])
    claimed = Fraction(unit) * Fraction(p) ** v
    return vp(value - claimed, p) >= v + prec


def _radii(report) -> list[Fraction]:
    return [Fraction(r["base_p_exponent"]) for r in report["boundary"]["log_radii"]]


def _common(report, module: str, h0_dim: int, radii: list[Fraction]) -> list[str]:
    problems = []
    if report.get("module") != module:
        problems.append("report names module %r" % report.get("module"))
    if report.get("verdict") != "PASS":
        problems.append("verdict %r, expected PASS" % report.get("verdict"))
    if report.get("h0_dim") != h0_dim:
        problems.append("h0_dim %r, expected %d" % (report.get("h0_dim"), h0_dim))
    got = _radii(report)
    if got != radii:
        problems.append("boundary radii %s, expected %s"
                        % ([str(r) for r in got], [str(r) for r in radii]))
    if not report.get("transfer", {}).get("consistent"):
        problems.append("transfer check inconsistent")
    witness = report.get("witness")
    if witness is None or not witness.get("ok"):
        problems.append("witness missing or failing its diagnostics")
    return problems


def _poly_derive(c: list[Fraction]) -> list[Fraction]:
    return [k * c[k] for k in range(1, len(c))]


def _poly_mul_trunc(a, b, n: int) -> list[Fraction]:
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                out[i + j] += x * y
    return out


def horizontal_residual(section: list[list[Fraction]], matrix) -> list[list[Fraction]]:
    """(d/dt + A) applied to a section, on the window where it is known."""
    n = min(len(c) for c in section) - 1
    out = []
    for i, row in enumerate(matrix):
        acc = _poly_derive(section[i])[:n]
        for j, cell in enumerate(row):
            term = _poly_mul_trunc([Fraction(x) for x in cell], section[j], n)
            acc = [a + b for a, b in zip(acc, term)]
        out.append(acc)
    return out


# ----------------------------------------------------------------------
# per-workload checkers: each returns a list of problems, empty when the
# report is right


def check_worked_example(module: str, doc: dict) -> list[str]:
    """ex44_p<p>: PASS, one bounded section (t, 1), radii (-1/(p-1), 0)."""
    p = int(module.rsplit("_p", 1)[1])
    report = doc["report"]
    problems = _common(report, module, 1, [Fraction(-1, p - 1), Fraction(0)])
    witness = report.get("witness") or {}
    phi = witness.get("phi")
    if phi is None or len(phi) != 2 or any(len(row) != 1 for row in phi):
        return problems + ["phi is not a 2 x 1 matrix"]
    section = []
    for i, want in enumerate(([0, 1], [1])):
        coeffs = _coefficients(phi[i][0])
        if len(coeffs) < 2 or not all(isinstance(c, str) for c in coeffs):
            problems.append("phi[%d] is not exact on a window of length >= 2" % i)
            return problems
        values = [Fraction(c) for c in coeffs]
        padded = want + [0] * (len(values) - len(want))
        if values != padded:
            problems.append("phi[%d] differs from %s" % (i, ("t", "1")[i]))
        section.append(values)
    residual = horizontal_residual(section, EX44_MATRIX)
    if any(x != 0 for row in residual for x in row):
        problems.append("phi is not annihilated by d/dt + A")
    sub = witness.get("submodule_matrix")
    if sub is None or not all(c == "0" for row in sub for entry in row
                              for c in _coefficients(entry)):
        problems.append("submodule matrix is not exactly 0")
    return problems


def _check_series(name: str, coeffs, expected: list[Fraction], p: int) -> list[str]:
    bad = [k for k, c in enumerate(coeffs)
           if k >= len(expected) or not claim_agrees(c, expected[k], p)]
    if bad:
        return ["%s disagrees at %d coefficient(s), first at t^%d"
                % (name, len(bad), bad[0])]
    return []


def _zero_claims(coeffs, p: int) -> bool:
    return all(claim_agrees(c, Fraction(0), p) for c in coeffs)


def check_capped_kernel(module: str, doc: dict) -> list[str]:
    """hypergeom_half_p<p>: theta = diag(1/F, F) on every claimed digit."""
    p = int(module.rsplit("_p", 1)[1])
    report = doc["report"]
    problems = _common(report, module, 2, [Fraction(0), Fraction(0)])
    theta = (report.get("witness") or {}).get("theta")
    if theta is None or len(theta) != 2 or any(len(row) != 2 for row in theta):
        return problems + ["theta is not a 2 x 2 matrix"]
    recip = _coefficients(theta[0][0])
    direct = _coefficients(theta[1][1])
    order = max(len(recip), len(direct)) - 1
    problems += _check_series("theta[0][0] against 1/F", recip,
                              hypergeom_reciprocal(order), p)
    problems += _check_series("theta[1][1] against F", direct,
                              hypergeom_series(order), p)
    legendre = [k for k, c in enumerate(direct)
                if isinstance(c, dict) and c["unit"] != "0"
                and int(c["v"]) != hypergeom_vp(k, p)]
    if legendre:
        problems.append("theta[1][1] valuation off Legendre's formula at t^%d"
                        % legendre[0])
    for i, j in ((0, 1), (1, 0)):
        if not _zero_claims(_coefficients(theta[i][j]), p):
            problems.append("theta[%d][%d] is not zero" % (i, j))
    return problems


def check_exact_inverse(module: str, doc: dict) -> list[str]:
    """exp_small_p<p>: theta = exp(p t), coefficient k equal to p**k / k!."""
    p = int(module.rsplit("_p", 1)[1])
    report = doc["report"]
    problems = _common(report, module, 1, [Fraction(0)])
    theta = (report.get("witness") or {}).get("theta")
    if theta is None or len(theta) != 1 or len(theta[0]) != 1:
        return problems + ["theta is not a 1 x 1 matrix"]
    coeffs = _coefficients(theta[0][0])
    return problems + _check_series("theta against p^k/k!", coeffs,
                                    exp_series(p, len(coeffs) - 1), p)


CHECKERS = {
    "worked_example": check_worked_example,
    "capped_kernel": check_capped_kernel,
    "exact_inverse": check_exact_inverse,
}
