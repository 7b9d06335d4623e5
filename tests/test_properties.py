"""Randomized law checks over the arithmetic and estimator layers.

Every suite runs a thousand derandomized Hypothesis cases (the
blocked-recursion suites, at orders up to 101, a hundred, and the
one-block suites three hundred), so a run is reproducible bit for bit.
The laws are chosen so that each has an exact finite check: norms and
radii are rational exponents, sections and Smith factors carry exact
coefficients, and residuals must vanish on the whole known window rather
than merely get small.

An exact value caches its unit to DEFAULT_PRECISION digits, whatever
produced it, so exact results do not depend on the order of the
operations.  The one order-dependent event left is the demotion of a
partial exact sum past DEMOTE_BITS: which partial sums exist depends on
the order of the additions.  That is why the one-block recursions and the
packed product's demotion fallback are checked against their reference
loops with ==.
"""

import math
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import add

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from oracles import add_oracle, agrees, fold_oracle, norm_exponent, precision_oracle
from test_linalg import check_reconstruction
from padiff import corpus
from padiff import series as series_module
from padiff.config import WorkbenchConfig
from padiff.diffmod import DifferentialModule
from padiff.linalg import (SeriesMatrix, field_solve, invert_regular, kernel_basis,
                           smith_normal_form, solve_regular)
from padiff.padic import DEMOTE_BITS, PadicNumber, capped_sum
from padiff.radii import RadiusWorkbench, omega_exponent
from padiff.series import GaussNorm, TruncatedSeries

SUITE = settings(max_examples=1000, derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.filter_too_much])

PRIMES = st.sampled_from((3, 5, 7))
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
nonzero_rationals = rationals.filter(lambda q: q != 0)
coeff_lists = st.lists(rationals, min_size=2, max_size=6)
int_entries = st.lists(st.integers(-3, 3), min_size=1, max_size=3)


def padic(q: Fraction, p: int) -> PadicNumber:
    return PadicNumber.from_rational(q.numerator, q.denominator, p)


# ----------------------------------------------------------------------
# ultrametric norm laws


@given(PRIMES, nonzero_rationals, nonzero_rationals)
@SUITE
def test_norm_multiplicative_and_ultrametric(p, a, b):
    x, y = padic(a, p), padic(b, p)
    nx, ny = norm_exponent(x), norm_exponent(y)
    assert norm_exponent(x * y) == nx + ny
    s = x + y
    if s.is_exact_zero:
        assert nx == ny
    else:
        assert norm_exponent(s) <= max(nx, ny)
        if nx != ny:
            assert norm_exponent(s) == max(nx, ny)


@given(PRIMES, nonzero_rationals, nonzero_rationals)
@SUITE
def test_division_round_trip_exact(p, a, b):
    x, y = padic(a, p), padic(b, p)
    q = (x / y) * (y / x)
    assert q.is_exact and q.exact == 1


# exact values spread over many digits, so that their sums cancel past
# the first digits of some terms
exact_terms = st.lists(st.tuples(nonzero_rationals, st.integers(-12, 12)),
                       min_size=1, max_size=8)


@given(PRIMES, exact_terms, exact_terms)
@example(5, [(1, 0), (-1, 0), (1, 10)], [(1, 0)] * 3)
@SUITE
def test_exact_results_do_not_depend_on_operation_order(p, xs, ys):
    # (1 - 1) + 5**10 and (5**10 - 1) + 1 are one rational, so one value
    xs = [q * Fraction(p) ** e for q, e in xs]
    ys = [q * Fraction(p) ** e for q, e in ys]
    values = [padic(q, p) for q in xs]
    assert reduce(add, values) == reduce(add, values[::-1]) == padic(sum(xs), p)
    f = TruncatedSeries.from_rationals(p, xs)
    g = TruncatedSeries.from_rationals(p, ys)
    assert f * g == g * f


# ----------------------------------------------------------------------
# Leibniz identity and Gauss norm multiplicativity


@given(PRIMES, coeff_lists, coeff_lists)
@SUITE
def test_leibniz_identity(p, fs, gs):
    f = TruncatedSeries.from_rationals(p, fs)
    g = TruncatedSeries.from_rationals(p, gs)
    lhs = (f * g).derive()
    rhs = f.derive() * g + f * g.derive()
    assert agrees(lhs, rhs)


@given(PRIMES, coeff_lists, coeff_lists,
       st.sampled_from((Fraction(0), Fraction(1, 3), Fraction(1, 2))))
@SUITE
def test_gauss_norm_multiplicative(p, fs, gs, r):
    assume(any(fs) and any(gs))
    f = TruncatedSeries.from_rationals(p, fs)
    g = TruncatedSeries.from_rationals(p, gs)
    gf = f.gauss_norm(r).exponent
    gg = g.gauss_norm(r).exponent
    assert (f * g).gauss_norm(r).exponent == gf + gg


# ----------------------------------------------------------------------
# Smith normal form


@st.composite
def poly_matrices(draw, shapes=((2, 2), (2, 3), (3, 2), (3, 3))):
    m, n = draw(st.sampled_from(shapes))
    p = draw(PRIMES)
    rows = [[draw(int_entries) for _ in range(n)] for _ in range(m)]
    return SeriesMatrix.from_rational_rows(p, rows)


@given(poly_matrices())
@SUITE
def test_snf_reconstruction_chain_unimodular(A):
    dec = smith_normal_form(A, working_order=8)
    check_reconstruction(A, dec, 8)
    es = [e for e in dec.exponents if e is not None]
    assert es == sorted(es)


@given(poly_matrices(shapes=((1, 2), (2, 3))))
@SUITE
def test_kernel_vectors_annihilate_and_span(A):
    m, n = A.shape
    basis = kernel_basis(A, working_order=10)
    exponents = smith_normal_form(A, working_order=10).exponents
    assert len(basis) == n - sum(e is not None for e in exponents)
    for vec in basis:
        for c in A.matvec(vec):
            assert c.is_zero_series() or c.t_order_info()[0] is None
    # independence: some maximal minor of the stacked vectors is nonzero
    if len(basis) == 1:
        assert any(c.t_order_info()[0] is not None for c in basis[0])
    elif len(basis) > 1:
        k = len(basis)
        minors = []
        for rows in combinations(range(n), k):
            sub = SeriesMatrix(A.p, [[vec[i] for vec in basis] for i in rows])
            minors.append(sub.det())
        assert any(d.t_order_info()[0] is not None for d in minors)


# ----------------------------------------------------------------------
# wedges of horizontal sections


@st.composite
def rank2_modules(draw):
    p = draw(PRIMES)
    deg1 = st.lists(st.integers(-3, 3), min_size=1, max_size=2)
    rows = [[draw(deg1) for _ in range(2)] for _ in range(2)]
    return DifferentialModule(SeriesMatrix.from_rational_rows(p, rows))


@given(rank2_modules())
@SUITE
def test_wedge_of_horizontal_sections_horizontal(mod):
    p = mod.p
    one = PadicNumber.from_int(1, p)
    zero = PadicNumber.exact_zero(p)
    u = mod.solve_horizontal([one, zero], 12)
    v = mod.solve_horizontal([zero, one], 12)
    w = u[0] * v[1] - u[1] * v[0]
    residual = mod.wedge(2).apply_D([w])
    for c in residual:
        assert c.is_zero_series()


# ----------------------------------------------------------------------
# radius multisets


RCFG = WorkbenchConfig(iterates=12)
log_rhos = st.sampled_from((Fraction(0), Fraction(1, 8), Fraction(1, 4),
                            Fraction(1, 2)))


def rank1(p: int, c: Fraction) -> DifferentialModule:
    return DifferentialModule(SeriesMatrix.from_rational_rows(p, [[[c]]]))


@given(PRIMES, nonzero_rationals, nonzero_rationals, st.booleans(), log_rhos)
@SUITE
def test_multiset_ordered_and_direct_sum_union(p, c1, c2, cancel, r):
    if cancel:
        c2 = -c1
    summands = [rank1(p, c1), rank1(p, c2)]
    total = summands[0].direct_sum(summands[1])
    ms = RadiusWorkbench(total, RCFG).multiset(r)
    assert list(ms.log_radii) == sorted(ms.log_radii)
    assert all(v <= -r for v in ms.log_radii)
    union = sorted(RadiusWorkbench(s, RCFG).column_radii(r)[0].log_radius
                   for s in summands)
    got = sorted(c.log_radius for c in RadiusWorkbench(total, RCFG).column_radii(r))
    assert got == union
    if padic(c1, p).v >= 0 and padic(c2, p).v >= 0:
        # entries in the unit ball: the Cauchy bound applies
        assert all(v >= omega_exponent(p) - r for v in ms.log_radii)


def test_unit_cancellation_pair_hits_omega():
    for p in (3, 5, 7):
        total = rank1(p, Fraction(1)).direct_sum(rank1(p, Fraction(-1)))
        ms = RadiusWorkbench(total, WorkbenchConfig(iterates=60)).multiset(Fraction(0))
        w = omega_exponent(p)
        assert ms.log_radii == (w, w)


# ----------------------------------------------------------------------
# F profile


@given(PRIMES, st.integers(1, 3),
       st.lists(log_rhos, min_size=1, max_size=4, unique=True))
@SUITE
def test_f_profile_trivial_is_linear(p, m, rs):
    rows = [[[0]] * m for _ in range(m)]
    mod = DifferentialModule(SeriesMatrix.from_rational_rows(p, rows))
    prof = RadiusWorkbench(mod, RCFG).f_profile(rs)
    assert prof.convex and prof.nondecreasing
    for r, partial in prof.rows:
        assert partial == tuple((k + 1) * r for k in range(m))


# ----------------------------------------------------------------------
# kernels against their per-coefficient reference loops
#
# Each reference below is the straightforward loop the kernel replaced.
# The kernels must return == values: v, u, N and the exact value of
# every coefficient.


def ref_gauss_norm(f: TruncatedSeries, r) -> GaussNorm:
    r = Fraction(r)
    best = None
    attained = None
    pending = []
    for i, c in enumerate(f.coeffs):
        if c.exact is not None and not c.exact:
            continue
        e = Fraction(-c.v) - r * i
        if c.u == 0:
            pending.append(e)
        elif best is None or e > best:
            best = e
            attained = i
    indeterminate = any(e > best for e in pending) if best is not None else bool(pending)
    boundary = (not f.tail_exact) and attained == f.order
    return GaussNorm(best, boundary, indeterminate)


def ref_derive(f: TruncatedSeries) -> TruncatedSeries:
    if f.order == 0:
        if f.tail_exact:
            return TruncatedSeries.zero(f.p)
        raise ValueError("window too small to differentiate")
    out = [PadicNumber.from_int(i + 1, f.p) * f.coeffs[i + 1]
           for i in range(f.order)]
    return TruncatedSeries(f.p, out, f.tail_exact)


def ref_addsub(f: TruncatedSeries, g: TruncatedSeries, sign: int) -> TruncatedSeries:
    w = f._common_window(g)
    hi = max(f.order, g.order) if w is None else w
    out = []
    for i in range(hi + 1):
        a = f.coefficient(i)
        b = g.coefficient(i)
        out.append(a + b if sign > 0 else a - b)
    return TruncatedSeries(f.p, out, w is None)


def ref_mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    w = f._common_window(g)
    hi = f.order + g.order if w is None else w
    out = [PadicNumber.exact_zero(f.p)] * (hi + 1)
    for i, a in enumerate(f.coeffs):
        if a.is_exact_zero:
            continue
        for j in range(min(g.order, hi - i) + 1):
            b = g.coeffs[j]
            if b.is_exact_zero:
                continue
            out[i + j] = out[i + j] + a * b
    return TruncatedSeries(f.p, out, w is None)


def ref_matvec(A: SeriesMatrix, vec: list[TruncatedSeries]) -> list[TruncatedSeries]:
    out = []
    for row in A.entries:
        acc = TruncatedSeries.zero(A.p)
        for a, x in zip(row, vec):
            if a.is_zero_series() or x.is_zero_series():
                continue
            acc = acc + a * x
        out.append(acc)
    return out


# A coefficient is drawn as one integer code and decoded at the prime:
# a single primitive draw per coefficient keeps case generation cheap.
COEFF_CODES = st.integers(0, 2 ** 24)
series_specs = st.lists(COEFF_CODES, min_size=1, max_size=7)
# long enough for the packed product's slot width and unpacking to show
long_series_specs = st.integers(1, 40).flatmap(
    lambda n: st.lists(COEFF_CODES, min_size=n, max_size=n))
TAIL_PAIRINGS = st.sampled_from(((True, True), (True, False),
                                 (False, True), (False, False)))


def make_coeff(p: int, code: int) -> PadicNumber:
    """Exact, capped, inexact-zero or exact-zero, by code % 6.

    Capped values know 1..6, 60 or 100 digits: past an exact value's
    DEFAULT_PRECISION cached digits, a capped partner makes the kernels
    expand the exact unit from its rational."""
    kind, rest = code % 6, code // 6
    if kind < 2:
        rest, num = divmod(rest, 8)
        den = rest % 6
        num = num - 4 if num < 4 else num - 3      # nonzero, -4..4
        return PadicNumber.from_rational(num, den + 1, p)
    if kind < 4:
        rest, v = divmod(rest, 7)
        u, n = divmod(rest, 8)
        return PadicNumber.approximate(p, v - 3, u, (1, 2, 3, 4, 5, 6, 60, 100)[n])
    if kind == 4:
        return PadicNumber.inexact_zero(p, rest % 7 - 2)
    return PadicNumber.exact_zero(p)


def make_series(p: int, specs, tail_exact: bool) -> TruncatedSeries:
    return TruncatedSeries(p, [make_coeff(p, c) for c in specs], tail_exact)


def same_outcome(kernel, reference):
    """Both return == values, or both raise the same exception type."""
    try:
        want = reference()
    except Exception as exc:  # noqa: BLE001 - the kernel must match it
        try:
            kernel()
        except type(exc):
            return
        raise AssertionError("kernel returned where the reference raised %r" % exc)
    assert kernel() == want


@given(PRIMES, series_specs, st.booleans(),
       st.sampled_from((Fraction(0), Fraction(1, 4), Fraction(1, 3),
                        Fraction(5, 8), Fraction(2))))
@SUITE
def test_gauss_norm_matches_reference(p, specs, tail_exact, r):
    f = make_series(p, specs, tail_exact)
    assert f.gauss_norm(r) == ref_gauss_norm(f, r)


@given(PRIMES, series_specs, st.booleans())
@SUITE
def test_derive_matches_reference(p, specs, tail_exact):
    f = make_series(p, specs, tail_exact)
    same_outcome(f.derive, lambda: ref_derive(f))


@given(PRIMES, long_series_specs, long_series_specs, TAIL_PAIRINGS)
@SUITE
def test_series_add_sub_mul_match_reference(p, specs_f, specs_g, tails):
    f = make_series(p, specs_f, tails[0])
    g = make_series(p, specs_g, tails[1])
    assert f + g == ref_addsub(f, g, 1)
    assert f - g == ref_addsub(f, g, -1)
    assert g - f == ref_addsub(g, f, -1)
    assert f * g == ref_mul(f, g)


@given(PRIMES, st.sampled_from(((1, 1), (1, 2), (2, 2), (2, 3))),
       st.lists(st.tuples(long_series_specs, st.booleans()), min_size=9, max_size=9))
@SUITE
def test_matvec_matches_reference(p, shape, pool):
    m, n = shape
    cells = [make_series(p, specs, tail) for specs, tail in pool]
    A = SeriesMatrix(p, [cells[i * n:(i + 1) * n] for i in range(m)])
    vec = cells[m * n:m * n + n]
    assert A.matvec(vec) == ref_matvec(A, vec)


def test_mul_falls_back_when_an_exact_partial_sum_is_demoted():
    # x * x has about 6000 bits, past DEMOTE_BITS, so the exact pair sum at
    # t**1 is demoted to a capped value with DEFAULT_PRECISION = 48 digits;
    # that value's precision caps the sum with the capped pair c * x, which
    # the packed product alone would know to c's 60 digits
    p = 5
    x = PadicNumber.from_rational(7 ** 1070 + 2, 3 ** 900, p)
    assert x.exact.numerator.bit_length() > 3000
    c = PadicNumber.approximate(p, 0, 1, 60)
    f = TruncatedSeries(p, [x, c], True)
    g = TruncatedSeries(p, [x, x], True)
    got = f * g
    assert got == ref_mul(f, g)
    assert got.coeffs[1].exact is None and got.coeffs[1].v + got.coeffs[1].N == 48


def test_mul_packs_unless_valuations_spread_far(monkeypatch):
    # a packed slot spans the operands' valuation spread plus their
    # precision: at valuations -2000 and 2000 beside 20 known digits it
    # would span over 4000 digits, so that product is summed pair by pair
    pack = series_module._pack
    widths = []

    def recording_pack(digits, width):
        widths.append(width)
        return pack(digits, width)

    monkeypatch.setattr(series_module, "_pack", recording_pack)
    p = 5
    near = TruncatedSeries(p, [PadicNumber.approximate(p, i % 3, i + 1, 20)
                               for i in range(6)], False)
    far = TruncatedSeries(p, [PadicNumber.approximate(p, 2000 if i % 2 else -2000, i + 1, 20)
                              for i in range(6)], False)
    assert near * near == ref_mul(near, near)
    assert len(widths) == 2             # one packed int per operand
    assert far * far == ref_mul(far, far)
    assert len(widths) == 2


@given(PRIMES, COEFF_CODES, COEFF_CODES, st.sampled_from(("add", "sub", "mul", "div")))
@SUITE
def test_exact_values_carry_a_unit_digit(p, spec_x, spec_y, op):
    # is_exact_zero reads u == 0 first; that is sound only while every
    # exact nonzero value has N >= 1 and a unit digit u
    x, y = make_coeff(p, spec_x), make_coeff(p, spec_y)
    try:
        z = {"add": x.__add__, "sub": x.__sub__, "mul": x.__mul__,
             "div": x.__truediv__}[op](y)
    except ArithmeticError:
        return
    for c in (x, y, z, -z):
        if c.exact is not None and c.exact != 0:
            assert c.N >= 1 and c.u % c.p != 0
        assert c.is_exact_zero == (c.exact is not None and c.exact == 0)


@given(PRIMES, nonzero_rationals, st.integers(-3, 3), st.integers(1, 10 ** 40),
       st.one_of(st.integers(1, 60), st.just(100)))
@SUITE
def test_exact_times_capped_claims_only_true_digits(p, a, v, u, n_capped):
    # the exact operand caches DEFAULT_PRECISION digits, but a product or
    # quotient claims the capped partner's relative precision, which may be
    # more; each claimed digit must agree with the exact value of a and of
    # y's known digits
    x = padic(a, p)
    y = PadicNumber.approximate(p, v, u, n_capped)
    assume(y.u)
    b = y.u * Fraction(p) ** y.v
    for got, want in ((x * y, a * b), (y * x, a * b), (x / y, a / b), (y / x, b / a)):
        assert got.N == y.N
        assert agrees(got, padic(want, p)), (got, want)


# ----------------------------------------------------------------------
# blocked recursions against their pairwise loops
#
# divide, solve_horizontal and solve_regular sum the pairs whose earlier
# output lies before a block of series.BLOCK outputs as packed products.
# Each reference below is the recursion's own pairwise loop; the results
# must be ==, coefficient by coefficient, at orders on both sides of one,
# two and three blocks.  The recursions run to order 101, so these suites
# run a hundred cases each rather than a thousand.

RECURSION_SUITE = settings(SUITE, max_examples=100)
ONE_BLOCK_SUITE = settings(SUITE, max_examples=300)
B = series_module.BLOCK
RECURSION_ORDERS = st.sampled_from((B - 1, B, B + 1, 2 * B + 1, 3 * B + 5))


def ref_divide(f: TruncatedSeries, g: TruncatedSeries, order: int) -> TruncatedSeries:
    # the recursion of TruncatedSeries.divide, for g(0) determinate
    d0 = g.coeffs[0]
    out = []
    for n in range(order + 1):
        acc = f.coefficient(n)
        for j in range(max(n - g.order, 0), n):
            b = g.coeffs[n - j]
            if b.is_exact_zero or out[j].is_exact_zero:
                continue
            acc = acc - b * out[j]
        out.append(acc / d0)
    return TruncatedSeries(f.p, out, False)


def ref_sparse_coefficients(mod: DifferentialModule, upto: int) -> dict:
    """Per-degree nonzero entries of A as (i, j, value) triples, the
    degrees in the order they first appear entry by entry."""
    by_degree: dict[int, list] = {}
    for i, row in enumerate(mod.matrix.entries):
        for j, cell in enumerate(row):
            for d in range(min(upto, cell.order) + 1):
                c = cell.coeffs[d]
                if not c.is_exact_zero:
                    by_degree.setdefault(d, []).append((i, j, c))
    return by_degree


def ref_solve_horizontal(mod: DifferentialModule, start, order: int):
    p, m = mod.p, mod.rank
    by_degree = ref_sparse_coefficients(mod, order)
    zero = PadicNumber.exact_zero(p)
    coeffs = [list(start)]
    for s in range(order):
        acc = [zero] * m
        for d, triples in by_degree.items():
            if d > s:
                continue
            prev = coeffs[s - d]
            for i, j, c in triples:
                if prev[j].is_exact_zero:
                    continue
                acc[i] = acc[i] + c * prev[j]
        inv = PadicNumber.from_int(s + 1, p)
        coeffs.append([-(a / inv) for a in acc])
    return [TruncatedSeries(p, [coeffs[s][i] for s in range(order + 1)])
            for i in range(m)]


def ref_solve_regular(H: SeriesMatrix, Bm: SeriesMatrix, order: int) -> SeriesMatrix:
    p = H.p
    m, n = H.shape
    k = Bm.shape[1]
    degree = max(c.order for row in H.entries for c in row)
    h_coeffs = [H.coefficient_matrix(d) for d in range(min(order, degree) + 1)]
    active = [d for d, hd in enumerate(h_coeffs)
              if any(not c.is_exact_zero for row in hd for c in row)]
    x_cols = [[] for _ in range(k)]
    for s in range(order + 1):
        for j in range(k):
            rhs = [Bm.entries[i][j].coefficient(s) for i in range(m)]
            for d in active:
                if d == 0 or d > s:
                    continue
                hd = h_coeffs[d]
                xprev = x_cols[j][s - d]
                for i in range(m):
                    acc = rhs[i]
                    for l in range(n):
                        if hd[i][l].is_exact_zero or xprev[l].is_exact_zero:
                            continue
                        acc = acc - hd[i][l] * xprev[l]
                    rhs[i] = acc
            x_cols[j].append(field_solve(h_coeffs[0], rhs, p))
    return SeriesMatrix(p, [[TruncatedSeries(p, [x_cols[j][s][l] for s in range(order + 1)])
                             for j in range(k)] for l in range(n)])


def make_op_coeff(p: int, code: int) -> PadicNumber:
    """A capped value (N 1..60), an inexact zero or an exact zero, by
    code % 4: the coefficients of an operator that takes blocks."""
    kind, rest = code % 4, code // 4
    if kind < 2:
        rest, v = divmod(rest, 5)
        u, N = divmod(rest, 60)
        return PadicNumber.approximate(p, v - 1, u * p + 1 + u % (p - 1), N + 1)
    if kind == 2:
        return PadicNumber.inexact_zero(p, rest % 5)
    return PadicNumber.exact_zero(p)


def make_exact_op_coeff(p: int, code: int) -> PadicNumber:
    """By code % 16: an exact rational of make_coeff (10 in 16), one whose
    numerator has about 2,000 bits (4 in 16), a capped value or an exact
    zero (1 in 16 each): the coefficients of an operator that takes one
    block.  Capped values are rare because every sum they enter is
    capped, whatever its order."""
    kind, rest = code % 16, code // 16
    if kind < 10:
        return make_coeff(p, rest * 6)
    if kind < 14:
        rest, den = divmod(rest, 6)
        num = (-1) ** rest * (2 ** 2000 // 3 + rest)
        return PadicNumber.from_rational(num, den + 1, p)
    return make_op_coeff(p, rest * 4 + (kind - 14) * 3)


def make_unit(p: int, code: int) -> PadicNumber:
    """An exact or a capped unit: a determinate constant term."""
    if code % 2:
        return PadicNumber.approximate(p, 0, code // 2 * p + 1, 1 + code % 59)
    return PadicNumber.from_rational(code // 2 * p + 1, 1 + code % 5 * p, p)


# codes that make_coeff and make_unit turn into exact values
EXACT_CODES = COEFF_CODES.map(lambda c: c - c % 6)


def codes(n: int, elements=COEFF_CODES):
    return st.lists(elements, min_size=n, max_size=n)


def make_op_series(p: int, draw, order: int, first, op) -> TruncatedSeries:
    """An operator entry: first, then operator coefficients to the order,
    or a polynomial of degree 1 or 3 that the block's pairs outrun."""
    n = draw(st.sampled_from((1, 3, order)))
    return TruncatedSeries(p, [first] + [op(p, c) for c in draw(codes(n))], n < order)


# the blocked suites draw operator coefficients from make_op_coeff and the
# other inputs from COEFF_CODES; the one-block suites below swap in these
ONE_BLOCK = dict(op=make_exact_op_coeff, orders=st.sampled_from((4, 8, 12)),
                 inputs=EXACT_CODES)


@st.composite
def divide_cases(draw, op=make_op_coeff, orders=RECURSION_ORDERS, inputs=COEFF_CODES):
    p, order = draw(PRIMES), draw(orders)
    f = make_series(p, draw(codes(order + 1, inputs)), False)
    g = make_op_series(p, draw, order, make_unit(p, draw(inputs)), op)
    return f, g, order


@given(divide_cases())
@RECURSION_SUITE
def test_blocked_divide_matches_reference(case):
    f, g, order = case
    same_outcome(lambda: f.divide(g, order), lambda: ref_divide(f, g, order))


@st.composite
def horizontal_cases(draw, op=make_op_coeff, orders=RECURSION_ORDERS, inputs=COEFF_CODES):
    p, order, m = draw(PRIMES), draw(orders), draw(st.sampled_from((1, 2)))
    rows = [[make_op_series(p, draw, order - 1, op(p, draw(COEFF_CODES)), op)
             for _ in range(m)] for _ in range(m)]
    start = [make_coeff(p, c) for c in draw(codes(m, inputs))]
    return DifferentialModule(SeriesMatrix(p, rows)), start, order


@given(horizontal_cases())
@RECURSION_SUITE
def test_blocked_solve_horizontal_matches_reference(case):
    mod, start, order = case
    same_outcome(lambda: mod.solve_horizontal(start, order),
                 lambda: ref_solve_horizontal(mod, start, order))


@st.composite
def regular_cases(draw, op=make_op_coeff, orders=RECURSION_ORDERS, inputs=COEFF_CODES):
    p, order = draw(PRIMES), draw(orders)
    m, k = draw(st.sampled_from(((1, 1), (2, 1), (2, 2))))
    rows = []
    for i in range(m):
        row = []
        for l in range(m):
            # a unit diagonal at t = 0 keeps H_0 invertible
            c0 = make_unit(p, draw(inputs)) if i == l else op(p, draw(COEFF_CODES))
            row.append(make_op_series(p, draw, order, c0, op))
        rows.append(row)
    rhs = [[make_series(p, draw(codes(order + 1, inputs)), False) for _ in range(k)]
           for _ in range(m)]
    return SeriesMatrix(p, rows), SeriesMatrix(p, rhs), order


@given(regular_cases())
@RECURSION_SUITE
def test_blocked_solve_regular_matches_reference(case):
    H, Bm, order = case
    # SeriesMatrix has no ==; its entries do
    same_outcome(lambda: solve_regular(H, Bm, order).entries,
                 lambda: ref_solve_regular(H, Bm, order).entries)


# One block: operators with exact nonzero coefficients beside exact inputs.
# Whether a partial exact sum is demoted past DEMOTE_BITS depends on the
# order of its additions, so these pin the order in which each recursion
# subtracts its pairs.

@given(divide_cases(**ONE_BLOCK))
@ONE_BLOCK_SUITE
def test_one_block_divide_matches_reference(case):
    f, g, order = case
    same_outcome(lambda: f.divide(g, order), lambda: ref_divide(f, g, order))


@given(horizontal_cases(**ONE_BLOCK))
@ONE_BLOCK_SUITE
def test_one_block_solve_horizontal_matches_reference(case):
    mod, start, order = case
    same_outcome(lambda: mod.solve_horizontal(start, order),
                 lambda: ref_solve_horizontal(mod, start, order))


@given(regular_cases(**ONE_BLOCK))
@ONE_BLOCK_SUITE
def test_one_block_solve_regular_matches_reference(case):
    H, Bm, order = case
    same_outcome(lambda: solve_regular(H, Bm, order).entries,
                 lambda: ref_solve_regular(H, Bm, order).entries)


def record_history_products(monkeypatch) -> list:
    """Install a recorder of the packed products the recursion driver
    series._online makes for block histories, through series._product;
    each records whether it returned None."""
    packed = series_module._packed_product
    calls = []

    def recording(*args):
        out = packed(*args)
        if sys._getframe(2).f_code.co_name == "_online":
            calls.append(out is None)
        return out

    monkeypatch.setattr(series_module, "_packed_product", recording)
    return calls


def test_blocked_divide_falls_back_when_valuations_spread_far(monkeypatch):
    # divisor valuations alternating -500 and 500 beside 20 known digits:
    # a packed slot of the history would span far more digits than any
    # coefficient knows, so _packed_product declines and the pairs are
    # summed in _product_loop
    calls = record_history_products(monkeypatch)
    p, order = 5, 2 * B + 1
    g = TruncatedSeries(p, [PadicNumber.from_int(1, p)]
                        + [PadicNumber.approximate(p, 500 if i % 2 else -500, i + 1, 20)
                           for i in range(order)], False)
    f = TruncatedSeries(p, [PadicNumber.approximate(p, 0, i + 1, 30)
                            for i in range(order + 1)], False)
    assert f.divide(g, order) == ref_divide(f, g, order)
    assert True in calls


def test_exact_big_operator_coefficient_takes_one_block(monkeypatch):
    # one exact coefficient of about 3000 bits among capped ones: its
    # partial sums are exact and may be demoted, so the recursion keeps
    # its own order and makes no packed product
    calls = record_history_products(monkeypatch)
    p, order = 5, 2 * B + 1
    big = PadicNumber.from_rational(7 ** 1070 + 2, 3 ** 900, p)
    assert big.exact.numerator.bit_length() > 3000
    ops = [PadicNumber.approximate(p, i % 3, i + 1, 20) for i in range(order)]
    ops[3] = big
    g = TruncatedSeries(p, [PadicNumber.from_int(1, p)] + ops, False)
    f = TruncatedSeries(p, [PadicNumber.approximate(p, 0, i + 1, 30)
                            for i in range(order + 1)], False)
    assert f.divide(g, order) == ref_divide(f, g, order)
    assert calls == []


def run_recursions(mod: DifferentialModule, order: int, calls: list) -> list[int]:
    """Packed history products made by solve_horizontal, solve_regular and
    divide on this module's sections, one count per recursion."""
    p = mod.p
    one, zero = PadicNumber.from_int(1, p), PadicNumber.exact_zero(p)
    counts = []

    def counted(fn):
        mark = len(calls)
        out = fn()
        counts.append(len(calls) - mark)
        return out

    sections = counted(lambda: [
        mod.solve_horizontal([one if i == j else zero for i in range(mod.rank)], order)
        for j in range(mod.rank)])
    frame = SeriesMatrix(p, [[sec[i] for sec in sections] for i in range(mod.rank)])
    counted(lambda: invert_regular(frame, order))
    f = sections[0][0]
    counted(lambda: f.derive().divide(f))
    return counts


def test_recursions_block_only_over_non_exact_operators(monkeypatch):
    calls = record_history_products(monkeypatch)
    order = 2 * B + 6
    for name in ("ex44_p5", "exp_small_p5"):
        assert run_recursions(corpus.build(name).module, order, calls) == [0, 0, 0], name
    capped = corpus.hypergeom_half(5, window=order).module
    assert all(run_recursions(capped, order, calls)), calls
    assert not any(calls)


# Each exit of an exact run, pinned: the product and the one-block divide
# sum their exact pairs as integers and must still be the pairwise fold.
# 3**1330 and 7**750 are coprime denominators of about 2,100 bits, so the
# sum of their reciprocals passes DEMOTE_BITS while each alone does not;
# X * X passes it too.
D1, D2 = 3 ** 1330, 7 ** 750
X = 7 ** 750 + 2


def exact_series(values, tail_exact=True) -> TruncatedSeries:
    return TruncatedSeries.from_rationals(5, values, tail_exact)


def test_exact_run_sizes_straddle_the_demotion_limit():
    assert Fraction(1, D1).denominator.bit_length() <= DEMOTE_BITS
    assert Fraction(1, D2).denominator.bit_length() <= DEMOTE_BITS
    assert (Fraction(1, D1) + Fraction(1, D2)).denominator.bit_length() > DEMOTE_BITS
    assert X.bit_length() <= DEMOTE_BITS < (X * X).bit_length()


def test_product_demotes_a_partial_sum_the_total_would_fit():
    # coefficient 2 is 1/D1 + 1/D2 - 1/D2: the partial sum is demoted
    f = exact_series([1, 1, -1])
    g = exact_series([Fraction(1, D2), Fraction(1, D2), Fraction(1, D1)])
    got = f * g
    assert got == ref_mul(f, g)
    assert got.coeffs[2].exact is None and got.coeffs[2].u


def test_divide_demotes_a_partial_sum_the_total_would_fit():
    # q = (1, 1, 1/D1): q_2 = f_2 - g_2 q_0 - g_1 q_1, and f_2 - g_2 q_0 is
    # 1/D1 + 1/D2, which the fold demotes
    f = exact_series([1, 1 + Fraction(1, D2), 1 + Fraction(1, D1)], False)
    g = exact_series([1, Fraction(1, D2), 1 - Fraction(1, D2)])
    got = f.divide(g, 2)
    assert got == ref_divide(f, g, 2)
    assert got.coeffs[2].exact is None and got.coeffs[2].u


def test_product_demotes_a_pair_product():
    # X * X first in its coefficient, and X * X after a run of two pairs;
    # X * X = 1 mod 5, so each sum gains valuation and its N shows whether
    # X * X alone was demoted
    assert X * X % 5 == 1
    for f, g, k in ((exact_series([X, -1]), exact_series([1, X]), 1),
                    (exact_series([1, 1, X]), exact_series([X, 3, 1]), 2)):
        got = f * g
        assert got == ref_mul(f, g)
        assert got.coeffs[k].exact is None and got.coeffs[k].v > 0
    # (1/D1) * D1 + (1/D2) * D2 passes DEMOTE_BITS only unreduced, over
    # the lcm D1 * D2 of the pairs' denominators: it stays exact
    got = exact_series([Fraction(1, D1), Fraction(1, D2)]) * exact_series([D2, D1])
    assert got.coeffs[1].exact == 2


def test_divide_demotes_a_pair_product():
    # q_1 = -X * q_0 is one big pair; q_2 = 1 - q_0 / 3 - X * q_1 meets
    # X * X after a run of one pair
    for f, g in ((exact_series([X, 0, 0], False), exact_series([1, X])),
                 (exact_series([1, 0, 1], False), exact_series([1, X, Fraction(1, 3)]))):
        got = f.divide(g, 2)
        assert got == ref_divide(f, g, 2)
        assert got.coeffs[2].exact is None


def test_product_meets_a_capped_factor_mid_run():
    # the valuation 600 spreads a packed slot past what the capped factor
    # knows, so the product is summed pair by pair: coefficient 2 runs two
    # exact pairs, then meets the capped one
    p = 5
    cap = PadicNumber.approximate(p, 0, 7, 5)
    f = TruncatedSeries(p, [padic(Fraction(1, 3), p), padic(Fraction(1, 13), p), cap], True)
    g = exact_series([Fraction(1, 2), Fraction(1, 11), 5 ** 600])
    assert series_module._packed_product(p, f.coeffs, g.coeffs, 4) is None
    got = f * g
    assert got == ref_mul(f, g)
    assert got.coeffs[2].exact is None


def test_divide_meets_a_capped_factor_mid_run():
    # q_2 is capped, so q_3 = -(g_3 q_0 + g_2 q_1 + g_1 q_2) runs two exact
    # pairs, then meets it
    p = 5
    f = TruncatedSeries(p, [padic(Fraction(1), p), padic(Fraction(1, 2), p),
                            PadicNumber.approximate(p, 0, 7, 5), padic(Fraction(0), p)], False)
    g = exact_series([1, Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)])
    got = f.divide(g, 3)
    assert got == ref_divide(f, g, 3)
    assert got.coeffs[3].exact is None


def test_product_and_divide_with_one_pair_per_coefficient():
    f = exact_series([Fraction(1, 3), 0, Fraction(2, 7)])
    g = exact_series([Fraction(5, 11)])
    got = f * g
    assert got == ref_mul(f, g)
    assert all(c.exact is not None for c in got.coeffs)
    # q_1 = -q_0 / 3 from the exact zero, q_2 = 1/2 - q_1 / 3 from 1/2
    f = exact_series([1, 0, Fraction(1, 2)], False)
    g = exact_series([1, Fraction(1, 3)])
    got = f.divide(g, 2)
    assert got == ref_divide(f, g, 2)
    assert all(c.exact is not None for c in got.coeffs)


# A slot whose start and pairs are all exact is summed whole when its
# size bound shows that the fold would demote nothing; the others fold.

def record_folds(monkeypatch) -> list:
    """Install a recorder of the slots of more than one pair that
    series._slot folds pair by pair; each records its number of pairs."""
    fold = series_module._fold
    calls = []

    def recording(p, sign, z, pairs):
        if len(pairs) > 2:
            calls.append(len(pairs) // 2)
        return fold(p, sign, z, pairs)

    monkeypatch.setattr(series_module, "_fold", recording)
    return calls


def exp_series(c: int, order: int) -> TruncatedSeries:
    return exact_series([Fraction(c ** k, math.factorial(k)) for k in range(order + 1)], False)


def test_exact_slots_are_summed_whole(monkeypatch):
    calls = record_folds(monkeypatch)
    f, g = exp_series(-5, 120), exp_series(5, 120)
    got = f * g
    assert got == ref_mul(f, g)
    assert [c.exact for c in got.coeffs] == [1] + [0] * 120
    mod = corpus.build("exp_small_p5").module
    p, order = mod.p, 100
    section = mod.solve_horizontal([PadicNumber.from_int(1, p)], order)[0]
    frame = SeriesMatrix(p, [[section]])
    assert (invert_regular(frame, order).entries
            == ref_solve_regular(frame, SeriesMatrix.identity(p, 1), order).entries)
    assert calls == []


def test_whole_sum_certificate_boundaries(monkeypatch):
    calls = record_folds(monkeypatch)
    # coefficient 1 is 2 / 2**(a + b) over two pairs of denominator
    # 2**(a + b): certified at DEMOTE_BITS bits; one bit past, the fold
    # demotes the first pair product
    b = DEMOTE_BITS - 2048
    for a, past in ((2047, False), (2048, True)):
        assert (2 ** (a + b)).bit_length() == DEMOTE_BITS + past
        f = exact_series([Fraction(1, 2 ** a)] * 2)
        g = exact_series([Fraction(1, 2 ** b)] * 2)
        got = f * g
        assert got == ref_mul(f, g)
        assert calls == ([2] if past else [])
        assert (got.coeffs[1].exact is None) == past
        calls.clear()
    # denominators 33 and 35: neither divides the other, and their lcm fits
    f = exact_series([Fraction(1, 3), Fraction(1, 7)])
    g = exact_series([Fraction(1, 5), Fraction(1, 11)])
    got = f * g
    assert got == ref_mul(f, g) and got.coeffs[1].exact == Fraction(1, 33) + Fraction(1, 35)
    assert calls == []
    # the lcm D1 * D2 of (1/D1) * D1 + (1/D2) * D2 passes DEMOTE_BITS: the
    # fold sums it, and it stays exactly 2
    got = exact_series([Fraction(1, D1), Fraction(1, D2)]) * exact_series([D2, D1])
    assert got.coeffs[1].exact == 2
    assert calls == [2]


# The packed product's precision A_k reads a uniform operand as a window
# minimum of the other, and a slot's pairs past its exact run are one
# capped sum: both must give the pairwise definitions' values.

def make_uniform_coeff(p: int, code: int, kind: str, level: int) -> PadicNumber:
    """A coefficient of an operand whose abs_prec (kind "abs") or
    valuation (kind "v") is level throughout, or an exact nonzero value
    (kind "exact", abs_prec infinite); by code % 16, one in 16 is an
    exact zero and one an exact value instead, which break the pattern.
    """
    sel, rest = code % 16, code // 16
    if sel == 0:
        return PadicNumber.exact_zero(p)
    if sel == 1 or kind == "exact":
        return make_coeff(p, rest * 6)
    if sel == 2:
        return PadicNumber.inexact_zero(p, level)
    unit = rest // 7 * p + 1
    if kind == "abs":
        v = level - 1 - rest % 7
        return PadicNumber.approximate(p, v, unit, level - v)
    if rest % 2:
        return PadicNumber.approximate(p, level, unit, 1 + rest % 60)
    return padic(Fraction(unit) * Fraction(p) ** level, p)


@st.composite
def precision_cases(draw):
    """Two operands of lengths 1..40, each uniform in abs_prec or in v,
    all exact or drawn freely, with a band lo..hi: from 0, or shaped like
    a block history of _online (the shorter operand the outputs 0..lo
    known, the longer one the operator's entries 0..hi)."""
    p = draw(PRIMES)
    sides = []
    for _ in range(2):
        n, level = draw(st.integers(1, 40)), draw(st.integers(-3, 6))
        kind = draw(st.sampled_from(("abs", "v", "exact", "free")))
        sides.append([make_coeff(p, c) if kind == "free"
                      else make_uniform_coeff(p, c, kind, level) for c in draw(codes(n))])
    a, b = sides
    if draw(st.booleans()):
        a, b = sorted((a, b), key=len)
        return a, b, len(b) - 1, len(a) - 1
    return a, b, draw(st.integers(0, len(a) + len(b) - 2)), 0


@given(precision_cases())
@SUITE
def test_precision_matches_pairwise_definition(case):
    a, b, hi, lo = case
    assert series_module._precision(a, b, hi, lo) == precision_oracle(a, b, hi, lo)


def make_factor(p: int, code: int) -> PadicNumber:
    """A nonzero pair factor: make_coeff with the exact zero swapped for
    a capped value of 60 digits, past DEFAULT_PRECISION."""
    if code % 6 == 5:
        return PadicNumber.approximate(p, code // 6 % 5 - 2, code // 30 * p + 1, 60)
    return make_coeff(p, code)


@st.composite
def slot_cases(draw):
    """A slot start (exact, exact zero, capped or inexact zero), its
    pairs, and a sign.  In half the cases two exact pairs lead whose
    partial sum 1/D1 + 1/D2 passes DEMOTE_BITS, so the exact run is
    demoted part way and later pairs meet a capped sum."""
    p, sign = draw(PRIMES), draw(st.sampled_from((1, -1)))
    z = make_coeff(p, draw(st.sampled_from((0, 2, 4, 5))) + 6 * draw(COEFF_CODES))
    pairs = [make_factor(p, c) for c in draw(codes(2 * draw(st.integers(1, 8))))]
    if draw(st.booleans()):
        one = PadicNumber.from_int(1, p)
        pairs = [padic(Fraction(1, D1), p), one, one, padic(Fraction(1, D2), p)] + pairs
    return p, z, pairs, sign


@given(slot_cases())
@SUITE
def test_slot_sum_matches_pairwise_fold(case):
    p, z, pairs, sign = case
    assert series_module._slot(p, sign, z, pairs) == fold_oracle(z, pairs, sign)


@st.composite
def two_term_cases(draw):
    """Two terms, one of them capped or an inexact zero, and a sign.  In
    a third of the cases a capped first term meets itself (the sum
    cancels to an inexact zero), and in another third itself with one
    digit changed and more known (the sum loses leading digits)."""
    p, sign = draw(PRIMES), draw(st.sampled_from((1, -1)))
    x, y = (make_coeff(p, c) for c in draw(codes(2)))
    how = draw(st.integers(0, 2))
    if how and x.exact is None and x.u:
        d = draw(st.integers(0, x.N + 1))
        y = PadicNumber.approximate(p, x.v, x.u + (how - 1) * p ** d, x.N + how - 1)
        y = y if sign < 0 else -y
    assume(x.exact is None or y.exact is None)
    return p, x, y, sign


@given(two_term_cases())
@example((5, PadicNumber.exact_zero(5), PadicNumber.inexact_zero(5, 2), -1))
@example((5, PadicNumber.approximate(5, 0, 7, 3), PadicNumber.approximate(5, 0, 7, 3), -1))
@example((5, PadicNumber.approximate(5, 3, 1, 1), PadicNumber.inexact_zero(5, -2), 1))
@example((5, PadicNumber.approximate(5, 0, 1, 60), PadicNumber.from_rational(1, 3, 5), 1))
@SUITE
def test_capped_sum_of_two_matches_the_two_term_rule(case):
    p, x, y, sign = case
    want = add_oracle(x, y, sign)
    assert capped_sum(p, [x, y], sign) == want
    assert (x + y if sign > 0 else x - y) == want
