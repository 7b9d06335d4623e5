"""Oracle tests for the convergence radius estimators.

Expected values were computed by hand: the Taylor iterates of the rank
two modules and the capped radii of the rank one modules have closed
forms.  An all-exact polynomial matrix has one iterate route, the scaled
integer recursion: inside DEMOTE_BITS its iterates and reads are checked
against the series recursion, kept here as the reference loop, and past
it (residues mod p**K) against plain matrix powers of a constant matrix.
"""

import json
import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from oracles import agrees, is_zero, monomial
from padiff import cli, radii
from padiff.config import WorkbenchConfig
from padiff.corpus import build, names
from padiff.diffmod import DifferentialModule
from padiff.linalg import SeriesMatrix, kernel_basis
from padiff.padic import DEMOTE_BITS, PrecisionError
from padiff.radii import (
    ColumnRadius,
    PowerIterates,
    RadiusWorkbench,
    _extrapolate,
    _polynomial_lift,
    omega_exponent,
)
from padiff.series import TruncatedSeries


CFG = WorkbenchConfig(iterates=120)


def F(a, b=1):
    return Fraction(a, b)


@pytest.fixture(scope="module")
def ex44_wb():
    return RadiusWorkbench(build("ex44_p5").module, CFG)


# ----------------------------------------------------------------------
# iterates


def all_iterates(it):
    """M_0, ..., M_count of a PowerIterates whose A is an exact
    polynomial: the integer recursion's iterates, made SeriesMatrix."""
    A, p = it.module.matrix, it.module.p
    D = radii._exact_scale(A)
    return [SeriesMatrix.identity(p, it.module.rank)] + [
        radii._scaled_matrix(p, N, D, s, K)
        for s, N, K in radii._scaled_iterates(A, D, it.count, p)]


def test_iterates_match_hand_values():
    it = PowerIterates(build("ex44_p5").module, 3)
    m1 = SeriesMatrix.from_rational_rows(5, [[[0], [1]], [[-1], [0, 1]]])
    m2 = SeriesMatrix.from_rational_rows(5, [[[-1], [0, 1]], [[0, -1], [0, 0, 1]]])
    assert agrees(it.steps[1], m1)
    assert agrees(it.steps[2], m2)


def test_iterates_annihilate_bounded_section():
    mats = all_iterates(PowerIterates(build("ex44_p5").module, 6))
    section = [monomial(5, 1), TruncatedSeries.one(5)]
    for s in range(2, 7):
        image = mats[s].matvec(section)
        assert all(c.is_zero_series() for c in image)


def test_trivial_iterates_vanish():
    mats = all_iterates(PowerIterates(build("trivial2_p5").module, 5))
    for s in range(1, 6):
        assert is_zero(mats[s])


def test_window_capping_bounds_orders():
    it = PowerIterates(build("hypergeom_half_p5").module, 30)
    assert it.window == 96
    assert all(c.order <= 96 + 1 for row in it.steps[30].entries for c in row)


def test_iterates_keep_probe_steps_and_tail_records():
    # the integer route keeps the probe steps as SeriesMatrix and a
    # valuation record per tail iterate, nothing else; mats is what the
    # benchmark's span recorder counts
    it = PowerIterates(build("ex44_p5").module, 200)
    assert sorted(it.steps) == it.probe_steps() == [100, 150, 198, 199, 200]
    assert sorted(it.records) == list(it.tail_range())
    assert it.mats == list(it.steps.values())
    assert all(isinstance(m, SeriesMatrix) for m in it.mats)
    # the series route (a capped A) keeps its tail iterates and no others
    it = PowerIterates(build("hypergeom_half_p5").module, 30)
    assert sorted(it.steps) == list(it.tail_range())


def test_iterate_count_beyond_window_rejected():
    with pytest.raises(ValueError):
        PowerIterates(build("hypergeom_half_p5").module, 400)


def test_tail_entries_read_once_per_radius(monkeypatch):
    # the top radius and every column_beta share one read of the scaled
    # tail for all radii: valuations are all taken as the iterates are
    # built, none at any radius, at most one per nonzero tail coefficient
    # (and one of D)
    valuations = []
    real = radii.vp_int
    monkeypatch.setattr(radii, "vp_int", lambda n, p: valuations.append(n) or real(n, p))
    wb = RadiusWorkbench(build("ex44_p5").module, WorkbenchConfig(iterates=40))
    it = wb.iterates()
    taken = len(valuations)
    for r in (F(1, 4), F(1, 8)):
        top = wb.top_radius(r).log_radius
        cols = [it.column_beta(r, j)[0] for j in range(2)]
        assert top == radii._capped_radius(5, r, max(cols))
        wb.top_radius(r)
        assert len(valuations) == taken
    mats = all_iterates(it)
    nonzero = [x for s in it.tail_range() for row in mats[s].entries
               for c in row for x in c.coeffs if not x.is_exact_zero]
    assert 2 * len(it.tail_range()) < taken <= len(nonzero) + 1


def test_capped_tail_entries_read_once_per_radius(monkeypatch):
    # a capped module's iterates are read by one Gauss norm per tail
    # entry and radius
    wb = RadiusWorkbench(build("hypergeom_half_p5").module, WorkbenchConfig(iterates=30))
    it = wb.iterates()
    reads = []
    real = TruncatedSeries.gauss_norm
    monkeypatch.setattr(TruncatedSeries, "gauss_norm",
                        lambda self, r: reads.append(r) or real(self, r))
    for r in (F(1, 4), F(1, 8)):
        top = wb.top_radius(r).log_radius
        cols = [it.column_beta(r, j)[0] for j in range(2)]
        assert top == radii._capped_radius(5, r, max(cols))
        wb.top_radius(r)
    assert len(reads) == 2 * len(it.tail_range()) * 4


# ----------------------------------------------------------------------
# scaled integer iterates against the series recursion


def reference_iterates(module, count):
    """The series recursion M_(s+1) = M_s' - M_s A, with no window."""
    A = module.matrix
    mats = [SeriesMatrix.identity(module.p, module.rank)]
    for _ in range(count):
        cur = mats[-1]
        mats.append(cur.derive() - cur @ A)
    return mats


def reference_beta(reads, r, flags=()):
    """(beta, all_zero, flags) of (s, vector) reads by Gauss norms."""
    best, all_zero, flags = None, True, set(flags)
    for s, vec in reads:
        norms = [c.gauss_norm(r) for c in vec]
        flags.update(name for g in norms for name, on in
                     (("indeterminate", g.indeterminate), ("window_edge", g.boundary)) if on)
        exps = [g.exponent for g in norms if g.exponent is not None]
        if not exps:
            all_zero = all_zero and all(c.is_zero_series() for c in vec)
            continue
        all_zero = False
        val = max(exps) / s
        best = val if best is None or val > best else best
    return best, all_zero, tuple(sorted(flags))


RADII = (F(0), F(1), F(1, 3), F(1, 4), F(1, 8), F(1, 16), F(1, 32))


def assert_matches_reference(module, count):
    wb = RadiusWorkbench(module, WorkbenchConfig(iterates=count))
    it = wb.iterates()
    ref = reference_iterates(module, count)
    mats = all_iterates(it)
    assert len(mats) == len(ref)
    for got, want in zip(mats, ref):
        assert got.entries == want.entries, module.label
    for s, got in it.steps.items():
        assert got.entries == ref[s].entries, (module.label, s)
    tail = it.tail_range()
    for r in RADII:
        cols = [reference_beta(((s, ref[s].column(j)) for s in tail), r)
                for j in range(module.rank)]
        assert [it.column_beta(r, j) for j in range(module.rank)] == cols, (module.label, r)
        top = max((c[0] for c in cols if c[0] is not None), default=None)
        flags = tuple(sorted({f for c in cols for f in c[2]}))
        sample = wb.top_radius(r)
        assert (sample.log_radius, sample.flags) == (radii._capped_radius(module.p, r, top),
                                                     flags)
    picks = [count - d for d in range(3) if count - d >= 1]
    stack = SeriesMatrix.vstack([ref[s] for s in picks]).map(
        lambda c: c.truncate(16) if c.order > 16 else c)
    try:
        raw = kernel_basis(stack, working_order=16)
    except (PrecisionError, ValueError):
        raw = []
    candidates = [_polynomial_lift(vec) for vec in raw]
    assert it.kernel_candidates() == candidates, module.label
    probes = sorted({count, count - 1, count - 2, 3 * count // 4, count // 2})
    # the basis vectors as well: images differ from vector to vector
    basis = [[TruncatedSeries.one(module.p) if i == j else TruncatedSeries.zero(module.p)
              for i in range(module.rank)] for j in range(module.rank)]
    for vec in candidates + basis:
        for r in RADII:
            want = reference_beta(((s, ref[s].matvec(vec)) for s in probes), r, {"probes_only"})
            assert it.vector_beta_probes(r, vec) == want, (module.label, r)
    return it


def test_scaled_iterates_match_series_recursion():
    # every all-exact corpus module and its dual, field for field
    covered = []
    for name in names():
        module = build(name).module
        if radii._exact_scale(module.matrix) is None:
            continue
        for m in (module, module.dual()):
            it = assert_matches_reference(m, 60)
            # the integer route alone, all 60 steps inside the exact budget
            assert sorted(it.steps) == it.probe_steps()
            assert all(K is None for _, _, K in radii._scaled_iterates(
                m.matrix, radii._exact_scale(m.matrix), 60, m.p))
            assert sorted(it.records) == list(it.tail_range())
        covered.append(name)
    assert {"ex44_p5", "dual_ex44_p5", "rank3_n2_p5", "sum_exp_cancel_p5"} <= set(covered)


def test_scaled_iterates_with_denominators():
    # D = 30 and v_5(D) = 1: the scaled iterates carry a power of p
    A = SeriesMatrix.from_rational_rows(5, [[[0], [F(-1, 2)]], [[F(1, 3)], [0, F(-1, 5)]]])
    assert_matches_reference(DifferentialModule(A, "denominators"), 60)
    assert radii._exact_scale(A) == 30


def _count_matmuls(monkeypatch):
    calls = []
    real = SeriesMatrix.__matmul__
    monkeypatch.setattr(SeriesMatrix, "__matmul__",
                        lambda self, other: calls.append(1) or real(self, other))
    return calls


def vp(q, p):
    """v_p of a nonzero rational, by trial division."""
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def constant_powers(rows, count):
    """M_s = (-A)**s, s = 0..count, of a constant A: plain Fraction
    matrix powers, the iterates' closed form."""
    m = len(rows)
    mats = [[[F(int(i == j)) for j in range(m)] for i in range(m)]]
    for _ in range(count):
        mats.append([[-sum(x[k] * F(rows[k][j]) for k in range(m)) for j in range(m)]
                     for x in mats[-1]])
    return mats


HUGE = 2 ** 1400


@pytest.mark.parametrize("rows", [
    [[HUGE]],
    # D = 105, v_5(D) = 1: the residues carry a unit inverse and a shift
    [[F(HUGE + 3, 3), F(5 * HUGE - 1, 15)], [F(HUGE - 7), F(-HUGE, 7)]],
])
def test_residue_iterates_agree_with_matrix_powers(rows):
    # N_3 passes DEMOTE_BITS: from there the scaled iterates are residues
    # mod p**K; every probe coefficient agrees with (-A)**s on each digit
    # it claims, to absolute precision K - s v_p(D), and the tail reads
    # are those of the exact powers
    p, count = 5, 8
    A = SeriesMatrix.from_rational_rows(p, [[[x] for x in row] for row in rows])
    it = PowerIterates(DifferentialModule(A, "huge"), count)
    D = radii._exact_scale(A)
    K = math.ceil(DEMOTE_BITS / math.log2(p))
    assert p ** K >= 2 ** DEMOTE_BITS > p ** (K - 1)
    scaled = list(radii._scaled_iterates(A, D, count, p))
    assert [k for _, _, k in scaled] == [None, None] + [K] * (count - 2)
    powers = constant_powers(rows, count)
    for s, N, _ in scaled[:2]:
        assert [[cell[0] for cell in row] for row in N] == [
            [q * D ** s for q in row] for row in powers[s]]
    assert sorted(it.steps) == it.probe_steps() == [4, 6, 7, 8]
    for s, M in it.steps.items():
        for got, want in zip(M.entries, powers[s]):
            for cell, q in zip(got, want):
                x, = cell.coeffs
                assert x.exact is None and x.u and x.v + x.N == K - s * vp(F(D), p)
                assert vp(q - x.u * F(p) ** x.v, p) >= x.v + x.N
    for r in RADII:
        for j in range(len(rows)):
            want = max(F(-min(vp(powers[s][i][j], p) for i in range(len(rows))), s)
                       for s in it.tail_range())
            assert it.column_beta(r, j) == (want, False, ())


def test_residue_iterates_that_vanish_are_indeterminate():
    # N_s = (-5**1000)**s is 0 mod p**K from s = 2 on, so no digit of the
    # tail is known: the read is None, indeterminate and not a vanishing
    # (5**3000 itself passes DEMOTE_BITS, so A would be capped)
    wb = RadiusWorkbench(DifferentialModule(SeriesMatrix.from_rational_rows(
        5, [[[5 ** 1000]]]), "deep"), WorkbenchConfig(iterates=4))
    it = wb.iterates()
    for r in RADII:
        assert it.column_beta(r, 0) == (None, False, ("indeterminate",))
    assert all(c.u == 0 and c.exact is None
               for s in it.probe_steps() for c in it.steps[s].entries[0][0].coeffs)
    sample = wb.top_radius(F(1, 4))
    assert (sample.log_radius, sample.certified) == (F(-1, 4), False)


LOG_MODULE = {"format": "padiff-module-v1", "name": "logmod", "prime": 3, "rank": 2,
              "matrix": [["0", {"coefficients": ["-1"] * 400, "tail_exact": False}],
                         ["0", "0"]]}


def test_windowed_exact_module_keeps_the_series_recursion(monkeypatch, tmp_path, capsys):
    # a coefficient window, exact or not, keeps the series recursion; the
    # radii report of A = [[0, -1/(1-t)], [0, 0]] is pinned as it reads
    # through that recursion
    path = tmp_path / "logmod.json"
    path.write_text(json.dumps(LOG_MODULE))
    calls = _count_matmuls(monkeypatch)
    assert cli.main(["radii", str(path), "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 200
    assert capsys.readouterr().out.splitlines() == [
        "logmod: boundary log_p radii 0, 0",
        "  provenance columns, columns; residual ok True; solvable rank 2",
        "  r=1/4: -1/4, -1/4",
        "  r=1/8: -1/8, -1/8",
        "  r=1/16: -1/16, -1/16",
        "  r=1/32: -1/27, -1/32",
    ]


# ----------------------------------------------------------------------
# top radius


def test_top_radius_ex44(ex44_wb):
    # exact on the boundary circle and once the cap is reached
    assert ex44_wb.top_radius(0).log_radius == F(-1, 4)
    assert ex44_wb.top_radius(F(1, 4)).log_radius == F(-1, 4)
    # interior reads overshoot: the finite tail sits between the true
    # value and the disc cap, converging only as r drops to 0
    for k in (8, 16, 32):
        sample = ex44_wb.top_radius(F(1, k))
        assert F(-1, 4) <= sample.log_radius <= F(-1, k)
        assert sample.certified


def test_top_radius_rank_one():
    assert RadiusWorkbench(build("exp_unit_p5").module, CFG).top_radius(
        F(1, 8)).log_radius == F(-1, 4)
    # matrix [5] contracts: the estimate caps at the disc radius
    assert RadiusWorkbench(build("exp_small_p5").module, CFG).top_radius(
        F(1, 8)).log_radius == F(-1, 8)
    assert RadiusWorkbench(build("trivial1_p5").module, CFG).top_radius(
        F(1, 16)).log_radius == F(-1, 16)


def test_omega_exponent():
    assert omega_exponent(5) == F(-1, 4)
    assert omega_exponent(3) == F(-1, 2)


# ----------------------------------------------------------------------
# column route


def test_ex44_columns_echelonized(ex44_wb):
    cols = ex44_wb.column_radii(F(1, 8))
    assert F(-1, 4) <= cols[0].log_radius <= F(-1, 8)
    assert not cols[0].echelonized
    moved = cols[1]
    assert moved.echelonized
    assert moved.certified
    assert moved.log_radius == F(-1, 8)
    assert agrees(moved.column[0], monomial(5, 1))
    assert agrees(moved.column[1], TruncatedSeries.one(5))


def test_dual_columns_have_no_kernel():
    wb = RadiusWorkbench(build("dual_ex44_p5").module, CFG)
    cols = wb.column_radii(F(1, 8))
    assert not any(c.echelonized for c in cols)


# ----------------------------------------------------------------------
# combined multiset (interior estimates)


def test_multiset_ex44_interior(ex44_wb):
    ms = ex44_wb.multiset(F(1, 8))
    assert F(-1, 4) <= ms.log_radii[0] <= F(-1, 8)
    # the kernel column converges on the whole disc, so it caps exactly
    assert ms.log_radii[1] == F(-1, 8)


def test_multiset_sum_exp_rejects_cancelled_wedge():
    # the top wedge is the zero matrix, so an exterior-power read would
    # claim a unit second radius; the columns of the module and of its
    # dual both read omega, and below the cap that is a lower bound only
    wb = RadiusWorkbench(build("sum_exp_cancel_p5").module, CFG)
    ms = wb.multiset(F(1, 8))
    assert ms.log_radii == (F(-1, 4), F(-1, 4))
    assert ms.certified == (True, False)


# ----------------------------------------------------------------------
# boundary extrapolation


def test_boundary_ex44_all_primes():
    for name in ("ex44_p3", "ex44_p5", "ex44_p7"):
        entry = build(name)
        wb = RadiusWorkbench(entry.module, CFG)
        report = wb.boundary_multiset()
        expected = tuple(Fraction(s) for s in entry.expected["boundary_log_radii"])
        assert report.log_radii == expected
        assert report.solvable_rank == 1
        assert report.provenance == ("columns", "columns")


def test_boundary_dual_reads_the_dual():
    wb = RadiusWorkbench(build("dual_ex44_p5").module, CFG)
    report = wb.boundary_multiset()
    assert report.log_radii == (F(-1, 4), F(0))
    assert report.solvable_rank == 1
    # no section realises the unit radius: the dual, ex44, has one
    assert report.provenance[1] == "dual"


def test_boundary_sum_exp_keeps_columns():
    wb = RadiusWorkbench(build("sum_exp_cancel_p5").module, CFG)
    report = wb.boundary_multiset()
    assert report.log_radii == (F(-1, 4), F(-1, 4))
    assert report.solvable_rank == 0
    assert report.provenance[1] == "columns"


def test_boundary_reads_and_checks_sort_together(monkeypatch):
    # column 1 reads above column 0 on every grid circle, but its steeper
    # fit fails and extrapolates below column 0's: the sort must carry
    # each fit check with its value
    reads = {F(1, 32): F(0), F(1, 16): F(1, 32), F(1, 8): F(0), F(1, 4): F(0)}

    def column_radii(self, r):
        basis = [TruncatedSeries.one(5)] * 2
        return [ColumnRadius(basis, -r, True, False, ()),
                ColumnRadius(basis, reads[r], True, False, ())]

    monkeypatch.setattr(RadiusWorkbench, "column_radii", column_radii)
    report = RadiusWorkbench(build("trivial2_p5").module, CFG).boundary_multiset()
    assert report.log_radii == (F(0), F(0))
    assert report.residual_ok == (True, True)
    assert report.certified == (True, True)


SUM_PARTS = ("ex44_p5", "dual_ex44_p5", "exp_unit_p5", "exp_small_p5", "trivial1_p5",
             "sum_exp_cancel_p5")


def _law_cases():
    """(module, true boundary log radii): every direct sum of two
    SUM_PARTS, with repeats, against the union of the summands' radii,
    and the dual of every corpus module but the hypergeometric ones
    against the module's own radii."""
    parts = {name: build(name) for name in SUM_PARTS}
    for a, b in combinations_with_replacement(SUM_PARTS, 2):
        union = parts[a].expected["boundary_log_radii"] + parts[b].expected["boundary_log_radii"]
        yield parts[a].module.direct_sum(parts[b].module), union
    for name in names():
        if not name.startswith("hypergeom"):
            entry = build(name)
            yield entry.module.dual(), entry.expected["boundary_log_radii"]


def test_boundary_union_and_duality_laws():
    # every read is a lower bound, and a certified one is the truth
    for module, truth in _law_cases():
        truth = sorted(Fraction(v) for v in truth)
        report = RadiusWorkbench(module, WorkbenchConfig(iterates=60)).boundary_multiset()
        for got, want, cert in zip(report.log_radii, truth, report.certified):
            assert got <= want, (module.label, report.log_radii, truth)
            assert got == want or not cert, (module.label, report.log_radii, truth)


def test_boundary_trivial():
    report = RadiusWorkbench(build("trivial3_p5").module, CFG).boundary_multiset()
    assert report.log_radii == (F(0), F(0), F(0))
    assert report.solvable_rank == 3


def test_boundary_rank3():
    report = RadiusWorkbench(build("rank3_n2_p5").module, CFG).boundary_multiset()
    assert report.log_radii == (F(-1, 4), F(0), F(0))
    assert report.solvable_rank == 2


def test_boundary_hypergeom_short_tail():
    # iterate count low enough that the innermost grid circle misses the
    # factorial decay; the shifted fit window has to absorb that point
    wb = RadiusWorkbench(build("hypergeom_half_p5").module, WorkbenchConfig(iterates=80))
    report = wb.boundary_multiset()
    assert report.log_radii == (F(0), F(0))
    assert report.solvable_rank == 2
    assert all(report.residual_ok)


# ----------------------------------------------------------------------
# profile of the radius filtration


def test_f_profile_trivial_is_linear():
    wb = RadiusWorkbench(build("trivial2_p5").module, CFG)
    prof = wb.f_profile([F(1, 8), F(1, 4), F(1, 2)])
    for r, partial in prof.rows:
        assert partial == (r, 2 * r)
    assert prof.convex
    assert prof.nondecreasing


def test_f_profile_ex44(ex44_wb):
    # interior reads drift toward the cap as r grows, so the first level
    # is only bracketed; the second level adds the capped column exactly
    prof = ex44_wb.f_profile([F(1, 32), F(1, 16), F(1, 8)])
    for r, partial in prof.rows:
        assert r <= partial[0] <= F(1, 4)
        assert partial[1] == partial[0] + r
    assert prof.convex


# ----------------------------------------------------------------------
# small numeric helpers


def test_extrapolate_exact_line():
    pts = [(F(1, k), F(-1, k)) for k in (4, 8, 16, 32)]
    intercept, _, ok = _extrapolate(pts)
    assert intercept == 0
    assert ok


def test_extrapolate_fallback_drops_broken_point():
    pts = [(F(1, 32), F(-1, 32) - F(1, 100)), (F(1, 16), F(-1, 16)),
           (F(1, 8), F(-1, 8)), (F(1, 4), F(-1, 4))]
    intercept, used, ok = _extrapolate(pts)
    assert intercept == 0
    assert ok
    assert used[0][0] == F(1, 16)


@pytest.mark.parametrize("pts,window", [
    # two points: the fit of every two-k --rho-grid, with nothing to check it
    ([(F(1, 5), F(-1, 5)), (F(1, 3), F(-1, 3))], slice(0, 2)),
    # the broken first point fails the check; the shifted window has no
    # point left to check it
    ([(F(1, 9), F(-1, 9) - F(1, 100)), (F(1, 5), F(-1, 5)), (F(1, 3), F(-1, 3))],
     slice(1, 3)),
    # both checks fail: back to the window at the boundary
    ([(F(1, 32), F(-1, 32)), (F(1, 16), F(-1, 16)),
      (F(1, 8), F(-1, 8) - F(1, 100)), (F(1, 4), F(-1, 4) + F(1, 100))], slice(0, 2)),
])
def test_extrapolate_unchecked_fit_is_flagged(pts, window):
    intercept, used, ok = _extrapolate(pts)
    assert intercept == 0
    assert used == tuple(pts[window])
    assert not ok
