"""Oracle tests for the convergence radius estimators.

Expected values were computed by hand: the Taylor iterates of the rank
two modules and the capped radii of the rank one modules have closed
forms.
"""

from fractions import Fraction

import pytest

from padiff.config import RadiiConfig
from padiff.corpus import build
from padiff.linalg import SeriesMatrix
from padiff.radii import (
    PowerIterates,
    RadiusWorkbench,
    _extrapolate,
    omega_exponent,
)
from padiff.series import TruncatedSeries


CFG = RadiiConfig(iterates=120)


def F(a, b=1):
    return Fraction(a, b)


@pytest.fixture(scope="module")
def ex44_wb():
    return RadiusWorkbench(build("ex44_p5").module, CFG)


# ----------------------------------------------------------------------
# iterates


def test_iterates_match_hand_values():
    it = PowerIterates(build("ex44_p5").module, 3)
    m1 = SeriesMatrix.from_rational_rows(5, [[[0], [1]], [[-1], [0, 1]]])
    m2 = SeriesMatrix.from_rational_rows(5, [[[-1], [0, 1]], [[0, -1], [0, 0, 1]]])
    assert it.mats[1].agrees(m1)
    assert it.mats[2].agrees(m2)


def test_iterates_annihilate_bounded_section():
    it = PowerIterates(build("ex44_p5").module, 6)
    section = [TruncatedSeries.monomial(5, 1), TruncatedSeries.one(5)]
    for s in range(2, 7):
        image = it.mats[s].matvec(section)
        assert all(c.is_zero_series() for c in image)


def test_trivial_iterates_vanish():
    it = PowerIterates(build("trivial2_p5").module, 5)
    for s in range(1, 6):
        assert it.mats[s].is_zero()


def test_window_capping_bounds_orders():
    it = PowerIterates(build("hypergeom_half_p5").module, 30)
    assert it.window == 96
    assert all(c.order <= 96 + 1 for row in it.mats[30].entries for c in row)


def test_iterate_count_beyond_window_rejected():
    with pytest.raises(ValueError):
        PowerIterates(build("hypergeom_half_p5").module, 400)


def test_tail_entries_read_once_per_radius(monkeypatch):
    # matrix_beta and every column_beta share one Gauss norm read per
    # tail entry and radius
    it = PowerIterates(build("ex44_p5").module, 40)
    reads = []
    real = TruncatedSeries.gauss_norm
    monkeypatch.setattr(TruncatedSeries, "gauss_norm",
                        lambda self, r: reads.append(r) or real(self, r))
    for r in (F(1, 4), F(1, 8)):
        top, _ = it.matrix_beta(r, 0.5)
        cols = [it.column_beta(r, 0.5, j)[0] for j in range(2)]
        assert top == max(cols)
        it.matrix_beta(r, 0.5)
    assert len(reads) == 2 * len(it.tail_range(0.5)) * 4


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
    assert moved.column[0].agrees(TruncatedSeries.monomial(5, 1))
    assert moved.column[1].agrees(TruncatedSeries.one(5))


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
    # the top wedge is the zero matrix, so the ladder would report a
    # unit second radius; the intrinsic gate must throw that rung out
    wb = RadiusWorkbench(build("sum_exp_cancel_p5").module, CFG)
    ms = wb.multiset(F(1, 8))
    assert ms.log_radii == (F(-1, 4), F(-1, 4))
    assert "ladder_invalid" in ms.flags


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
        assert report.provenance == ("agree", "agree")


def test_boundary_dual_uses_ladder():
    wb = RadiusWorkbench(build("dual_ex44_p5").module, CFG)
    report = wb.boundary_multiset()
    assert report.log_radii == (F(-1, 4), F(0))
    assert report.solvable_rank == 1
    # no section realises the unit radius: it comes from the wedge route
    assert report.provenance[1] == "ladder"


def test_boundary_sum_exp_keeps_columns():
    wb = RadiusWorkbench(build("sum_exp_cancel_p5").module, CFG)
    report = wb.boundary_multiset()
    assert report.log_radii == (F(-1, 4), F(-1, 4))
    assert report.solvable_rank == 0
    assert report.provenance[1] == "columns"


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
    wb = RadiusWorkbench(build("hypergeom_half_p5").module, RadiiConfig(iterates=80))
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
    intercept, _, ok = _extrapolate(pts, F(1, 1000))
    assert intercept == 0
    assert ok


def test_extrapolate_fallback_drops_broken_point():
    pts = [(F(1, 32), F(-1, 32) - F(1, 100)), (F(1, 16), F(-1, 16)),
           (F(1, 8), F(-1, 8)), (F(1, 4), F(-1, 4))]
    intercept, used, ok = _extrapolate(pts, F(1, 1000))
    assert intercept == 0
    assert ok
    assert used[0][0] == F(1, 16)
