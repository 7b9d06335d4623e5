"""Acceptance gate: eight end-to-end checks, one test per criterion.

Each test prints a single PASS line with the measured numbers once its
asserts clear, so a verbose run reads as a checklist.  Tolerances are
pinned here and nowhere else: 5 s wall for the worked example at order
400, 1e-3 log_p units for boundary extrapolation at 200 iterates, 0.1
for log-growth bounds, 0.05 for the boundary transfer reading.
"""

import time
from fractions import Fraction

import pytest

from oracles import agrees, factorial_valuation, hypergeom_series_capped, hypergeom_valuation_oracle
import test_properties
from padiff import corpus, padic
from padiff.config import WorkbenchConfig
from padiff.diffmod import DifferentialModule
from padiff.linalg import SeriesMatrix
from padiff.padic import PadicNumber
from padiff.pipeline import construct_submodule, growth_order, verify_conjecture
from padiff.radii import RadiusWorkbench, omega_exponent
from padiff.series import TruncatedSeries

CFG_SWEEP = WorkbenchConfig(order=260, iterates=80)
CFG_DIFF = WorkbenchConfig(order=160, iterates=48)
WINDOW = 10 ** 4


def F(a, b=1):
    return Fraction(a, b)


def _line(n: int, detail: str):
    print("criterion %d: PASS (%s)" % (n, detail))


def _assert_exact_monomial(series: TruncatedSeries, k: int, value: int = 1):
    """Exactly value * t**k: the named coefficient, exact zeros elsewhere."""
    for i, c in enumerate(series.coeffs):
        if i == k:
            assert c.is_exact and c.exact == value
        else:
            assert c.is_exact_zero


@pytest.fixture(scope="module")
def sweep():
    """One verification report per corpus module at the shared config."""
    return {name: verify_conjecture(corpus.build(name).module, CFG_SWEEP)
            for name in corpus.names()}


# ----------------------------------------------------------------------
# 1: the rank-two worked example, exactly and fast


def test_criterion_1_worked_example_reproduction():
    cfg = WorkbenchConfig()
    assert cfg.order == 400
    worst = 0.0
    for p in (3, 5, 7):
        mod = corpus.build("ex44_p%d" % p).module
        t0 = time.perf_counter()
        h0 = mod.h0_basis(cfg.order)
        witness = construct_submodule(mod, cfg, h0=h0)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)

        assert h0.dim == 1 and not h0.inconclusive
        section = h0.basis[0]
        _assert_exact_monomial(section[0], 1)
        _assert_exact_monomial(section[1], 0)
        residual = mod.apply_D(section)
        assert all(c.is_zero_series() for c in residual)

        assert witness.rank == 1
        _assert_exact_monomial(witness.phi.entries[0][0], 1)
        _assert_exact_monomial(witness.phi.entries[1][0], 0)
        assert witness.submodule.matrix.entries[0][0].is_zero_series()
        assert witness.diagnostics.ok
        assert elapsed < 5.0, "p=%d took %.2f s" % (p, elapsed)
    _line(1, "p in {3,5,7}: section (t,1) exact, generator maps to "
             "t*e1 + e2, worst wall %.2f s < 5 s" % worst)


# ----------------------------------------------------------------------
# 2: the dual has no bounded sections, stably in the solve order


def test_criterion_2_dual_vanishing_stable():
    mod = corpus.build("dual_ex44_p5").module
    dims = {}
    for order in (200, 400):
        h0 = mod.h0_basis(order)
        assert not h0.inconclusive
        dims[order] = h0.dim
    assert dims == {200: 0, 400: 0}
    _line(2, "dual section count 0 at orders 200 and 400")


# ----------------------------------------------------------------------
# 3: radius estimators against closed forms


def test_criterion_3_radius_calibration():
    grid = (F(0), F(1, 32), F(1, 16), F(1, 8), F(1, 4), F(1, 2))
    for rank in (1, 2, 3):
        mod = DifferentialModule(SeriesMatrix.zero(5, rank, rank))
        wb = RadiusWorkbench(mod, WorkbenchConfig(iterates=200))
        for r in grid:
            ms = wb.multiset(r)
            assert ms.log_radii == (-r,) * rank

    tol = 1e-3
    worst = 0.0
    units = [(p, 1) for p in (3, 5, 7)] + [(5, 2), (7, 3)]
    for p, c in units:
        mod = DifferentialModule(SeriesMatrix.from_rational_rows(p, [[[c]]]))
        wb = RadiusWorkbench(mod, WorkbenchConfig(iterates=200))
        err = abs(float(wb.top_radius(F(0)).log_radius - omega_exponent(p)))
        worst = max(worst, err)
        assert err < tol, "[%d] at p=%d off by %g" % (c, p, err)

    for p in (3, 5, 7):
        mod = corpus.build("ex44_p%d" % p).module
        boundary = RadiusWorkbench(mod, WorkbenchConfig(iterates=200))
        got = boundary.boundary_multiset().log_radii
        want = (omega_exponent(p), F(0))
        assert len(got) == 2
        for g, w in zip(got, want):
            err = abs(float(g - w))
            worst = max(worst, err)
            assert err < tol
    _line(3, "zero matrix exact at 6 samples x 3 ranks, unit rank-1 and "
             "worked-example boundary within %.1e <= 1e-3 log_p units" % worst)


# ----------------------------------------------------------------------
# 4: boundary radius 1 must co-occur with full solvability


def test_criterion_4_transfer_both_directions(sweep):
    assert len(sweep) >= 10
    for name, rep in sweep.items():
        unit = abs(float(rep.boundary.log_radii[0])) <= rep.transfer.tolerance
        solvable = rep.h0_dim == rep.rank
        assert unit == solvable, name
        assert rep.transfer.consistent, name
    _line(4, "boundary radius 1 iff fully solvable on all %d modules"
             % len(sweep))


# ----------------------------------------------------------------------
# 5: the growth bounds, with the long-window hypergeometric oracle


def test_criterion_5_growth_bounds(sweep):
    for name, rep in sweep.items():
        assert rep.verdict == "PASS", name
        if rep.h0_dim >= 1:
            assert rep.bound == rep.h0_dim - 1 + CFG_SWEEP.growth_tolerance
            assert all(d <= rep.bound for d in rep.delta_hats), name
        else:
            assert rep.vacuous

    for p in (3, 5, 7):
        dwork = sweep["hypergeom_half_p%d" % p].dwork
        assert dwork.applicable and dwork.verdict == "PASS"
        assert dwork.delta_hats == (0.0, 0.0)
        assert dwork.fil_stable

        capped = hypergeom_series_capped(p, WINDOW)
        for k, c in enumerate(capped):
            assert c.v == hypergeom_valuation_oracle(k, p)
        prof = growth_order([TruncatedSeries(p, capped, False)], WINDOW, start=0)
        assert prof.value == 0.0 and not prof.indeterminate
    _line(5, "all %d verification verdicts PASS; hypergeometric kernel "
             "delta_hat 0 over 10^4 coefficients, valuations match the "
             "Legendre oracle at every index" % len(sweep))


# ----------------------------------------------------------------------
# 6: growth estimator calibration on synthetic series


def test_criterion_6_growth_estimator_calibration():
    lo = WINDOW // 4
    for p in (3, 5, 7):
        harmonic = TruncatedSeries.from_rationals(
            p, [F(1)] + [F(1, i) for i in range(1, WINDOW + 1)],
            tail_exact=False)
        read = growth_order([harmonic], WINDOW)
        assert read.window == (lo, WINDOW)
        d = read.value
        assert 0.9 <= d <= 1.1, "p=%d delta %.4f" % (p, d)

        # a polynomial section: the judged tail is all exact zeros
        poly = TruncatedSeries.from_rationals(p, [3, 0, F(2, 7), 5]).pad_to(40)
        order = growth_order([poly])
        assert order.value == 0.0 and not order.indeterminate

        # exp-type: only the valuations matter, so capped units suffice
        coeffs = [PadicNumber.approximate(p, -factorial_valuation(i, p), 1, 1)
                  for i in range(WINDOW + 1)]
        read = growth_order([TruncatedSeries(p, coeffs, False)], WINDOW)
        assert read.window == (lo, WINDOW)
        lam = read.lam
        assert abs(lam * (p - 1) - 1) <= F(1, 10)
    _line(6, "harmonic delta_hat in [0.9, 1.1], polynomial exactly 0, "
             "exp-type lam within 10% of 1/(p-1), window 10^4, p in {3,5,7}")


# ----------------------------------------------------------------------
# 7: the randomized law suites and their case budget


def test_criterion_7_property_suites_configured():
    suites = (
        "test_norm_multiplicative_and_ultrametric",
        "test_division_round_trip_exact",
        "test_leibniz_identity",
        "test_snf_reconstruction_chain_unimodular",
        "test_kernel_vectors_annihilate_and_span",
        "test_wedge_of_horizontal_sections_horizontal",
        "test_multiset_ordered_and_direct_sum_union",
        "test_f_profile_trivial_is_linear",
    )
    for name in suites:
        assert hasattr(test_properties, name), name
    assert hasattr(test_properties, "test_unit_cancellation_pair_hits_omega")
    assert test_properties.SUITE.max_examples >= 1000
    assert test_properties.SUITE.derandomize is True
    _line(7, "%d suites at >= 1000 derandomized cases each, plus the "
             "cancellation-pair oracle; they run in this same session"
             % len(suites))


# ----------------------------------------------------------------------
# 8: doubled p-adic precision must confirm every claimed digit


def _series_agree(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    hi = min(a.order, b.order)
    return all(agrees(a.coeffs[i], b.coeffs[i]) for i in range(hi + 1))


def _matrices_agree(a, b) -> bool:
    return all(_series_agree(x, y)
               for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb))


def _is_exact(module: DifferentialModule) -> bool:
    return all(c.is_exact for row in module.matrix.entries for cell in row
               for c in cell.coeffs)


def test_criterion_8_precision_doubling_differential(monkeypatch):
    # the high side of an exact entry caches 96 digits in every exact
    # value, and so in every value demoted from one; that of a capped
    # entry (the hypergeometric ones) builds its data to 96 digits
    checked = 0
    for name in corpus.names():
        low = corpus.build(name).module
        h0_low = low.h0_basis(CFG_DIFF.order)
        rl = verify_conjecture(low, CFG_DIFF, h0=h0_low)
        with monkeypatch.context() as patch:
            if _is_exact(low):
                patch.setattr(padic, "DEFAULT_PRECISION", 96)
                high = corpus.build(name).module
            else:
                high = corpus.build(name, precision=96).module
            h0_high = high.h0_basis(CFG_DIFF.order)
            rh = verify_conjecture(high, CFG_DIFF, h0=h0_high)
        assert h0_low.dim == h0_high.dim, name
        for sec_l, sec_h in zip(h0_low.basis, h0_high.basis):
            for cl, ch in zip(sec_l, sec_h):
                assert _series_agree(cl, ch), name

        assert rl.verdict == rh.verdict, name
        assert rl.delta_hats == rh.delta_hats, name
        assert rl.boundary.log_radii == rh.boundary.log_radii, name
        assert rl.transfer.log_radius == rh.transfer.log_radius, name
        assert rl.transfer.consistent == rh.transfer.consistent, name
        wl, wh = rl.witness, rh.witness
        assert (wl is None) == (wh is None), name
        if wl is not None and wl.phi is not None:
            assert _matrices_agree(wl.phi, wh.phi), name
            assert _matrices_agree(wl.theta, wh.theta), name
            for el, eh in zip(wl.e, wh.e):
                assert _series_agree(el, eh), name
        checked += 1
    _line(8, "all %d corpus pipelines at doubled precision agree on every "
             "claimed digit: sections, witness maps, radii, verdicts"
             % checked)
