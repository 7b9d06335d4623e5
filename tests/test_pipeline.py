"""Oracle tests for the growth pipeline and the submodule witness.

The construction targets have closed forms: the rank two module with
polynomial section (t, 1) induces the zero connection on its kernel
line, the diagonal hypergeometric module and the small exponential are
their own witnesses, and the dual with no bounded sections takes the
zero branch.  Growth reads are pinned on series whose coefficient
valuations are known exactly.
"""

import math
from dataclasses import replace
from fractions import Fraction

import pytest

from oracles import agrees, monomial
from padiff.config import WorkbenchConfig
from padiff.corpus import build
from padiff.diffmod import H0Report
from padiff.linalg import SeriesMatrix
from padiff.padic import PadicNumber
from padiff.pipeline import (
    NOT_APPLICABLE,
    PASS,
    WitnessError,
    _normalize_sup,
    _section_frame,
    _wedge_against,
    construct_submodule,
    growth_order,
    transfer_check,
    verify_conjecture,
    verify_dwork_bound,
)
from padiff.radii import BoundaryReport
from padiff.series import TruncatedSeries


CFG = WorkbenchConfig(iterates=120)


def F(a, b=1):
    return Fraction(a, b)


@pytest.fixture(scope="module")
def ex44_witness():
    return construct_submodule(build("ex44_p5").module, CFG)


@pytest.fixture(scope="module")
def ex44_conjecture():
    return verify_conjecture(build("ex44_p5").module, CFG)


@pytest.fixture(scope="module")
def hyp_h0():
    module = build("hypergeom_half_p5").module
    return module, module.h0_basis(CFG.order)


# ----------------------------------------------------------------------
# growth order reads


def test_growth_order_polynomial_is_zero():
    section = [TruncatedSeries.from_rationals(5, [0, 1, 1]),
               TruncatedSeries.one(5)]
    got = growth_order(section, order=200)
    assert got.value == 0.0
    assert not got.indeterminate


def test_growth_order_harmonic_tail():
    # a_i = 1/i has log-growth order exactly 1; on the window [500, 2000]
    # the read peaks at i = 625 = 5**4
    coeffs = [F(1)] + [F(1, i) for i in range(1, 2001)]
    section = [TruncatedSeries.from_rationals(5, coeffs, tail_exact=False)]
    got = growth_order(section, order=2000)
    assert 0.9 <= got.value <= 1.1
    assert got.attained == (0, 625)


def test_growth_order_tie_rules():
    # each coordinate reads ln p / ln 2 at both i = 1 (v = -1) and
    # i = 3 (v = -2): the later coordinate and the earlier index win
    for p in (3, 5, 7):
        coord = TruncatedSeries.from_rationals(p, [1, F(1, p), 1, F(1, p * p)],
                                               tail_exact=False)
        lnp = math.log(p)
        assert 1 * lnp / math.log(2) == 2 * lnp / math.log(4)
        got = growth_order([coord, coord], start=0)
        assert got.attained == (1, 1)
        assert got.lam == 1
        assert got.window == (1, 3)
        assert not got.indeterminate

        # an inexact zero with v < 0 could be larger than any read
        hidden = TruncatedSeries(p, coord.coeffs[:2] + [PadicNumber.inexact_zero(p, -1)]
                                 + coord.coeffs[3:])
        assert growth_order([coord, hidden], start=0).indeterminate
        bounded = TruncatedSeries(p, coord.coeffs[:2] + [PadicNumber.inexact_zero(p, 0)]
                                  + coord.coeffs[3:])
        assert not growth_order([coord, bounded], start=0).indeterminate


# ----------------------------------------------------------------------
# radius transfer


def test_transfer_ex44():
    chk = transfer_check(build("ex44_p5").module, CFG)
    assert chk.log_radius == F(-1, 4)
    assert (chk.h0_dim, chk.rank) == (1, 2)
    assert chk.consistent


def test_transfer_trivial2():
    chk = transfer_check(build("trivial2_p5").module, CFG)
    assert chk.log_radius == 0
    assert chk.h0_dim == chk.rank == 2
    assert chk.consistent


# ----------------------------------------------------------------------
# the solvable-case growth bound


def test_dwork_not_applicable_below_full_rank():
    rep = verify_dwork_bound(build("ex44_p5").module, CFG)
    assert not rep.applicable
    assert rep.verdict == NOT_APPLICABLE


def test_dwork_trivial2():
    rep = verify_dwork_bound(build("trivial2_p5").module, CFG)
    assert rep.applicable
    assert rep.verdict == PASS
    assert rep.delta_hats == (0.0, 0.0)
    assert rep.fil_stable


def test_dwork_hypergeom():
    rep = verify_dwork_bound(build("hypergeom_half_p5").module, CFG)
    assert rep.verdict == PASS
    assert rep.h0_dim == 2
    assert rep.delta_hats == (0.0, 0.0)


# ----------------------------------------------------------------------
# wedge helpers


def test_wedge_against_rank2():
    e = [monomial(5, 1), TruncatedSeries.one(5)]
    B = _wedge_against(5, 2, 1, e)
    want = SeriesMatrix.from_rational_rows(5, [[[1], [0, -1]]])
    assert agrees(B, want)


def test_wedge_against_rank3():
    e = [TruncatedSeries.zero(5), monomial(5, 1),
         TruncatedSeries.one(5)]
    B = _wedge_against(5, 3, 2, e)
    want = SeriesMatrix.from_rational_rows(5, [[[1], [0, -1], [0]]])
    assert agrees(B, want)


def test_normalize_sup_scales_to_unit():
    e = [TruncatedSeries.from_rationals(5, [0, 5]),
         TruncatedSeries.from_rationals(5, [25])]
    scaled, sup, certified = _normalize_sup(e, 5)
    assert sup == F(-1)
    assert certified
    assert scaled[0].gauss_norm(F(0)).exponent == 0
    assert scaled[1].gauss_norm(F(0)).exponent == -1


def test_normalize_sup_strict_rejects_drowned_read(hyp_h0):
    # the capped determinant loses all precision past halfway through
    # the window, so no sup claim on it is certifiable
    module, h0 = hyp_h0
    det = _section_frame(module.p, h0.basis).det()
    with pytest.raises(WitnessError) as exc:
        _normalize_sup([det], module.p)
    assert exc.value.inconclusive


# ----------------------------------------------------------------------
# the witness construction, branch by branch


def test_construct_ex44_kernel_line(ex44_witness):
    w = ex44_witness
    d = w.diagnostics
    assert d.branch == "generic"
    assert w.rank == 1
    t = monomial(5, 1)
    one = TruncatedSeries.one(5)
    assert agrees(w.phi.entries[0][0], t)
    assert agrees(w.phi.entries[1][0], one)
    assert agrees(w.theta.entries[0][0], one)
    assert agrees(w.e[0], t)
    assert agrees(w.e[1], one)
    assert w.submodule.matrix.entries[0][0].is_zero_series()
    assert d.h0_of_submodule == 1
    assert d.hypothesis_log_radius == F(-1, 4)
    assert d.hypothesis_ok
    assert d.e_sup_exponent == 0
    assert d.e_sup_certified
    assert d.e_horizontal and d.d_stable and d.diagram_ok
    assert d.ok


def test_construct_dual_zero_branch():
    w = construct_submodule(build("dual_ex44_p5").module, CFG)
    assert w.diagnostics.branch == "zero"
    assert w.rank == 0
    assert w.submodule is None and w.phi is None
    assert w.theta is None and w.e is None
    assert w.diagnostics.ok


def test_construct_trivial2_full_branch():
    w = construct_submodule(build("trivial2_p5").module, CFG)
    d = w.diagnostics
    assert d.branch == "full"
    assert w.rank == 2
    ident = SeriesMatrix.identity(5, 2)
    assert agrees(w.phi, ident)
    assert agrees(w.theta, ident)
    assert agrees(w.e[0], TruncatedSeries.one(5))
    assert d.e_sup_certified and d.diagram_ok and d.ok
    assert d.theta_growth == 0.0


def test_construct_exp_small_full_branch():
    w = construct_submodule(build("exp_small_p5").module, replace(CFG, order=120))
    d = w.diagnostics
    assert d.branch == "full"
    assert w.rank == 1
    assert d.e_sup_exponent == 0
    assert d.e_sup_certified and d.diagram_ok and d.ok
    assert d.theta_growth == 0.0


def test_construct_exp_small_full_branch_default_config():
    # the benchmark's full-branch route at order 400: theta = exp(5 t)
    cfg = WorkbenchConfig()
    w = construct_submodule(build("exp_small_p5").module, cfg)
    d = w.diagnostics
    assert d.branch == "full"
    assert d.diagram_ok and d.ok
    [[theta]] = w.theta.entries
    assert theta.order == cfg.order
    for k, c in enumerate(theta.coeffs):
        assert c.exact == Fraction(5 ** k, math.factorial(k)), k


def test_construct_hypergeom_full_branch_uncertified(hyp_h0):
    # the witness is the module itself; the det sup read drowns in the
    # capped precision and is reported as such, not raised
    module, h0 = hyp_h0
    w = construct_submodule(module, CFG, h0=h0)
    d = w.diagnostics
    assert d.branch == "full"
    assert w.rank == 2
    assert d.e_sup_exponent == 0
    assert not d.e_sup_certified
    assert d.diagram_ok
    assert d.ok


def test_construct_rank3_generic():
    w = construct_submodule(build("rank3_n2_p5").module, CFG)
    d = w.diagnostics
    assert d.branch == "generic"
    assert w.rank == 2
    assert w.phi.shape == (3, 2)
    t = monomial(5, 1)
    one = TruncatedSeries.one(5)
    assert w.e[0].is_zero_series()
    assert agrees(w.e[1], t)
    assert agrees(w.e[2], one)
    assert d.h0_of_submodule == 2
    assert d.hypothesis_log_radius == F(-1, 4)
    assert d.e_horizontal and d.d_stable and d.diagram_ok
    assert d.ok


def test_construct_rejects_unit_circle_hypothesis():
    fake = BoundaryReport((F(0), F(0)), ("agree", "agree"), (True, True),
                          (True, True), (), 0)
    with pytest.raises(WitnessError, match="unit circle"):
        construct_submodule(build("ex44_p5").module, CFG, boundary=fake)


def test_construct_rejects_inconclusive_h0():
    fake = H0Report([], 0, True, 0)
    with pytest.raises(WitnessError) as exc:
        construct_submodule(build("ex44_p5").module, CFG, h0=fake)
    assert exc.value.inconclusive


# ----------------------------------------------------------------------
# conjecture aggregation


def test_conjecture_ex44(ex44_conjecture):
    rep = ex44_conjecture
    assert rep.verdict == PASS
    assert not rep.vacuous
    assert rep.delta_hats == (0.0,)
    assert rep.bound == pytest.approx(0.1)
    assert rep.hypothesis_route == "corank-one-automatic"
    assert rep.hypothesis_log_radius == F(-1, 4)
    assert rep.hypothesis_ok
    assert rep.witness_status == "verified (generic branch)"
    assert rep.dwork.verdict == NOT_APPLICABLE
    assert rep.transfer.consistent


def test_conjecture_shares_one_h0(ex44_conjecture):
    rep = ex44_conjecture
    assert rep.dwork.h0_dim == rep.h0_dim
    assert rep.transfer.h0_dim == rep.h0_dim
    assert rep.boundary.log_radii[0] == rep.transfer.log_radius


def test_conjecture_dual_vacuous():
    rep = verify_conjecture(build("dual_ex44_p5").module, CFG)
    assert rep.verdict == PASS
    assert rep.vacuous
    assert rep.bound is None
    assert rep.delta_hats == ()
    assert rep.hypothesis_route == "measured"
    assert rep.hypothesis_ok is False
    assert rep.witness_status == "verified (zero branch)"
