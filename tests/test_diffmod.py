from fractions import Fraction

from oracles import agrees, hypergeom_series_capped, monomial
from padiff import corpus
from padiff.diffmod import CONVERGENT, DIVERGENT, DifferentialModule
from padiff.linalg import SeriesMatrix
from padiff.padic import PadicNumber
from padiff.series import TruncatedSeries


def one(p=5):
    return PadicNumber.from_int(1, p)


def zero(p=5):
    return PadicNumber.exact_zero(p)


def test_apply_D_on_known_horizontal_section():
    mod = corpus.ex44(5).module
    vec = [monomial(5, 1), TruncatedSeries.one(5)]
    out = mod.apply_D(vec)
    assert all(c.is_zero_series() for c in out)


def test_solve_horizontal_recursion_oracle():
    # hand-run of the coefficient recursion from the start (1, 0)
    mod = corpus.ex44(5).module
    sec = mod.solve_horizontal([one(), zero()], order=6)
    assert sec[0].coeffs[2].exact == Fraction(-1, 2)
    assert sec[1].coeffs[3].exact == Fraction(-1, 6)
    assert sec[0].coeffs[4].exact == Fraction(-1, 24)
    assert sec[1].coeffs[5].exact == Fraction(-1, 40)
    assert sec[0].coeffs[1].is_exact_zero and sec[1].coeffs[2].is_exact_zero


def test_solve_horizontal_polynomial_section():
    mod = corpus.ex44(5).module
    sec = mod.solve_horizontal([zero(), one()], order=30)
    assert sec[0].coeffs[1].exact == 1
    assert all(c.is_exact_zero for c in sec[0].coeffs[2:])
    assert sec[1].coeffs[0].exact == 1
    assert all(c.is_exact_zero for c in sec[1].coeffs[1:])


def test_h0_ex44():
    mod = corpus.ex44(5).module
    rep = mod.h0_basis(200)
    assert rep.dim == 1
    assert not rep.inconclusive
    verdicts = sorted(s.verdict for s in rep.sections)
    assert verdicts == [CONVERGENT, DIVERGENT]
    basis = rep.basis[0]
    assert basis[0].coeffs[1].exact == 1 and basis[1].coeffs[0].exact == 1


def test_h0_trivial_rank3():
    mod = corpus.trivial(5, 3).module
    rep = mod.h0_basis(60)
    assert rep.dim == 3
    assert all(s.verdict == CONVERGENT for s in rep.sections)
    assert all(s.delta_hat == 0.0 for s in rep.sections)


def test_h0_exp_modules():
    assert corpus.exp_unit(5).module.h0_basis(200).dim == 0
    assert corpus.exp_small(5).module.h0_basis(200).dim == 1
    assert corpus.sum_exp_cancel(5).module.h0_basis(200).dim == 0


def test_h0_needs_echelonization_after_gauge():
    # mix the bounded solution into both starts with a constant frame
    # change: the matrix becomes g^-1 A g, with g^-1 written out by hand
    A = corpus.ex44(5).module.matrix
    g = SeriesMatrix.from_rational_rows(5, [[[1], [1]], [[1], [0]]])
    ginv = SeriesMatrix.from_rational_rows(5, [[[0], [1]], [[1], [-1]]])
    moved = DifferentialModule((ginv @ (A @ g)).map(lambda c: c.truncate(240)))
    rep = moved.h0_basis(240)
    assert rep.echelon_steps >= 1
    assert rep.dim == 1
    assert not rep.inconclusive
    # a combined section's start is its own constant terms
    for r in rep.sections:
        assert r.start == [c.coeffs[0] for c in r.section]


def test_dual_matrix():
    mod = corpus.ex44(5).module
    dual = mod.dual()
    assert dual.matrix.entries[0][1].coeffs[0].exact == -1
    assert dual.matrix.entries[1][0].coeffs[0].exact == 1
    assert dual.matrix.entries[1][1].coeffs[1].exact == 1


def test_wedge_top_is_trace():
    mod = corpus.ex44(5).module
    w = mod.wedge(2)
    assert w.rank == 1
    tr = w.matrix.entries[0][0]
    assert tr.coeffs[0].is_exact_zero and tr.coeffs[1].exact == -1


def test_wedge_square_of_rank3():
    # diag(a, b, c) wedge 2 = diag(a+b, a+c, b+c) on basis 01, 02, 12
    A = SeriesMatrix.from_rational_rows(5, [
        [[1], [0], [0]], [[0], [2], [0]], [[0], [0], [4]]])
    w = DifferentialModule(A).wedge(2)
    got = [w.matrix.entries[i][i].coeffs[0].exact for i in range(3)]
    assert got == [3, 5, 6]
    off = [w.matrix.entries[i][j] for i in range(3) for j in range(3) if i != j]
    assert all(c.is_zero_series() for c in off)


def test_wedge_sign_convention():
    # A with a single off-diagonal cell: D e_0 = e_2 inside wedge with e_1
    # D(e_0 ^ e_1) = (A e_0) ^ e_1 = e_2 ^ e_1 = -(e_1 ^ e_2)
    rows = [[[0], [0], [0]], [[0], [0], [0]], [[1], [0], [0]]]
    A = SeriesMatrix.from_rational_rows(5, rows)
    w = DifferentialModule(A).wedge(2)
    # subsets in lex order: (0,1), (0,2), (1,2)
    assert w.matrix.entries[2][0].coeffs[0].exact == -1
    assert w.matrix.entries[0][0].is_zero_series()


def test_wedge_of_solutions_is_horizontal():
    mod = corpus.ex44(5).module
    s1 = mod.solve_horizontal([one(), zero()], order=40)
    s2 = mod.solve_horizontal([zero(), one()], order=40)
    w = mod.wedge(2)
    # wedge of the two solutions: the 1x1 minor stack s1[0] s2[1] - s1[1] s2[0]
    wedge_sec = [(s1[0] * s2[1] - s1[1] * s2[0]).truncate(39)]
    out = w.apply_D(wedge_sec)
    assert all(c.t_order_info()[0] is None for c in out)


def test_direct_sum_blocks():
    mod = corpus.rank3_n2(5).module
    assert mod.rank == 3
    assert mod.matrix.entries[0][1].coeffs[0].exact == -1
    assert mod.matrix.entries[2][2].is_zero_series()
    assert mod.matrix.entries[0][2].is_zero_series()
    rep = mod.h0_basis(200)
    assert rep.dim == 2


def test_h0_hypergeom_sections_are_integral():
    entry = corpus.hypergeom_half(5, window=160)
    rep = entry.module.h0_basis(150)
    assert rep.dim == 2
    for sec in rep.basis_reports():
        assert sec.delta_hat == 0.0
        for coord in sec.section:
            for c in coord.coeffs:
                if not c.is_exact_zero and c.u != 0:
                    assert c.v >= 0


def test_hypergeom_section_matches_coefficient_recurrence():
    entry = corpus.hypergeom_half(5, window=120)
    rep = entry.module.h0_basis(100)
    direct = hypergeom_series_capped(5, 100)
    oracle = TruncatedSeries(5, direct)
    sections = [r.section for r in rep.basis_reports()]
    matches = [sec for sec in sections
               if agrees(sec[0].truncate(90), oracle.truncate(90))
               or agrees(sec[1].truncate(90), oracle.truncate(90))]
    assert matches, "neither section reproduces the kernel series"
