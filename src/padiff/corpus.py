"""Bundled corpus of differential modules with pinned invariants.

Each entry couples a module builder with the invariants the workbench
is expected to reproduce: the dimension of H^0, the boundary limits of
the convergence radii (as log_p exponents), the solvable rank and the
largest log-growth order among bounded sections.  Radii exponents are
recorded as exact rational strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from padiff.diffmod import DifferentialModule
from padiff.linalg import SeriesMatrix
from padiff.padic import DEFAULT_PRECISION, PadicNumber, unit_digits, vp_fraction
from padiff.series import TruncatedSeries

HYPERGEOM_WINDOW = 420


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    module: DifferentialModule
    expected: dict


def _expected(h0_dim: int, log_radii: list[Fraction], solvable_rank: int,
              max_delta: float = 0.0) -> dict:
    return {
        "h0_dim": h0_dim,
        "boundary_log_radii": [str(r) for r in sorted(log_radii)],
        "solvable_rank": solvable_rank,
        "max_delta": max_delta,
    }


# ----------------------------------------------------------------------
# builders


def ex44(p: int) -> CorpusEntry:
    """Rank 2, one bounded section (t, 1), the other of exponential type."""
    A = SeriesMatrix.from_rational_rows(p, [[[0], [-1]], [[1], [0, -1]]])
    omega = Fraction(-1, p - 1)
    return CorpusEntry("ex44_p%d" % p, DifferentialModule(A, "ex44_p%d" % p),
                       _expected(1, [omega, Fraction(0)], 1))


def dual_ex44(p: int) -> CorpusEntry:
    base = ex44(p).module
    name = "dual_ex44_p%d" % p
    omega = Fraction(-1, p - 1)
    return CorpusEntry(name, DifferentialModule(base.dual().matrix, name),
                       _expected(0, [omega, Fraction(0)], 0))


def trivial(p: int, rank: int) -> CorpusEntry:
    name = "trivial%d_p%d" % (rank, p)
    return CorpusEntry(name, DifferentialModule(SeriesMatrix.zero(p, rank, rank), name),
                       _expected(rank, [Fraction(0)] * rank, rank))


def exp_unit(p: int) -> CorpusEntry:
    A = SeriesMatrix.from_rational_rows(p, [[[1]]])
    name = "exp_unit_p%d" % p
    return CorpusEntry(name, DifferentialModule(A, name),
                       _expected(0, [Fraction(-1, p - 1)], 0))


def exp_small(p: int) -> CorpusEntry:
    A = SeriesMatrix.from_rational_rows(p, [[[p]]])
    name = "exp_small_p%d" % p
    return CorpusEntry(name, DifferentialModule(A, name),
                       _expected(1, [Fraction(0)], 1))


def sum_exp_cancel(p: int) -> CorpusEntry:
    """[1] + [-1]: both radii are omega although the top wedge is trivial."""
    A = SeriesMatrix.from_rational_rows(p, [[[1], [0]], [[0], [-1]]])
    name = "sum_exp_cancel_p%d" % p
    omega = Fraction(-1, p - 1)
    return CorpusEntry(name, DifferentialModule(A, name),
                       _expected(0, [omega, omega], 0))


def rank3_n2(p: int) -> CorpusEntry:
    """ex44 plus a trivial line: solvable rank 2 inside rank 3."""
    base = ex44(p).module.direct_sum(trivial(p, 1).module)
    name = "rank3_n2_p%d" % p
    omega = Fraction(-1, p - 1)
    return CorpusEntry(name, DifferentialModule(base.matrix, name),
                       _expected(2, [omega, Fraction(0), Fraction(0)], 2))


# ----------------------------------------------------------------------
# the hypergeometric entry


def hypergeom_coefficients(order: int):
    """Exact coefficients of sum_k (C(2k,k)/4**k)**2 t**k up to order."""
    out = [Fraction(1)]
    for k in range(order):
        step = Fraction(2 * k + 1, 2 * k + 2) ** 2
        out.append(out[-1] * step)
    return out


def _capped(q: Fraction, p: int, precision: int) -> PadicNumber:
    """The nonzero rational q to precision digits, read from the rational."""
    v = vp_fraction(q, p)
    u = unit_digits(q.numerator, q.denominator, p, v, precision)
    return PadicNumber.approximate(p, v, u, precision)


def hypergeom_half(p: int, window: int = HYPERGEOM_WINDOW,
                   precision: int = DEFAULT_PRECISION) -> CorpusEntry:
    """diag(-l, l) with l the logarithmic derivative of the 2F1 kernel.

    Both horizontal sections, the kernel series and its reciprocal, are
    p-integral, so the module is solvable with log-growth order zero.
    """
    if p == 2:
        raise ValueError("the coefficient recurrence needs an odd prime")
    F = TruncatedSeries(p, [_capped(q, p, precision)
                            for q in hypergeom_coefficients(window + 1)], False)
    ell = F.derive().divide(F, order=window)
    Z = TruncatedSeries.zero(p)
    A = SeriesMatrix(p, [[-ell, Z], [Z, ell]])
    name = "hypergeom_half_p%d" % p
    return CorpusEntry(name, DifferentialModule(A, name),
                       _expected(2, [Fraction(0), Fraction(0)], 2))


# ----------------------------------------------------------------------
# registry


def build(name: str, precision: int = DEFAULT_PRECISION) -> CorpusEntry:
    """The named entry; precision sets the digits of the capped data,
    which only the hypergeometric entries have."""
    builder = _REGISTRY[name]
    if builder.func is hypergeom_half:
        return builder(precision=precision)
    return builder()


def names() -> list[str]:
    return list(_REGISTRY)


_REGISTRY = {
    "ex44_p3": partial(ex44, 3),
    "ex44_p5": partial(ex44, 5),
    "ex44_p7": partial(ex44, 7),
    "dual_ex44_p5": partial(dual_ex44, 5),
    "trivial1_p5": partial(trivial, 5, 1),
    "trivial2_p5": partial(trivial, 5, 2),
    "trivial3_p5": partial(trivial, 5, 3),
    "exp_unit_p3": partial(exp_unit, 3),
    "exp_unit_p5": partial(exp_unit, 5),
    "exp_small_p5": partial(exp_small, 5),
    "sum_exp_cancel_p5": partial(sum_exp_cancel, 5),
    "hypergeom_half_p3": partial(hypergeom_half, 3),
    "hypergeom_half_p5": partial(hypergeom_half, 5),
    "hypergeom_half_p7": partial(hypergeom_half, 7),
    "rank3_n2_p5": partial(rank3_n2, 5),
}
