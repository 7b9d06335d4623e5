"""Differential modules over the bounded power series ring.

A module of rank m is presented by its connection matrix A: in the
chosen basis, D(e_j) = sum_i A[i][j] e_i, so on coordinate vectors
D(v) = dv/dt + A v and horizontal sections solve v' = -A v.

Horizontal sections are computed by the coefficient recursion
(s+1) c_{s+1} = -[A f]_s, with every coefficient carried in exact or
capped p-adic arithmetic.  Membership in H^0, i.e. boundedness of the
section, is decided from the growth rate of coefficient valuations on
a tail window, with an explicit inconclusive verdict when the window
does not separate the cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from padiff.linalg import SeriesMatrix, field_kernel
from padiff.padic import PadicNumber, PrecisionError
from padiff.series import TruncatedSeries, _online

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

# growth statistics use coefficients in [TAIL_START * order, order]
TAIL_START = 0.25
# stability is judged against the late window [LATE_START * order, order]
LATE_START = 0.75
# a section counts as convergent when its growth rate sits below
# EPS_CONVERGENT - EPS_MARGIN, divergent above EPS_CONVERGENT + EPS_MARGIN
EPS_CONVERGENT = 1e-2
EPS_MARGIN = 5e-3
# an echelonization step must drop the growth rate by at least this
ECHELON_MARGIN = 0.05


@dataclass(frozen=True)
class GrowthOrder:
    value: float                 # max over coordinates of the tail estimate
    attained: tuple[int, int] | None   # (coordinate, index) of the max
    lam: Fraction | None         # max over coordinates of the linear rate
    indeterminate: bool
    window: tuple[int, int]


def growth_order(section, order: int | None = None,
                 start: float = TAIL_START) -> GrowthOrder:
    """Growth estimates of the coordinates on the window [start * order,
    order], indices >= 1 only.

    value is the max of (-v(a_i) * ln p) / ln(i + 1), clamped at 0: the
    log-growth order estimate.  Within a coordinate the first index
    attaining it wins; across coordinates the later one wins ties.  lam
    is the max of -v(a_i)/i, the linear growth rate in log_p units, None
    when no determinate nonzero coefficient was seen.  An inexact zero
    with v < 0 could hide either, so it makes the read indeterminate.
    """
    if order is None:
        order = min(s.order for s in section)
    lo = max(int(start * order), 1)
    value = 0.0
    attained = None
    lam = None
    indeterminate = False
    for ci, coord in enumerate(section):
        lnp = math.log(coord.p)
        best = 0.0
        best_at = None
        for i in range(lo, min(order, coord.order) + 1):
            c = coord.coeffs[i]
            if c.u == 0:
                indeterminate = indeterminate or (c.exact is None and c.v < 0)
                continue
            li = Fraction(-c.v, i)
            if lam is None or li > lam:
                lam = li
            di = (-c.v) * lnp / math.log(i + 1)
            if di > best:
                best = di
                best_at = i
        if best_at is not None and best >= value:
            value = best
            attained = (ci, best_at)
    return GrowthOrder(value, attained, lam, indeterminate, (lo, order))


@dataclass
class SectionReport:
    start: list[PadicNumber]
    section: list[TruncatedSeries]
    lam: Fraction | None
    verdict: str
    delta_hat: float


@dataclass
class H0Report:
    sections: list[SectionReport]     # one per echelonized start
    dim: int
    inconclusive: bool
    echelon_steps: int

    @property
    def basis(self) -> list[list[TruncatedSeries]]:
        return [s.section for s in self.sections if s.verdict == CONVERGENT]

    def basis_reports(self) -> list[SectionReport]:
        return [s for s in self.sections if s.verdict == CONVERGENT]


class DifferentialModule:
    __slots__ = ("p", "matrix", "label")

    def __init__(self, matrix: SeriesMatrix, label: str = ""):
        m, n = matrix.shape
        if m != n:
            raise ValueError("connection matrix must be square")
        self.p = matrix.p
        self.matrix = matrix
        self.label = label

    @property
    def rank(self) -> int:
        return self.matrix.shape[0]

    # ------------------------------------------------------------------
    # structure maps

    def apply_D(self, vec: list[TruncatedSeries]) -> list[TruncatedSeries]:
        Av = self.matrix.matvec(vec)
        return [v.derive() + w for v, w in zip(vec, Av)]

    def dual(self) -> "DifferentialModule":
        return DifferentialModule(-self.matrix.transpose(),
                                  label=self.label + "^dual" if self.label else "")

    def direct_sum(self, other: "DifferentialModule") -> "DifferentialModule":
        m, n = self.rank, other.rank
        p = self.p
        Z = TruncatedSeries.zero(p)
        entries = []
        for i in range(m):
            entries.append(list(self.matrix.entries[i]) + [Z] * n)
        for i in range(n):
            entries.append([Z] * m + list(other.matrix.entries[i]))
        label = "+".join(x for x in (self.label, other.label) if x)
        return DifferentialModule(SeriesMatrix(p, entries), label=label)

    def wedge(self, k: int) -> "DifferentialModule":
        """k-th exterior power on the lexicographic basis of k-subsets."""
        m = self.rank
        if not 1 <= k <= m:
            raise ValueError("wedge degree out of range")
        subsets = list(combinations(range(m), k))
        index = {s: i for i, s in enumerate(subsets)}
        p = self.p
        Z = TruncatedSeries.zero(p)
        size = len(subsets)
        entries = [[Z] * size for _ in range(size)]
        for I in subsets:
            col = index[I]
            for r, ir in enumerate(I):
                rest = I[:r] + I[r + 1:]
                for a in range(m):
                    cell = self.matrix.entries[a][ir]
                    if cell.is_zero_series():
                        continue
                    if a == ir:
                        entries[col][col] = entries[col][col] + cell
                        continue
                    if a in rest:
                        continue
                    lo, hi = min(a, ir), max(a, ir)
                    swaps = sum(1 for x in rest if lo < x < hi)
                    J = tuple(sorted(rest + (a,)))
                    row = index[J]
                    if swaps % 2 == 0:
                        entries[row][col] = entries[row][col] + cell
                    else:
                        entries[row][col] = entries[row][col] - cell
        return DifferentialModule(SeriesMatrix(p, entries))

    # ------------------------------------------------------------------
    # horizontal sections

    def solve_horizontal(self, start: list[PadicNumber],
                         order: int) -> list[TruncatedSeries]:
        """The unique local solution of v' = -A v with v(0) = start:
        (s+1) v_(s+1) = -sum_d A_d v_(s-d) (see series._online).
        """
        m = self.rank
        if len(start) != m:
            raise ValueError("start vector has wrong length")
        w = self.matrix.max_known_order()
        if w is not None and order > w + 1:
            raise ValueError("order %d exceeds what the matrix window %d supports"
                             % (order, w))
        p = self.p
        rows = self.matrix.entries
        # each row's pairs by degree, in the order the degrees first appear
        # in A row by row, then by column; output s pairs A_d with s - 1 - d
        degrees = dict.fromkeys(d for row in rows for cell in row
                                for d in range(min(order, cell.order) + 1)
                                if not cell.coeffs[d].is_exact_zero)
        ops = [[(d + 1, j, cell.coeffs[d]) for d in degrees
                for j, cell in enumerate(row) if d <= cell.order] for row in rows]
        zero = PadicNumber.exact_zero(p)

        def finish(s, r):
            inv = PadicNumber.from_int(s, p)
            return [a / inv for a in r]

        coeffs = _online(p, ops, lambda s, i: zero, finish, [list(start)], order + 1)
        return [TruncatedSeries(p, [x[i] for x in coeffs]) for i in range(m)]

    # ------------------------------------------------------------------
    # H^0 and growth classification

    def h0_basis(self, order: int) -> H0Report:
        p = self.p
        w = self.matrix.max_known_order()
        if w is not None:
            order = min(order, w + 1)
        one = PadicNumber.from_int(1, p)
        zero = PadicNumber.exact_zero(p)
        starts = [[one if i == j else zero for i in range(self.rank)]
                  for j in range(self.rank)]
        sections = [self.solve_horizontal(s, order) for s in starts]
        reports = [self._classify(s, sec, order)
                   for s, sec in zip(starts, sections)]
        reports, steps = self._echelonize(reports, order)
        dim = sum(1 for r in reports if r.verdict == CONVERGENT)
        inconclusive = any(r.verdict == INCONCLUSIVE for r in reports)
        return H0Report(reports, dim, inconclusive, steps)

    def _classify(self, start, section, order: int) -> SectionReport:
        tail = growth_order(section, order)
        late = growth_order(section, order, LATE_START)
        verdict = _verdict(tail.lam)
        if verdict != INCONCLUSIVE and _verdict(late.lam) != verdict:
            verdict = INCONCLUSIVE
        return SectionReport(start, section, tail.lam, verdict, tail.value)

    def _echelonize(self, reports: list[SectionReport],
                    order: int) -> tuple[list[SectionReport], int]:
        """Cancel shared divergence between sections by constant combos.

        Kernel vectors of the dominant tail coefficients propose combos;
        a combo is accepted only when a full reclassification shows the
        growth rate dropped by ECHELON_MARGIN.
        """
        steps = 0
        for _ in range(self.rank):
            bad = [r for r in reports if r.verdict != CONVERGENT]
            if len(bad) < 2:
                break
            combo = self._tail_combo(bad, order)
            if combo is None:
                break
            coeffs, target = combo
            section = _combine([r.section for r in bad], coeffs, self.p)
            report = self._classify([c.coeffs[0] for c in section], section, order)
            worst = max(float(r.lam or 0) for r in bad)
            if float(report.lam or 0) > worst - ECHELON_MARGIN:
                break
            reports = [report if r is target else r for r in reports]
            steps += 1
        return reports, steps

    def _tail_combo(self, bad: list[SectionReport], order: int):
        """Propose coefficients cancelling the single dominant tail term.

        Exact coefficients make several rows generically independent even
        when the divergent parts agree, so only the largest coefficient
        position is used; the caller's margin check rejects bad proposals.
        """
        lo = max(order // 2, 1)
        spot = None
        spot_size = None
        for r in bad:
            for ci, coord in enumerate(r.section):
                for i in range(lo, coord.order + 1):
                    c = coord.coeffs[i]
                    if c.is_exact_zero or c.u == 0:
                        continue
                    if spot_size is None or -c.v > spot_size:
                        spot_size = -c.v
                        spot = (ci, i)
        if spot is None:
            return None
        ci, deg = spot
        row = [r.section[ci].coefficient(deg) for r in bad]
        try:
            kernel = field_kernel([row], self.p)
        except PrecisionError:
            return None
        if not kernel:
            return None
        coeffs = kernel[0]
        # retire the section carrying the largest weight in the combo
        best = None
        target = None
        for c, r in zip(coeffs, bad):
            if c.is_exact_zero or c.u == 0:
                continue
            if best is None or c.v < best:
                best = c.v
                target = r
        if target is None:
            return None
        return coeffs, target


def _verdict(lam: Fraction | None) -> str:
    val = float(lam) if lam is not None else 0.0
    if val < EPS_CONVERGENT - EPS_MARGIN:
        return CONVERGENT
    if val > EPS_CONVERGENT + EPS_MARGIN:
        return DIVERGENT
    return INCONCLUSIVE


def _combine(sections, coeffs, p: int) -> list[TruncatedSeries]:
    m = len(sections[0])
    out = []
    for i in range(m):
        acc = TruncatedSeries.zero(p)
        for c, sec in zip(coeffs, sections):
            if c.is_exact_zero:
                continue
            acc = acc + sec[i].scale(c)
        out.append(acc)
    return out

