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

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from padiff.config import SolveConfig
from padiff.linalg import SeriesMatrix, field_kernel
from padiff.padic import PadicNumber, PrecisionError
from padiff.series import TruncatedSeries

CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"


@dataclass
class SectionReport:
    start: list[PadicNumber]
    section: list[TruncatedSeries]
    lam: Fraction | None
    lam_late: Fraction | None
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

    def _sparse_coefficients(self, upto: int):
        """Per-degree nonzero entries of A as (degree, i, j, value) triples."""
        out = []
        for i, row in enumerate(self.matrix.entries):
            for j, cell in enumerate(row):
                top = min(upto, cell.order)
                for d in range(top + 1):
                    c = cell.coeffs[d]
                    if not c.is_exact_zero:
                        out.append((d, i, j, c))
        by_degree: dict[int, list] = {}
        for d, i, j, c in out:
            by_degree.setdefault(d, []).append((i, j, c))
        return by_degree

    def solve_horizontal(self, start: list[PadicNumber],
                         order: int) -> list[TruncatedSeries]:
        """The unique local solution of v' = -A v with v(0) = start."""
        m = self.rank
        if len(start) != m:
            raise ValueError("start vector has wrong length")
        w = self.matrix.max_known_order()
        if w is not None and order > w + 1:
            raise ValueError("order %d exceeds what the matrix window %d supports"
                             % (order, w))
        p = self.p
        by_degree = self._sparse_coefficients(order)
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

    # ------------------------------------------------------------------
    # H^0 and growth classification

    def h0_basis(self, cfg: SolveConfig | None = None) -> H0Report:
        cfg = cfg or SolveConfig()
        p = self.p
        order = cfg.order
        w = self.matrix.max_known_order()
        if w is not None:
            order = min(order, w + 1)
        one = PadicNumber.from_int(1, p)
        zero = PadicNumber.exact_zero(p)
        starts = [[one if i == j else zero for i in range(self.rank)]
                  for j in range(self.rank)]
        sections = [self.solve_horizontal(s, order) for s in starts]
        reports = [self._classify(s, sec, order, cfg)
                   for s, sec in zip(starts, sections)]
        reports, steps = self._echelonize(reports, order, cfg)
        dim = sum(1 for r in reports if r.verdict == CONVERGENT)
        inconclusive = any(r.verdict == INCONCLUSIVE for r in reports)
        return H0Report(reports, dim, inconclusive, steps)

    def _classify(self, start, section, order: int, cfg: SolveConfig) -> SectionReport:
        lo = max(int(cfg.tail_start * order), 1)
        late = max(int(cfg.late_start * order), 1)
        lam, lam_late = _vector_growth(section, lo, order), _vector_growth(section, late, order)
        verdict = _verdict(lam, cfg)
        if verdict != INCONCLUSIVE and _verdict(lam_late, cfg) != verdict:
            verdict = INCONCLUSIVE
        delta = max((s.growth_profile(lo, order).delta_hat for s in section),
                    default=0.0)
        return SectionReport(start, section, lam, lam_late, verdict, delta)

    def _echelonize(self, reports: list[SectionReport], order: int,
                    cfg: SolveConfig) -> tuple[list[SectionReport], int]:
        """Cancel shared divergence between sections by constant combos.

        Kernel vectors of the dominant tail coefficients propose combos;
        a combo is accepted only when a full reclassification shows the
        growth rate dropped by the configured margin.
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
            start = _combine_starts([r.start for r in bad], coeffs, self.p)
            report = self._classify(start, section, order, cfg)
            worst = max(float(r.lam or 0) for r in bad)
            if float(report.lam or 0) > worst - cfg.echelon_margin:
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


def _vector_growth(section, lo: int, hi: int) -> Fraction | None:
    lam = None
    for coord in section:
        prof = coord.growth_profile(lo, hi)
        if prof.lam is not None and (lam is None or prof.lam > lam):
            lam = prof.lam
    return lam


def _verdict(lam: Fraction | None, cfg: SolveConfig) -> str:
    val = float(lam) if lam is not None else 0.0
    if val < cfg.eps_convergent - cfg.eps_margin:
        return CONVERGENT
    if val > cfg.eps_convergent + cfg.eps_margin:
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


def _combine_starts(starts, coeffs, p: int) -> list[PadicNumber]:
    m = len(starts[0])
    out = []
    for i in range(m):
        acc = PadicNumber.exact_zero(p)
        for c, st in zip(coeffs, starts):
            acc = acc + c * st[i]
        out.append(acc)
    return out
