"""Convergence radius estimators at the generic point of a circle.

All radii are handled through their base-p logarithms as exact
Fractions: the disc radius p**(-r) is "r", a computed radius p**(-f)
appears as "-f".  omega = p**(-1/(p-1)) is the radius of exp and caps
every estimate through the Dwork bound.

The Taylor iterates M_0 = I, M_{s+1} = M_s' - M_s A hold in column j
the s-th derivative of the horizontal section through e_j at a generic
center.  Kernel vectors of a stack of late iterates propose replacement
basis columns with larger radii, and every proposal is re-verified
against the raw iterates before it is accepted.  Sorted column radii
are per-position lower bounds for the true multiset.

When every entry of A is a polynomial with exact coefficients, the
iterates are scaled integer polynomials N_s = D**s M_s, D the lcm of A's
denominators: N_{s+1} = D N_s' - N_s (D A) on lists of ints, each entry
as long as the series recursion makes it, in one pass that keeps no
integer iterate past its read.  A tail read needs only valuations,
v(M_s[i]) = v_p(N_s[i]) - s v_p(D), taken as the recursion runs, once
for every radius and only where one can raise the norm, and compared
through Gauss norm's own integer key.  Only the probe steps (which hold
the kernel stack) and the handover step are made SeriesMatrix, with the
exact values the series recursion gives.  The integer recursion hands
its last iterate to the series recursion at the first step where the bound
bits(max |N_s|) + max(bits(max |D A|), bits(D * length)) + bits(term
count), with D**(s+2), cannot show that every value that step forms
stays within DEMOTE_BITS: past it the series recursion demotes what it
demotes.  A matrix with a coefficient window or a capped coefficient
keeps the series recursion throughout.  Every iterate the series
recursion builds is kept, since its tail is read by Gauss norms.

One rule reads the multiset at a circle:

* position 0 is the generic radius, read from every raw column;
* positions >= 1 are the sorted column reads, each value moving through
  the sort with its read's own check;
* where a position >= 1 reads below the cap, the dual module, whose
  radii are those of the module, is read the same way, and each such
  position keeps the larger of the two reads.

A position is certified when its read passes its own check and it is
either position 0 or at the cap; anywhere else a read is only a lower
bound.  The circles differ only in how a read is taken: at an interior
radius each read is taken there and checked by its flags, at the
boundary its reads over a grid of sample radii are extrapolated to
r = 0 and checked by the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

from padiff.config import WorkbenchConfig
from padiff.diffmod import DifferentialModule
from padiff.linalg import SeriesMatrix, kernel_basis
from padiff.padic import DEMOTE_BITS, PadicNumber, PrecisionError, vp_int
from padiff.series import TruncatedSeries

_AUTO_ITERATE_WINDOW = 96
_MIN_ITERATE_WINDOW = 32
_KERNEL_STACK_DEPTH = 3
_KERNEL_WORKING_ORDER = 16
# the spectral estimate reads iterates s in [_TAIL_FRAC * T, T]
_TAIL_FRAC = 0.5
# max residual (in log_p units) for accepting the affine boundary fit
_FIT_RESIDUAL_TOL = Fraction(1, 1000)


def omega_exponent(p: int) -> Fraction:
    """log_p of the convergence radius of exp."""
    return Fraction(-1, p - 1)


@dataclass(frozen=True)
class RadiusSample:
    log_radius: Fraction
    certified: bool
    flags: tuple[str, ...]


@dataclass(frozen=True)
class ColumnRadius:
    column: list[TruncatedSeries]
    log_radius: Fraction
    certified: bool
    echelonized: bool
    flags: tuple[str, ...]


@dataclass(frozen=True)
class MultisetSample:
    log_rho: Fraction
    log_radii: tuple[Fraction, ...]          # ascending radii
    provenance: tuple[str, ...]              # per position
    certified: tuple[bool, ...]


@dataclass(frozen=True)
class BoundaryReport:
    log_radii: tuple[Fraction, ...]          # ascending
    provenance: tuple[str, ...]
    residual_ok: tuple[bool, ...]
    certified: tuple[bool, ...]
    grid: tuple[Fraction, ...]
    solvable_rank: int


@dataclass(frozen=True)
class FProfile:
    rows: tuple[tuple[Fraction, tuple[Fraction, ...]], ...]
    convex: bool
    nondecreasing: bool


class IterateWindowError(ValueError):
    """The matrix's coefficient window is too short for the iterate count."""


class PowerIterates:
    """Taylor iterates of the horizontal frame of one module.

    steps maps s to M_s for the tail iterates a read takes as a
    SeriesMatrix: the probe steps on the integer route, then every tail
    iterate the series recursion builds.  records holds the valuation
    records of the scaled tail iterates, taken as the integer recursion
    runs; no other iterate is kept past its use.
    """

    def __init__(self, module: DifferentialModule, count: int):
        self.module = module
        self.count = count
        p = module.p
        A = module.matrix
        mat_window = A.max_known_order()
        window = None
        if mat_window is not None:
            window = min(mat_window - count, _AUTO_ITERATE_WINDOW)
            if window < _MIN_ITERATE_WINDOW:
                raise IterateWindowError(
                    "matrix window %d cannot support %d iterates" % (mat_window, count))
        self.window = window
        self.steps: dict[int, SeriesMatrix] = {}
        self.records: dict[int, list] = {}
        tail = self.tail_range()
        D = None if window is not None else _exact_scale(A)
        last = 0
        if D is None:
            cur = SeriesMatrix.identity(p, module.rank)
        else:
            vD = vp_int(D, p)
            probes = self.probe_steps()
            for last, N in _scaled_iterates(A, D, count):
                if last in tail:
                    self.records[last] = _column_records(N, last * vD, p)
                if last in probes:
                    self.steps[last] = _exact_matrix(p, N, D ** last)
            # the handover step; in the tail, reads take its record
            cur = self.steps[last] if last in probes else _exact_matrix(p, N, D ** last)
        # the series recursion, from the handover step if there is one;
        # only the tail is kept, since no read takes an earlier iterate
        for s in range(last, count):
            cur = cur.derive() - (cur @ A)
            if window is not None:
                cap = window + (count - s)
                cur = cur.map(lambda c: c.truncate(cap) if c.order > cap else c)
            if s + 1 in tail:
                self.steps[s + 1] = cur
        # perfbench/spans.py counts the iterates and their coefficients here
        self.mats = list(self.steps.values())
        self._column_betas: dict = {}
        self._candidates: list[list[TruncatedSeries]] | None = None
        self._probe_images: dict = {}

    def tail_range(self) -> range:
        lo = max(int(self.count * _TAIL_FRAC), 1)
        return range(lo, self.count + 1)

    def probe_steps(self) -> list[int]:
        """The late iterates a combined column is sampled at; they hold the
        kernel stack's picks."""
        count = self.count
        return sorted({s for s in (count, count - 1, count - 2, 3 * count // 4, count // 2)
                       if s >= 1})

    def column_beta(self, r: Fraction, j: int):
        """(beta, zero_certified, flags) of column j; read once per radius.

        A scaled tail iterate is read from its valuation record, a built
        one by Gauss norms.
        """
        if (r, j) not in self._column_betas:
            self._column_betas[r, j] = _beta(
                _record_norm(s, self.records[s][j], r) if s in self.records
                else _series_norm(s, self.steps[s].column(j), r)
                for s in self.tail_range())
        return self._column_betas[r, j]

    def vector_beta_probes(self, r: Fraction, vec: list[TruncatedSeries]):
        """beta of a combined column, sampled at the probe steps.

        Enough for replacement decisions: a surviving candidate is
        either exactly annihilated at every probe (certifiable) or kept
        only as an estimate by the caller.  The probe images of a vector
        are computed once, for every radius.
        """
        key = id(vec)
        if key not in self._probe_images:
            # the vector rides along, so that its id stays its own
            self._probe_images[key] = vec, [(s, self.steps[s].matvec(vec))
                                            for s in self.probe_steps()]
        images = self._probe_images[key][1]
        return _beta([_series_norm(s, image, r) for s, image in images], {"probes_only"})

    def kernel_candidates(self) -> list[list[TruncatedSeries]]:
        """Kernel vectors of a stack of late iterates, truncated low.

        Spurious vectors of the truncated stack are harmless: every
        candidate is verified against the raw iterates before use.  They
        depend on the iterates alone, so they are found once.
        """
        if self._candidates is None:
            count = self.count
            picks = [count - d for d in range(_KERNEL_STACK_DEPTH) if count - d >= 1]
            raw = []
            if picks:
                stack = SeriesMatrix.vstack([self.steps[s] for s in picks])
                k = _KERNEL_WORKING_ORDER
                stack = stack.map(lambda c: c.truncate(k) if c.order > k else c)
                try:
                    raw = kernel_basis(stack, working_order=k)
                except (PrecisionError, ValueError):
                    pass
            self._candidates = [_polynomial_lift(vec) for vec in raw]
        return self._candidates


def _exact_scale(A: SeriesMatrix) -> int | None:
    """The lcm of A's denominators when every coefficient is exact."""
    coeffs = [c.exact for row in A.entries for cell in row for c in cell.coeffs]
    if any(q is None for q in coeffs):
        return None
    return math.lcm(*(q.denominator for q in coeffs))


def _scaled_iterates(A: SeriesMatrix, D: int, count: int):
    """(s, N_s) for s = 0, ..., S, for an all-exact polynomial A whose
    denominators divide D.

    N_(s+1) = D * N_s' - N_s * (D * A) on integer coefficient lists, each
    entry as long as the series recursion makes it.  The recursion stops
    at the first S < count where a bound cannot show that no value the
    series recursion would form from M_S (a term D * i * N_S[i], a pair
    product N_S[a] * (D * A)[b], a partial sum of those, all over at most
    D**(S + 1)) passes DEMOTE_BITS; M_S then goes on by that recursion,
    which demotes what it demotes.
    """
    m = A.shape[0]
    exact = [[[c.exact for c in cell.coeffs] for cell in row] for row in A.entries]
    # the nonzero (degree, coefficient) terms of D * A, and each entry's length
    terms = [[[(e, q.numerator * (D // q.denominator)) for e, q in enumerate(cell) if q]
              for cell in row] for row in exact]
    lens = [[len(cell) for cell in row] for row in exact]
    da_bits = max((abs(b).bit_length() for row in terms for cell in row for _, b in cell),
                  default=0)
    # pairs reaching one coefficient, plus its derivative term
    term_bits = (1 + m * max(len(cell) for row in terms for cell in row)).bit_length()
    cur = [[[1] if i == j else [0] for j in range(m)] for i in range(m)]
    yield 0, cur
    scale = D * D
    for s in range(count):
        width = max(len(cell) for row in cur for cell in row)
        bits = max(max(map(int.bit_length, cell)) for row in cur for cell in row)
        if (bits + max(da_bits, (D * width).bit_length()) + term_bits > DEMOTE_BITS
                or scale.bit_length() > DEMOTE_BITS):
            return
        cur = [[_scaled_step(row, j, terms, lens, D) for j in range(m)] for row in cur]
        yield s + 1, cur
        scale *= D


def _scaled_step(row: list, j: int, terms, lens, D: int) -> list:
    """Entry j of D * N' - N * (D * A) in the row of N given, as long as
    the series recursion makes it: a derivative one shorter (a constant's
    is the constant 0), a product of lengths la + lb - 1, a sum as long as
    its longer operand; the matrix product skips zero series."""
    cell = row[j]
    out = list(map(mul, cell[1:], range(D, D * len(cell), D))) or [0]
    parts = [(a, terms[l][j], len(a) + lens[l][j] - 1)
             for l, a in enumerate(row) if terms[l][j] and any(a)]
    width = max((n for _, _, n in parts), default=1)
    out += [0] * (width - len(out))
    for a, pairs, _ in parts:
        k = len(a)
        for e, b in pairs:
            seg = out[e:e + k]
            if b == 1:
                out[e:e + k] = map(sub, seg, a)
            elif b == -1:
                out[e:e + k] = map(add, seg, a)
            else:
                out[e:e + k] = [y - b * x for y, x in zip(seg, a)]
    return out


def _column_records(N: list, shift: int, p: int) -> list:
    """Per column j of a scaled iterate N_s, the (i, -v) of its
    coefficients (index i, valuation v of M_s's, N_s's less shift) that a
    Gauss norm can attain at some r >= 0: each -v beats every one at a
    smaller index.

    A coefficient that p**v divides, v the least valuation at smaller
    indices, cannot beat them, and only the others have their valuation
    computed.
    """
    cols = []
    for j in range(len(N)):
        cells = [row[j] for row in N]
        record, p_least = [], None
        for i in range(max(map(len, cells))):
            for cell in cells:
                n = cell[i] if i < len(cell) else 0
                if n and (p_least is None or n % p_least):
                    v = vp_int(n, p)
                    if record and record[-1][0] == i:
                        record.pop()
                    record.append((i, shift - v))
                    p_least = p ** v
        cols.append(record)
    return cols


def _exact_matrix(p: int, N: list, scale: int) -> SeriesMatrix:
    """M_s = N_s / scale, with the exact values the series recursion gives."""
    return SeriesMatrix(p, [[TruncatedSeries(
        p, [PadicNumber._from_exact(Fraction(n, scale), p) for n in cell], True)
        for cell in row] for row in N])


def _polynomial_lift(vec: list[TruncatedSeries]):
    """Read a window-limited kernel vector as the polynomial it shows.

    The guess drops trailing coefficients that are only known to be
    small, and keeps the vector as it is when a determinate coefficient
    lies past degree _KERNEL_WORKING_ORDER - 4.  It is sound because
    every candidate is verified against the raw iterates before any
    column is replaced.
    """
    out = []
    for c in vec:
        if c.tail_exact:
            out.append(c)
            continue
        last = None
        for i, x in enumerate(c.coeffs):
            if not x.is_zeroish:
                last = i
        if last is None or last > _KERNEL_WORKING_ORDER - 4:
            return vec
        out.append(TruncatedSeries(c.p, list(c.coeffs[:last + 1]), True))
    return out


def _beta(norms, flags=()):
    """(beta, all_zero, flags) over (s, g, vanished, flags) norm reads:
    beta is the max of g / s, g = log_p |w_s|_rho (None when w_s has no
    determinate nonzero coefficient), and all_zero holds when every w_s
    vanished exactly."""
    best = None
    flags = set(flags)
    all_zero = True
    for s, g, vanished, fl in norms:
        flags.update(fl)
        if not vanished:
            all_zero = False
        if g is None:
            continue
        val = Fraction(g, s)
        if best is None or val > best:
            best = val
    return best, all_zero, tuple(sorted(flags))


def _series_norm(s: int, vec: list[TruncatedSeries], r: Fraction):
    """The norm read of a vector of series, by their Gauss norms."""
    best = None
    flags = set()
    for cell in vec:
        g = cell.gauss_norm(r)
        if g.indeterminate:
            flags.add("indeterminate")
        if g.boundary:
            flags.add("window_edge")
        if g.exponent is not None and (best is None or g.exponent > best):
            best = g.exponent
    return s, best, best is None and all(c.is_zero_series() for c in vec), flags


def _record_norm(s: int, record: list[tuple[int, int]], r: Fraction):
    """The norm read of a scaled iterate's column from its valuation
    record, by TruncatedSeries.gauss_norm's integer key -v * b - a * i at
    r = a/b; its coefficients are exact, so no flag can arise."""
    a, b = r.numerator, r.denominator
    key = max((w * b - a * i for i, w in record), default=None)
    return s, None if key is None else Fraction(key, b), key is None, ()


def _capped_radius(p: int, r: Fraction, log_beta: Fraction | None) -> Fraction:
    """log_p of min(rho, omega / beta)."""
    if log_beta is None:
        return -r
    return min(-r, omega_exponent(p) - log_beta)


def _is_clean(flags) -> bool:
    return not ({"indeterminate", "window_edge"} & set(flags))


class RadiusWorkbench:
    """Radius analysis of one module; iterates are shared across radii."""

    def __init__(self, module: DifferentialModule, cfg: WorkbenchConfig | None = None):
        self.module = module
        self.cfg = cfg or WorkbenchConfig()
        self.p = module.p
        self._iterates: PowerIterates | None = None
        self._dual: RadiusWorkbench | None = None
        self._columns_cache: dict[Fraction, list[ColumnRadius]] = {}

    def iterates(self) -> PowerIterates:
        if self._iterates is None:
            self._iterates = PowerIterates(self.module, self.cfg.iterates)
        return self._iterates

    def top_radius(self, r) -> RadiusSample:
        """The generic radius: a max over tail iterates and entries is the
        max of the column betas, so every entry is read once per radius."""
        r = Fraction(r)
        it = self.iterates()
        reads = [it.column_beta(r, j) for j in range(self.module.rank)]
        beta = max((b for b, _, _ in reads if b is not None), default=None)
        flags = tuple(sorted({f for _, _, fl in reads for f in fl}))
        return RadiusSample(_capped_radius(self.p, r, beta), _is_clean(flags), flags)

    # -- column route ------------------------------------------------------

    def column_radii(self, r) -> list[ColumnRadius]:
        r = Fraction(r)
        cached = self._columns_cache.get(r)
        if cached is not None:
            return cached
        it = self.iterates()
        m = self.module.rank
        p = self.p
        cols: list[ColumnRadius] = []
        for j in range(m):
            beta, zero_cert, flags = it.column_beta(r, j)
            basis_col = [TruncatedSeries.one(p) if i == j else TruncatedSeries.zero(p)
                         for i in range(m)]
            certified = zero_cert or _is_clean(flags)
            cols.append(ColumnRadius(basis_col, _capped_radius(p, r, beta),
                                     certified, False, flags))
        cols = self._echelonize_columns(cols, r, it)
        cols.sort(key=lambda c: c.log_radius)
        self._columns_cache[r] = cols
        return cols

    def _echelonize_columns(self, cols: list[ColumnRadius], r: Fraction,
                            it: PowerIterates) -> list[ColumnRadius]:
        for vec in it.kernel_candidates():
            beta, all_zero, flags = it.vector_beta_probes(r, vec)
            log_R = _capped_radius(self.p, r, beta)
            worst = min(range(len(cols)), key=lambda i: cols[i].log_radius)
            if log_R <= cols[worst].log_radius:
                continue
            if not _keeps_spanning(cols, worst, vec, self.p):
                continue
            certified = all_zero and all(c.tail_exact for c in vec)
            cols[worst] = ColumnRadius(vec, log_R, certified, True, flags)
        return cols

    def _sorted_column_reads(self, at) -> list[tuple[Fraction, bool]]:
        """(minus-log radius, ok) of every column position, smallest radius
        first; each value moves through the sort with its ok."""
        reads = [at(lambda g: _read(self.column_radii(g)[i]))
                 for i in range(self.module.rank)]
        return sorted(((-min(v, Fraction(0)), ok) for v, ok in reads),
                      key=lambda read: read[0], reverse=True)

    # -- combined multiset ---------------------------------------------------

    def multiset(self, r) -> MultisetSample:
        r = Fraction(r)
        out, prov, _, cert = self._reconciled(lambda read: read(r), r)
        return MultisetSample(r, tuple(-f for f in out), prov, cert)

    def boundary_multiset(self) -> BoundaryReport:
        """Multiset of radii extrapolated to the boundary circle.

        Every read is extrapolated to r = 0 over the grid; its ok is the
        fit check, reported as residual_ok.
        """
        grid = sorted(Fraction(1, k) for k in self.cfg.rho_denominators)

        def at(read):
            log_R, _, ok = _extrapolate([(g, read(g)[0]) for g in grid])
            return log_R, ok

        out, prov, ok, cert = self._reconciled(at, Fraction(0))
        return BoundaryReport(tuple(-f for f in out), prov, ok, cert, tuple(grid),
                              sum(1 for f in out if f == 0))

    def _reconciled(self, at, floor: Fraction):
        """Per-position minus-log radii at one circle, whose cap is floor.

        at(read) turns read(g), a (log radius, ok) pair at sample radius
        g, into the pair at the circle.  Returns the radii with their
        routes, read checks and certification.
        """
        top, ok0 = at(lambda g: _read(self.top_radius(g)))
        reads = [(-min(top, Fraction(0)), ok0, "columns")]
        reads += [(f, ok, "columns") for f, ok in self._sorted_column_reads(at)[1:]]
        if any(f > floor for f, _, _ in reads[1:]):
            if self._dual is None:
                self._dual = RadiusWorkbench(self.module.dual(), self.cfg)
            dual = self._dual._sorted_column_reads(at)
            # the dual has the same radii: keep the larger radius
            reads[1:] = [(f, ok, "dual") if f < mine[0] else mine
                         for mine, (f, ok) in zip(reads[1:], dual[1:])]
        out, ok, prov = zip(*reads)
        cert = tuple(good and (i == 0 or f == floor)
                     for i, (f, good, _) in enumerate(reads))
        return out, prov, ok, cert

    # -- growth of the radius filtration ----------------------------------------

    def f_profile(self, rs) -> FProfile:
        """Partial sums F_k(r) = sum of -log R_j over the k smallest radii."""
        rows = []
        for r in sorted(Fraction(x) for x in rs):
            ms = self.multiset(r)
            partial, acc = [], Fraction(0)
            for v in ms.log_radii:
                acc += -v
                partial.append(acc)
            rows.append((r, tuple(partial)))
        return FProfile(tuple(rows), _convexity_ok(rows), _nondecreasing_ok(rows))


def _read(sample) -> tuple[Fraction, bool]:
    """(log radius, ok) of a RadiusSample or ColumnRadius."""
    return sample.log_radius, sample.certified


def _keeps_spanning(cols: list[ColumnRadius], worst: int,
                    vec: list[TruncatedSeries], p: int) -> bool:
    trial = [c.column for c in cols]
    trial[worst] = vec
    m = len(vec)
    Y = SeriesMatrix(p, [[trial[j][i] for j in range(len(trial))] for i in range(m)])
    return Y.det().t_order_info()[0] is not None


def _extrapolate(values: list[tuple[Fraction, Fraction]]):
    """Affine extrapolation to r = 0 through the two smallest-r points.

    The third point checks the fit; on failure the window shifts away
    from the boundary once before the check is waived and flagged: on
    the shifted window when no point is left to check it, else on the
    window at the boundary.
    """
    values = sorted(values)
    checked = [(values[lead:lead + 2], values[lead + 2])
               for lead in (0, 1) if lead + 2 < len(values)]
    waived = values[1:3] if len(values) == 3 else values[:2]
    for window, check in checked + [(waived, None)]:
        (r1, v1), (r2, v2) = window
        slope = (v2 - v1) / (r2 - r1)
        intercept = v1 - slope * r1
        if check is None or abs(intercept + slope * check[0] - check[1]) <= _FIT_RESIDUAL_TOL:
            return intercept, tuple(window), check is not None


def _convexity_ok(rows) -> bool:
    if len(rows) < 3:
        return True
    m = len(rows[0][1])
    for i in range(m):
        for a in range(len(rows) - 2):
            (r0, p0), (r1, p1), (r2, p2) = rows[a], rows[a + 1], rows[a + 2]
            if (p2[i] - p1[i]) * (r1 - r0) < (p1[i] - p0[i]) * (r2 - r1):
                return False
    return True


def _nondecreasing_ok(rows) -> bool:
    m = len(rows[0][1]) if rows else 0
    for i in range(m):
        for a in range(len(rows) - 1):
            if rows[a + 1][1][i] < rows[a][1][i] - Fraction(1, 10 ** 6):
                return False
    return True
