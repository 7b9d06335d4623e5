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

from dataclasses import dataclass
from fractions import Fraction

from padiff.config import WorkbenchConfig
from padiff.diffmod import DifferentialModule
from padiff.linalg import SeriesMatrix, kernel_basis
from padiff.padic import PrecisionError
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
    log_rho: Fraction
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
    """Taylor iterates of the horizontal frame of one module."""

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
        mats = [SeriesMatrix.identity(p, module.rank)]
        cur = mats[0]
        for s in range(count):
            nxt = cur.derive() - (cur @ A)
            if window is not None:
                cap = window + (count - s)
                nxt = nxt.map(lambda c: c.truncate(cap) if c.order > cap else c)
            mats.append(nxt)
            cur = nxt
        self.mats = mats
        self._column_betas: dict = {}
        self._candidates: list[list[TruncatedSeries]] | None = None

    def tail_range(self) -> range:
        lo = max(int(self.count * _TAIL_FRAC), 1)
        return range(lo, self.count + 1)

    def matrix_beta(self, r: Fraction):
        """max over the tail of |M_s|_rho ** (1/s), as a log_p Fraction.

        A max over tail iterates and entries is the max of the column
        betas, so every entry is read once per radius.
        """
        best = None
        flags = set()
        for j in range(self.module.rank):
            val, _, fl = self.column_beta(r, j)
            flags.update(fl)
            if val is not None and (best is None or val > best):
                best = val
        return best, tuple(sorted(flags))

    def column_beta(self, r: Fraction, j: int):
        """(beta, zero_certified, flags) of column j; read once per radius."""
        if (r, j) not in self._column_betas:
            reads = ((s, self.mats[s].column(j)) for s in self.tail_range())
            self._column_betas[r, j] = _beta(reads, r)
        return self._column_betas[r, j]

    def vector_beta_probes(self, r: Fraction, vec: list[TruncatedSeries]):
        """beta of a combined column, sampled at a few late iterates.

        Enough for replacement decisions: a surviving candidate is
        either exactly annihilated at every probe (certifiable) or kept
        only as an estimate by the caller.
        """
        count = self.count
        probes = sorted({count, count - 1, count - 2,
                         max(3 * count // 4, 1), max(count // 2, 1)})
        return _beta(((s, self.mats[s].matvec(vec)) for s in probes if s >= 1),
                     r, {"probes_only"})

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
                stack = SeriesMatrix.vstack([self.mats[s] for s in picks])
                k = _KERNEL_WORKING_ORDER
                stack = stack.map(lambda c: c.truncate(k) if c.order > k else c)
                try:
                    raw = kernel_basis(stack, working_order=k)
                except (PrecisionError, ValueError):
                    pass
            self._candidates = [_polynomial_lift(vec) for vec in raw]
        return self._candidates


def _polynomial_lift(vec: list[TruncatedSeries],
                     max_degree: int = _KERNEL_WORKING_ORDER - 4):
    """Read a window-limited kernel vector as the polynomial it shows.

    The guess drops trailing coefficients that are only known to be
    small; it is sound because every candidate is verified against the
    raw iterates before any column is replaced.
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
        if last is None or last > max_degree:
            return vec
        out.append(TruncatedSeries(c.p, list(c.coeffs[:last + 1]), True))
    return out


def _beta(reads, r: Fraction, flags=()):
    """(beta, all_zero, flags) over (s, vector) reads: beta is the max
    of log_p |w_s|_rho / s, and all_zero holds when every vector
    vanished exactly."""
    best = None
    flags = set(flags)
    all_zero = True
    for s, vec in reads:
        g, fl = _vector_norm(vec, r)
        flags.update(fl)
        if g is None:
            if any(not c.is_zero_series() for c in vec):
                all_zero = False
            continue
        all_zero = False
        val = Fraction(g, s)
        if best is None or val > best:
            best = val
    return best, all_zero, tuple(sorted(flags))


def _vector_norm(vec: list[TruncatedSeries], r: Fraction):
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
    return best, flags


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
        r = Fraction(r)
        beta, flags = self.iterates().matrix_beta(r)
        log_R = _capped_radius(self.p, r, beta)
        return RadiusSample(r, log_R, _is_clean(flags), flags)

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
