"""Convergence radius estimators at the generic point of a circle.

All radii are handled through their base-p logarithms as exact
Fractions: the disc radius p**(-r) is "r", a computed radius p**(-f)
appears as "-f".  omega = p**(-1/(p-1)) is the radius of exp and caps
every estimate through the Dwork bound.

Two routes produce the multiset of convergence radii:

* the column route runs the Taylor iterates M_0 = I,
  M_{s+1} = M_s' - M_s A, whose column j holds the s-th derivative of
  the horizontal section through e_j at a generic center; kernel
  vectors of a stack of late iterates propose replacement basis columns
  with larger radii, and every proposal is re-verified against the raw
  iterates before it is accepted.  Sorted column radii are
  per-position lower bounds for the true multiset.

* the ladder route estimates the top radius of every exterior power;
  minus-log intrinsic radii telescope to per-position values.  The
  ladder overshoots when consecutive radii coincide (tensor
  cancellation), so a rung is only trusted while the implied sequence
  stays nonnegative, monotone, and below the column bound.

Positions where the routes agree are certified; elsewhere the
reconciliation records which route supplied the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from padiff.config import RadiiConfig
from padiff.diffmod import DifferentialModule
from padiff.linalg import SeriesMatrix, kernel_basis
from padiff.padic import PrecisionError
from padiff.series import TruncatedSeries

_AUTO_ITERATE_WINDOW = 96
_MIN_ITERATE_WINDOW = 32
_KERNEL_STACK_DEPTH = 3
_KERNEL_WORKING_ORDER = 16
_LADDER_TOL = Fraction(1, 1000)


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
    flags: tuple[str, ...]


@dataclass(frozen=True)
class BoundaryReport:
    log_radii: tuple[Fraction, ...]          # ascending
    provenance: tuple[str, ...]
    residual_ok: tuple[bool, ...]
    grid: tuple[Fraction, ...]
    solvable_rank: int


@dataclass(frozen=True)
class FProfile:
    rows: tuple[tuple[Fraction, tuple[Fraction, ...]], ...]
    convex: bool
    nondecreasing: bool


class PowerIterates:
    """Taylor iterates of the horizontal frame of one module."""

    def __init__(self, module: DifferentialModule, count: int,
                 window: int | None = None):
        self.module = module
        self.count = count
        p = module.p
        A = module.matrix
        mat_window = A.max_known_order()
        if mat_window is not None:
            available = mat_window - count
            window = available if window is None else min(window, available)
            window = min(window, _AUTO_ITERATE_WINDOW)
            if window < _MIN_ITERATE_WINDOW:
                raise ValueError(
                    "matrix window %d cannot support %d iterates" % (mat_window, count))
        else:
            window = None
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

    def tail_range(self, tail_frac: float) -> range:
        lo = max(int(self.count * tail_frac), 1)
        return range(lo, self.count + 1)

    def matrix_beta(self, r: Fraction, tail_frac: float):
        """max over the tail of |M_s|_rho ** (1/s), as a log_p Fraction.

        A max over tail iterates and entries is the max of the column
        betas, so every entry is read once per radius.
        """
        best = None
        flags = set()
        for j in range(self.module.rank):
            val, _, fl = self.column_beta(r, tail_frac, j)
            flags.update(fl)
            if val is not None and (best is None or val > best):
                best = val
        return best, tuple(sorted(flags))

    def column_beta(self, r: Fraction, tail_frac: float, j: int):
        """(beta, zero_certified, flags) of column j; read once per radius."""
        key = (r, tail_frac, j)
        cached = self._column_betas.get(key)
        if cached is not None:
            return cached
        best = None
        flags = set()
        zero_certified = True
        for s in self.tail_range(tail_frac):
            col = self.mats[s].column(j)
            g, fl = _vector_norm(col, r)
            flags.update(fl)
            if g is None:
                if any(not c.is_zero_series() for c in col):
                    zero_certified = False
                continue
            zero_certified = False
            val = Fraction(g, s)
            if best is None or val > best:
                best = val
        out = (best, zero_certified, tuple(sorted(flags)))
        self._column_betas[key] = out
        return out

    def vector_beta_probes(self, r: Fraction, vec: list[TruncatedSeries]):
        """beta of a combined column, sampled at a few late iterates.

        Enough for replacement decisions: a surviving candidate is
        either exactly annihilated at every probe (certifiable) or kept
        only as an estimate by the caller.
        """
        count = self.count
        probes = sorted({count, count - 1, count - 2,
                         max(3 * count // 4, 1), max(count // 2, 1)})
        best = None
        flags = {"probes_only"}
        all_zero = True
        for s in probes:
            if s < 1:
                continue
            w = self.mats[s].matvec(vec)
            g, fl = _vector_norm(w, r)
            flags.update(fl)
            if g is None:
                if any(not c.is_zero_series() for c in w):
                    all_zero = False
                continue
            all_zero = False
            val = Fraction(g, s)
            if best is None or val > best:
                best = val
        return best, all_zero, tuple(sorted(flags))

    def kernel_candidates(self) -> list[list[TruncatedSeries]]:
        """Kernel vectors of a stack of late iterates, truncated low.

        Spurious vectors of the truncated stack are harmless: every
        candidate is verified against the raw iterates before use.
        """
        count = self.count
        picks = [count - d for d in range(_KERNEL_STACK_DEPTH) if count - d >= 1]
        if not picks:
            return []
        stack = SeriesMatrix.vstack([self.mats[s] for s in picks])
        k = _KERNEL_WORKING_ORDER
        stack = stack.map(lambda c: c.truncate(k) if c.order > k else c)
        try:
            raw = kernel_basis(stack, working_order=k)
        except (PrecisionError, ValueError):
            return []
        return [_polynomial_lift(vec) for vec in raw]


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

    def __init__(self, module: DifferentialModule, cfg: RadiiConfig | None = None):
        self.module = module
        self.cfg = cfg or RadiiConfig()
        self.p = module.p
        self._power_iterates: dict[int, PowerIterates] = {}
        self._columns_cache: dict[Fraction, list[ColumnRadius]] = {}

    def iterates(self, wedge_degree: int = 1) -> PowerIterates:
        it = self._power_iterates.get(wedge_degree)
        if it is None:
            mod = self.module if wedge_degree == 1 else self.module.wedge(wedge_degree)
            it = PowerIterates(mod, self.cfg.iterates, self.cfg.iterate_window)
            self._power_iterates[wedge_degree] = it
        return it

    def top_radius(self, r, wedge_degree: int = 1) -> RadiusSample:
        r = Fraction(r)
        it = self.iterates(wedge_degree)
        beta, flags = it.matrix_beta(r, self.cfg.tail_frac)
        log_R = _capped_radius(self.p, r, beta)
        return RadiusSample(r, log_R, _is_clean(flags), flags)

    # -- column route ------------------------------------------------------

    def column_radii(self, r) -> list[ColumnRadius]:
        r = Fraction(r)
        cached = self._columns_cache.get(r)
        if cached is not None:
            return cached
        it = self.iterates(1)
        m = self.module.rank
        p = self.p
        cols: list[ColumnRadius] = []
        for j in range(m):
            beta, zero_cert, flags = it.column_beta(r, self.cfg.tail_frac, j)
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

    # -- combined multiset ---------------------------------------------------

    def multiset(self, r) -> MultisetSample:
        r = Fraction(r)
        cols = self.column_radii(r)
        f_cols = sorted((-(c.log_radius) for c in cols), reverse=True)
        ladder = self._ladder(r)
        # a radius never exceeds rho, so a trustworthy rung has f >= r;
        # rungs below that are tensor-cancellation artifacts
        out, prov = _reconcile(f_cols, ladder, r)
        # a ladder value is never certified
        cert = [src != "ladder" and cols[i].certified for i, src in enumerate(prov)]
        flags = set()
        if "ladder" in prov:
            flags.add("routes_disagree")
        if ladder is not None and "columns" in prov:
            flags.add("ladder_invalid")
        return MultisetSample(r, tuple(-f for f in out), tuple(prov),
                              tuple(cert), tuple(sorted(flags)))

    def _ladder(self, r: Fraction) -> list[Fraction] | None:
        """Minus-log radii implied by the exterior power top radii."""
        try:
            # minus-log intrinsic top radius of each exterior power
            ells = [-(self.top_radius(r, wedge_degree=k).log_radius + r)
                    for k in range(1, self.module.rank + 1)]
        except ValueError:
            return None
        return _telescope(ells, r)

    # -- boundary extrapolation ------------------------------------------------

    def boundary_multiset(self) -> BoundaryReport:
        """Multiset of radii extrapolated to the boundary circle.

        Both routes are extrapolated to r = 0 before reconciliation:
        interior samples of an exterior power top radius legitimately
        exceed the product of subsidiary radii (a factor rho per wedge
        degree for Hermite-type modules), so rung arithmetic is only
        meaningful in the limit.  Sorted column radii stay per-position
        lower bounds there, which keeps the reconciliation gate sound.
        """
        grid = sorted(Fraction(1, k) for k in self.cfg.rho_denominators)
        m = self.module.rank
        tol = Fraction(self.cfg.fit_residual_tol).limit_denominator(10 ** 9)

        col_samples = {g: self.column_radii(g) for g in grid}
        f_cols: list[Fraction] = []
        col_ok: list[bool] = []
        for i in range(m):
            values = [(g, sorted(c.log_radius for c in col_samples[g])[i])
                      for g in grid]
            log_R, _, ok = _extrapolate(values, tol)
            f_cols.append(-min(log_R, Fraction(0)))
            col_ok.append(ok)
        f_cols.sort(reverse=True)

        ladder, ladder_ok = self._boundary_ladder(grid, tol)
        out, prov = _reconcile(f_cols, ladder, Fraction(0))
        # a position is as sound as the extrapolations it rests on
        res_ok = [(src == "ladder" or col_ok[i]) and (src == "columns" or ladder_ok)
                  for i, src in enumerate(prov)]
        return BoundaryReport(tuple(-f for f in out), tuple(prov),
                              tuple(res_ok), tuple(grid),
                              sum(1 for f in out if f == 0))

    def _boundary_ladder(self, grid, tol):
        """Extrapolated minus-log top radii of the exterior powers."""
        ells = []
        all_ok = True
        try:
            for k in range(1, self.module.rank + 1):
                values = [(g, self.top_radius(g, wedge_degree=k).log_radius)
                          for g in grid]
                log_R, _, ok = _extrapolate(values, tol)
                ells.append(-min(log_R, Fraction(0)))
                all_ok = all_ok and ok
        except ValueError:
            return None, False
        return _telescope(ells, Fraction(0)), all_ok

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


def _keeps_spanning(cols: list[ColumnRadius], worst: int,
                    vec: list[TruncatedSeries], p: int) -> bool:
    trial = [c.column for c in cols]
    trial[worst] = vec
    m = len(vec)
    Y = SeriesMatrix(p, [[trial[j][i] for j in range(len(trial))] for i in range(m)])
    return Y.det().t_order_info()[0] is not None


def _telescope(ells: list[Fraction], shift: Fraction) -> list[Fraction]:
    """Per-position values from cumulative exterior-power reads:
    position k is ells[k] - ells[k-1] + shift."""
    out = []
    prev = Fraction(0)
    for ell in ells:
        out.append(ell - prev + shift)
        prev = ell
    return out


def _reconcile(f_cols: list[Fraction], ladder: list[Fraction] | None,
               floor: Fraction) -> tuple[list[Fraction], list[str]]:
    """Per-position minus-log radii and the route that supplied each.

    f_cols are the sorted column bounds; a ladder rung is trusted only
    while it stays at or above floor, monotone, and below the column
    bound.  Trusted rungs that match the column are "agree", others
    "ladder"; untrusted ones leave the column value, "columns".
    """
    out: list[Fraction] = []
    prov: list[str] = []
    prev_f = None
    for i, f_col in enumerate(f_cols):
        f_lad = ladder[i] if ladder is not None else None
        ladder_valid = (
            f_lad is not None
            and f_lad >= floor - _LADDER_TOL
            and (prev_f is None or f_lad <= prev_f + _LADDER_TOL)
            and f_lad <= f_col + _LADDER_TOL
        )
        if ladder_valid and abs(f_lad - f_col) <= _LADDER_TOL:
            out.append(f_col)
            prov.append("agree")
        elif ladder_valid:
            out.append(max(f_lad, floor))
            prov.append("ladder")
        else:
            out.append(f_col)
            prov.append("columns")
        prev_f = out[-1]
    return out, prov


def _extrapolate(values: list[tuple[Fraction, Fraction]], tol: Fraction):
    """Affine extrapolation to r = 0 through the two smallest-r points.

    The third point checks the fit; on failure the window shifts away
    from the boundary once before the check is waived and flagged.
    """
    values = sorted(values)
    for lead in (0, 1):
        if lead + 1 >= len(values):
            break
        (r1, v1), (r2, v2) = values[lead], values[lead + 1]
        slope = (v2 - v1) / (r2 - r1)
        intercept = v1 - slope * r1
        if lead + 2 < len(values):
            r3, v3 = values[lead + 2]
            if abs(intercept + slope * r3 - v3) > tol:
                continue
            return intercept, ((r1, v1), (r2, v2)), True
        return intercept, ((r1, v1), (r2, v2)), False
    (r1, v1), (r2, v2) = values[0], values[1]
    slope = (v2 - v1) / (r2 - r1)
    return v1 - slope * r1, ((r1, v1), (r2, v2)), False


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
