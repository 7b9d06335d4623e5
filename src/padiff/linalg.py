"""Linear algebra over Q_p and over truncated series rings.

Two layers live here.  The field layer does Gaussian elimination on
matrices of ``PadicNumber`` with largest-norm pivoting; an undetermined
rank raises ``PrecisionError`` instead of guessing.  The series layer
diagonalises matrices over Q_p[[t]] truncated at a working order: a
Smith normal form that keeps only its column transform V and divisor
exponents e of t**e, so kernels are columns of V, and coefficient-wise
regular solves against frames invertible at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from padiff.padic import PadicNumber, PrecisionError
from padiff.series import TruncatedSeries, _online


class NoSolutionError(Exception):
    """A linear system is provably inconsistent."""


# ----------------------------------------------------------------------
# field layer


def _field_pivot(rows, col: int, start: int):
    """Largest-norm determinate entry in the column, or None.

    Raises when the column's rank contribution cannot be decided: no
    determinate entry but some entry is a nonzero residue of unknown size.
    """
    best = None
    best_row = None
    undecided = False
    for i in range(start, len(rows)):
        c = rows[i][col]
        if c.is_exact_zero:
            continue
        if c.u == 0:
            undecided = True
            continue
        if best is None or c.v < best.v:
            best = c
            best_row = i
    if best is None and undecided:
        raise PrecisionError("rank of column %d is undetermined" % col)
    return best_row


def field_rref(rows: list[list[PadicNumber]], ncols: int) -> list[tuple[int, int]]:
    """Reduce in place to reduced row echelon form; returns (row, col) pivots."""
    pivots = []
    r = 0
    for col in range(ncols):
        if r >= len(rows):
            break
        i = _field_pivot(rows, col, r)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for k in range(len(rows)):
            if k == r:
                continue
            f = rows[k][col]
            if f.is_exact_zero:
                continue
            rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append((r, col))
        r += 1
    return pivots


def field_kernel(matrix: list[list[PadicNumber]], p: int) -> list[list[PadicNumber]]:
    """Basis of the right kernel, one vector per free column."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = [list(row) for row in matrix]
    pivots = field_rref(rows, ncols)
    pivot_cols = {c: r for r, c in pivots}
    one = PadicNumber.from_int(1, p)
    zero = PadicNumber.exact_zero(p)
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for c, r in pivot_cols.items():
            vec[c] = -rows[r][f]
        basis.append(vec)
    return basis


def field_solve(matrix: list[list[PadicNumber]], rhs: list[PadicNumber],
                p: int) -> list[PadicNumber]:
    """One solution of A x = b, or NoSolutionError with the failing row."""
    ncols = len(matrix[0]) if matrix else 0
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = field_rref(rows, ncols)
    pivot_rows = {r for r, _ in pivots}
    for i, row in enumerate(rows):
        if i in pivot_rows:
            continue
        tail = row[ncols]
        if tail.is_exact_zero:
            continue
        if tail.u == 0:
            raise PrecisionError("consistency of row %d is undetermined" % i)
        raise NoSolutionError("inconsistent row %d" % i)
    zero = PadicNumber.exact_zero(p)
    x = [zero] * ncols
    for r, c in pivots:
        x[c] = rows[r][ncols]
    return x


# ----------------------------------------------------------------------
# series layer


class SeriesMatrix:
    __slots__ = ("p", "entries")

    def __init__(self, p: int, entries: list[list[TruncatedSeries]]):
        self.p = p
        self.entries = entries
        if entries:
            width = len(entries[0])
            if any(len(row) != width for row in entries):
                raise ValueError("ragged matrix")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rational_rows(cls, p: int, rows) -> "SeriesMatrix":
        """rows[i][j] is a coefficient list (ints, Fractions or pairs) of a
        polynomial."""
        entries = [[TruncatedSeries.from_rationals(p, cell) for cell in row]
                   for row in rows]
        return cls(p, entries)

    @classmethod
    def identity(cls, p: int, n: int) -> "SeriesMatrix":
        return cls(p, [[TruncatedSeries.one(p) if i == j else TruncatedSeries.zero(p)
                        for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, p: int, m: int, n: int) -> "SeriesMatrix":
        return cls(p, [[TruncatedSeries.zero(p) for _ in range(n)] for _ in range(m)])

    @classmethod
    def vstack(cls, blocks: list["SeriesMatrix"]) -> "SeriesMatrix":
        p = blocks[0].p
        entries = [row for b in blocks for row in b.entries]
        return cls(p, entries)

    # -- views ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0]) if self.entries else 0

    def column(self, j: int) -> list[TruncatedSeries]:
        return [row[j] for row in self.entries]

    # -- arithmetic -------------------------------------------------------

    def map(self, fn) -> "SeriesMatrix":
        return SeriesMatrix(self.p, [[fn(c) for c in row] for row in self.entries])

    def __sub__(self, other):
        return SeriesMatrix(self.p, [[a - b for a, b in zip(ra, rb)]
                                     for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return self.map(lambda c: -c)

    def transpose(self) -> "SeriesMatrix":
        m, n = self.shape
        return SeriesMatrix(self.p, [[self.entries[i][j] for i in range(m)]
                                     for j in range(n)])

    def derive(self) -> "SeriesMatrix":
        return self.map(lambda c: c.derive())

    def matvec(self, vec: list[TruncatedSeries]) -> list[TruncatedSeries]:
        m, n = self.shape
        if len(vec) != n:
            raise ValueError("shape mismatch")
        out = []
        for row in self.entries:
            # the sum starts at the first product: 0 + x is x exactly
            acc = None
            for a, x in zip(row, vec):
                if a.is_zero_series() or x.is_zero_series():
                    continue
                acc = a * x if acc is None else acc + a * x
            out.append(TruncatedSeries.zero(self.p) if acc is None else acc)
        return out

    def __matmul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        m, k = self.shape
        k2, n = other.shape
        if k != k2:
            raise ValueError("shape mismatch")
        cols = [self.matvec(other.column(j)) for j in range(n)]
        return SeriesMatrix(self.p, [[cols[j][i] for j in range(n)] for i in range(m)])

    def det(self) -> TruncatedSeries:
        m, n = self.shape
        if m != n:
            raise ValueError("determinant of a non-square matrix")
        return _laplace(self.p, self.entries)

    def minor(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> TruncatedSeries:
        sub = [[self.entries[i][j] for j in cols] for i in rows]
        return _laplace(self.p, sub)

    def coefficient_matrix(self, d: int) -> list[list[PadicNumber]]:
        return [[c.coefficient(d) for c in row] for row in self.entries]

    def max_known_order(self) -> int | None:
        """Common coefficient window; None when every entry is a polynomial."""
        windows = [c.order for row in self.entries for c in row if not c.tail_exact]
        return min(windows) if windows else None

    def __repr__(self):
        m, n = self.shape
        return "<SeriesMatrix %dx%d over Q_%d[[t]]>" % (m, n, self.p)


def _laplace(p: int, entries: list[list[TruncatedSeries]]) -> TruncatedSeries:
    n = len(entries)
    if n == 0:
        return TruncatedSeries.one(p)
    if n == 1:
        return entries[0][0]
    acc = TruncatedSeries.zero(p)
    for j in range(n):
        top = entries[0][j]
        if top.is_zero_series():
            continue
        sub = [[row[c] for c in range(n) if c != j] for row in entries[1:]]
        term = top * _laplace(p, sub)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


# ----------------------------------------------------------------------
# Smith normal form over the truncated ring


@dataclass
class SmithDecomposition:
    """A @ V, with V unimodular: below the rank, column j has least
    t-order exponents[j]; past the rank, the columns vanish through order
    working_order - sum(exponents).

    exponents are the e of the divisors t**e, ascending, and None for a
    block that vanishes at the truncation order.  ``certified`` is True
    only when every rank decision was made on exact coefficients.
    """

    V: SeriesMatrix
    exponents: list[int | None]
    certified: bool


def smith_normal_form(A: SeriesMatrix, working_order: int | None = None) -> SmithDecomposition:
    """Column transform V of a Smith normal form U @ A @ V; the row
    operations act on the working copy only, so U is never built."""
    p = A.p
    m, n = A.shape
    if working_order is None:
        working_order = A.max_known_order()
    if working_order is None:
        working_order = 4 * (max(c.order for row in A.entries for c in row) + 1)
    W = [[c for c in row] for row in A.entries]
    V = SeriesMatrix.identity(p, n).entries
    certified = True
    valid = working_order
    exponents: list[int | None] = []

    for k in range(min(m, n)):
        # pivot: least order of vanishing, then largest leading coefficient
        best_key = None
        best_pos = None
        for i in range(k, m):
            for j in range(k, n):
                order, ambiguous = W[i][j].t_order_info()
                if ambiguous:
                    certified = False
                if order is None:
                    continue
                lead = W[i][j].coeffs[order]
                key = (order, lead.v, i, j)
                if best_key is None or key < best_key:
                    best_key = key
                    best_pos = (i, j)
        if best_pos is None:
            break
        bi, bj = best_pos
        if bi != k:
            W[k], W[bi] = W[bi], W[k]
        if bj != k:
            for row in W:
                row[k], row[bj] = row[bj], row[k]
            for row in V:
                row[k], row[bj] = row[bj], row[k]
        pivot = W[k][k]
        e = best_key[0]
        if exponents and exponents[-1] is not None and e < exponents[-1]:
            raise AssertionError("divisor chain broke: t**%d after t**%d"
                                 % (e, exponents[-1]))
        valid_next = valid - e
        if valid_next < 0:
            raise PrecisionError("working order exhausted at step %d" % k)
        for i in range(k + 1, m):
            if W[i][k].t_order_info()[0] is None:
                continue
            f = W[i][k].divide(pivot, order=valid_next)
            W[i] = [a - f * b for a, b in zip(W[i], W[k])]
        for j in range(k + 1, n):
            if W[k][j].t_order_info()[0] is None:
                continue
            g = W[k][j].divide(pivot, order=valid_next)
            for row in W:
                row[j] = row[j] - g * row[k]
            for row in V:
                row[j] = row[j] - g * row[k]
        exponents.append(e)
        valid = valid_next

    r = len(exponents)
    exponents += [None] * (min(m, n) - r)
    # leftover block decides certification: inexact zeros may hide rank
    for i in range(r, m):
        for j in range(r, n):
            if not W[i][j].is_zero_series():
                certified = False

    return SmithDecomposition(SeriesMatrix(p, V), exponents, certified)


def kernel_basis(A: SeriesMatrix, working_order: int | None = None) -> list[list[TruncatedSeries]]:
    """Basis of the right kernel over the series ring, normalised so the
    least-order entry of each vector is exactly 1."""
    m, n = A.shape
    dec = smith_normal_form(A, working_order)
    idx = [k for k, e in enumerate(dec.exponents) if e is None]
    idx += list(range(min(m, n), n))
    basis = []
    for j in idx:
        vec = dec.V.column(j)
        basis.append(_normalize_vector(vec))
    return basis


def _normalize_vector(vec: list[TruncatedSeries]) -> list[TruncatedSeries]:
    best = None
    best_i = None
    for i, c in enumerate(vec):
        order, _ = c.t_order_info()
        if order is None:
            continue
        lead = c.coeffs[order]
        key = (order, lead.v, i)
        if best is None or key < best:
            best = key
            best_i = i
    if best_i is None:
        return vec
    div = vec[best_i]
    return [c.divide(div) if not c.is_zero_series() else c for c in vec]


def solve_regular(H: SeriesMatrix, B: SeriesMatrix, order: int) -> SeriesMatrix:
    """Solve H X = B coefficient by coefficient.

    H must have full column rank already in its constant term, which pins
    every coefficient of X uniquely; an inconsistent order raises
    NoSolutionError.  This is the cheap path for solving against a frame
    of horizontal sections, whose values at t = 0 are independent.  Each
    column of X solves H_0 X_s = B_s - sum_(d >= 1) H_d X_(s-d) (see
    series._online).
    """
    p = H.p
    m, n = H.shape
    mb, k = B.shape
    if mb != m:
        raise ValueError("shape mismatch")
    hw = H.max_known_order()
    bw = B.max_known_order()
    for w in (hw, bw):
        if w is not None and order > w:
            raise ValueError("requested order exceeds the known window")
    h0 = H.coefficient_matrix(0)
    # each row's pairs by degree ascending, then by column
    ops = [[(d, l, cell.coeffs[d]) for d in range(1, order + 1)
            for l, cell in enumerate(row) if d <= cell.order] for row in H.entries]
    cols = [_online(p, ops, lambda s, i: B.entries[i][j].coefficient(s),
                    lambda s, r: field_solve(h0, r, p), [], order + 1)
            for j in range(k)]
    return SeriesMatrix(p, [[TruncatedSeries(p, [x[l] for x in cols[j]]) for j in range(k)]
                            for l in range(n)])


def invert_regular(H: SeriesMatrix, order: int) -> SeriesMatrix:
    m, n = H.shape
    if m != n:
        raise ValueError("inverse of a non-square matrix")
    return solve_regular(H, SeriesMatrix.identity(H.p, n), order)
