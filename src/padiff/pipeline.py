"""Verification pipeline for log-growth bounds of horizontal sections.

Three stages share one vocabulary.  growth_order reads the log-growth
exponent of a section from a tail window of its coefficients.
verify_dwork_bound checks the solvable-case bound: every bounded
horizontal section of a fully solvable module has log-growth at most
m - 1.  construct_submodule builds the bounded solvable submodule
realizing the horizontal sections, together with the witness data
(submodule, inclusion phi, frame change theta, wedge vector e) and the
diagnostics that certify it; verify_conjecture aggregates the sharper
n - 1 bound with that witness and the boundary radius hypothesis.

Every stage accepts precomputed inputs (an H0Report, a BoundaryReport)
so a driver can share the expensive solves between checks; anything
omitted is computed on demand from the supplied configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from padiff.config import WorkbenchConfig
from padiff.diffmod import DifferentialModule, H0Report
from padiff.linalg import (
    NoSolutionError,
    SeriesMatrix,
    invert_regular,
    kernel_basis,
    solve_regular,
)
from padiff.padic import PadicNumber
from padiff.radii import BoundaryReport, RadiusWorkbench
from padiff.series import TruncatedSeries

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"
NOT_APPLICABLE = "NOT_APPLICABLE"


class WitnessError(RuntimeError):
    """Construction failed; inconclusive=True means the window was too
    short to decide rather than a definite structural failure."""

    def __init__(self, message: str, inconclusive: bool = False):
        super().__init__(message)
        self.inconclusive = inconclusive


# ----------------------------------------------------------------------
# growth order of a section


@dataclass(frozen=True)
class GrowthOrder:
    value: float                 # max over coordinates of the tail estimate
    attained: tuple[int, int] | None   # (coordinate, index) of the max
    indeterminate: bool
    window: tuple[int, int]


def growth_order(section, order: int | None = None,
                 tail_start: float = 0.25) -> GrowthOrder:
    """Componentwise max of the log-growth estimates of the coordinates."""
    if order is None:
        order = min(s.order for s in section)
    lo = max(int(tail_start * order), 1)
    value = 0.0
    attained = None
    indeterminate = False
    for ci, coord in enumerate(section):
        prof = coord.growth_profile(lo, order)
        indeterminate = indeterminate or prof.indeterminate
        if prof.delta_attained is not None and prof.delta_hat >= value:
            value = prof.delta_hat
            attained = (ci, prof.delta_attained)
    return GrowthOrder(value, attained, indeterminate, (lo, order))


# ----------------------------------------------------------------------
# boundary radius transfer check


@dataclass(frozen=True)
class TransferCheck:
    """Full solvability against a unit top radius on the boundary.

    The two readings must agree: the smallest boundary radius is 1
    (within tolerance) exactly when every horizontal section converges,
    i.e. when n = m.
    """

    log_radius: Fraction
    h0_dim: int
    rank: int
    tolerance: float
    consistent: bool


def transfer_check(module: DifferentialModule, cfg: WorkbenchConfig | None = None,
                   h0: H0Report | None = None,
                   boundary: BoundaryReport | None = None) -> TransferCheck:
    cfg = cfg or WorkbenchConfig()
    h0 = h0 or module.h0_basis(cfg.solve)
    boundary = boundary or RadiusWorkbench(module, cfg.radii).boundary_multiset()
    tol = cfg.verify.transfer_tolerance
    top = boundary.log_radii[0]
    unit = abs(float(top)) <= tol
    return TransferCheck(top, h0.dim, module.rank, tol,
                         unit == (h0.dim == module.rank))


# ----------------------------------------------------------------------
# solvable-case growth bound


@dataclass(frozen=True)
class DworkReport:
    label: str
    rank: int
    h0_dim: int
    applicable: bool            # the bound speaks only to fully solvable modules
    delta_hats: tuple[float, ...]
    bound: float
    fil_stable: bool
    verdict: str
    order: int
    tolerance: float


def verify_dwork_bound(module: DifferentialModule,
                       cfg: WorkbenchConfig | None = None,
                       h0: H0Report | None = None) -> DworkReport:
    """Check that every basis section has log-growth at most m - 1.

    Sections of a non-solvable module are outside the statement; the
    report then records NOT_APPLICABLE rather than a verdict.
    """
    cfg = cfg or WorkbenchConfig()
    h0 = h0 or module.h0_basis(cfg.solve)
    m = module.rank
    tol = cfg.verify.growth_tolerance
    reports = h0.basis_reports()
    deltas = tuple(r.delta_hat for r in reports)
    if h0.dim < m:
        return DworkReport(module.label, m, h0.dim, False, deltas,
                           m - 1 + tol, False, NOT_APPLICABLE,
                           cfg.solve.order, tol)
    fil_stable = all(
        coord.fil_membership(m - 1, float("inf")).verdict == "holds"
        for r in reports for coord in r.section)
    if any(d > m - 1 + tol for d in deltas):
        verdict = FAIL
    elif h0.inconclusive or not fil_stable:
        verdict = INCONCLUSIVE
    else:
        verdict = PASS
    return DworkReport(module.label, m, h0.dim, True, deltas,
                       m - 1 + tol, fil_stable, verdict, cfg.solve.order, tol)


# ----------------------------------------------------------------------
# the solvable submodule witness


@dataclass(frozen=True)
class WitnessDiagnostics:
    branch: str                        # "zero" | "full" | "generic"
    e_sup_exponent: Fraction | None    # log_p sup norm of e before scaling
    e_sup_certified: bool              # False when precision hid the sup read
    e_horizontal: bool
    d_stable: bool
    diagram_ok: bool
    theta_growth: float | None
    h0_of_submodule: int | None
    hypothesis_log_radius: Fraction | None
    hypothesis_ok: bool | None

    @property
    def ok(self) -> bool:
        return (self.e_horizontal and self.d_stable and self.diagram_ok
                and self.hypothesis_ok is not False)


@dataclass(frozen=True)
class SubmoduleWitness:
    """The bounded solvable submodule with its certifying maps.

    submodule carries the induced connection on the kernel basis; phi
    columns are that basis written in the ambient coordinates; theta is
    the frame change with frame . theta = phi on the shared window; e
    is the wedge of the horizontal sections, normalized to unit sup.
    The zero branch (no bounded sections) keeps all four fields None.
    """

    submodule: DifferentialModule | None
    phi: SeriesMatrix | None
    theta: SeriesMatrix | None
    e: list[TruncatedSeries] | None
    diagnostics: WitnessDiagnostics

    @property
    def rank(self) -> int:
        return 0 if self.submodule is None else self.submodule.rank


def _zeroish(series: TruncatedSeries) -> bool:
    return all(c.is_zeroish for c in series.coeffs)


def _section_frame(p: int, sections) -> SeriesMatrix:
    m = len(sections[0])
    return SeriesMatrix(p, [[sec[i] for sec in sections] for i in range(m)])


def _wedge_coordinates(frame: SeriesMatrix, n: int) -> list[TruncatedSeries]:
    """Minors of the m x n section frame on the lexicographic wedge basis."""
    m = frame.shape[0]
    cols = tuple(range(n))
    return [frame.minor(rows, cols) for rows in combinations(range(m), n)]


def _wedge_against(p: int, m: int, n: int, e) -> SeriesMatrix:
    """Matrix of x -> x ^ e from the module into the (n+1)-st wedge."""
    rows = list(combinations(range(m), n + 1))
    index = {s: i for i, s in enumerate(combinations(range(m), n))}
    Z = TruncatedSeries.zero(p)
    entries = [[Z] * m for _ in rows]
    for ri, S in enumerate(rows):
        for pos, i in enumerate(S):
            rest = S[:pos] + S[pos + 1:]
            coeff = e[index[rest]]
            entries[ri][i] = -coeff if pos % 2 else coeff
    return SeriesMatrix(p, entries)


def _normalize_sup(e, p: int, strict: bool = True):
    """Scale e so its sup norm on the closed disc is exactly 1.

    Returns the scaled vector, the original sup exponent, and whether
    every coordinate norm was certified.  Strict mode raises when a
    coordinate norm is still moving at the window edge or drowned in
    precision loss, since then no boundedness claim is sound; the
    non-strict mode scales by the best certified read and reports
    certified=False, for callers whose construction does not lean on e.
    """
    sup = None
    certified = True
    for ci, coord in enumerate(e):
        g = coord.gauss_norm(Fraction(0))
        if g.indeterminate or g.boundary:
            if strict or g.exponent is None:
                raise WitnessError(
                    "sup norm of wedge coordinate %d not stabilized on the "
                    "window" % ci, inconclusive=True)
            certified = False
        if g.exponent is not None and (sup is None or g.exponent > sup):
            sup = g.exponent
    if sup is None:
        raise WitnessError("wedge of the horizontal sections vanished")
    u = int(sup)
    if u == 0:
        return list(e), sup, certified
    # a scalar of norm p**(-u): p**u as a value
    unit = PadicNumber.from_rational(p ** max(u, 0), p ** max(-u, 0), p)
    return [coord.scale(unit) for coord in e], sup, certified


def _induced_connection(module: DifferentialModule, phi: SeriesMatrix,
                        order: int) -> tuple[DifferentialModule, bool]:
    """Connection on the kernel basis, plus a D-stability residual check."""
    cols = [module.apply_D(phi.column(j)) for j in range(phi.shape[1])]
    d_phi = SeriesMatrix(module.p, [[cols[j][i] for j in range(len(cols))]
                                    for i in range(phi.shape[0])])
    # differentiation shrinks the known window by one
    order = min([order] + [w for w in (phi.max_known_order(),
                                       d_phi.max_known_order())
                           if w is not None])
    try:
        conn = solve_regular(phi, d_phi, order)
    except NoSolutionError as exc:
        raise WitnessError("kernel basis is not D-stable: %s" % exc) from exc
    resid = (phi @ conn) - d_phi
    stable = all(_zeroish(resid.entries[i][j])
                 for i in range(resid.shape[0]) for j in range(resid.shape[1]))
    return DifferentialModule(conn, label=module.label + "|submodule"
                              if module.label else "submodule"), stable


def construct_submodule(module: DifferentialModule,
                        cfg: WorkbenchConfig | None = None,
                        h0: H0Report | None = None,
                        boundary: BoundaryReport | None = None) -> SubmoduleWitness:
    """Build the bounded solvable submodule realizing the horizontal part.

    The zero and full branches short-circuit: no bounded sections means
    the zero witness, full solvability means the module itself with the
    inverted section frame.  In between, the wedge vector e of the
    sections is certified bounded and horizontal, the kernel of
    x -> x ^ e is taken as the submodule, and the frame change theta is
    solved for and checked to converge on the unit disc.
    """
    cfg = cfg or WorkbenchConfig()
    h0 = h0 or module.h0_basis(cfg.solve)
    if h0.inconclusive:
        raise WitnessError("horizontal section count is inconclusive",
                           inconclusive=True)
    p = module.p
    m = module.rank
    n = h0.dim
    sections = h0.basis

    if n == 0:
        diag = WitnessDiagnostics("zero", None, True, True, True, True,
                                  None, None, None, None)
        return SubmoduleWitness(None, None, None, None, diag)

    frame = _section_frame(p, sections)
    if n == m:
        wo = frame.max_known_order()
        order = cfg.solve.order if wo is None else min(cfg.solve.order, wo)
        theta = invert_regular(frame, order)
        resid = (frame @ theta) - SeriesMatrix.identity(p, m)
        diagram_ok = all(_zeroish(resid.entries[i][j])
                         for i in range(m) for j in range(m))
        # here the witness is the module itself; e is pure diagnostics,
        # so a precision-starved sup read downgrades to a flag
        e, sup, e_cert = _normalize_sup([frame.det()], p, strict=False)
        t_growth = _theta_growth(theta)
        diag = WitnessDiagnostics("full", sup, e_cert, True, True, diagram_ok,
                                  t_growth, n, None, None)
        return SubmoduleWitness(module, SeriesMatrix.identity(p, m),
                                theta, e, diag)

    boundary = boundary or RadiusWorkbench(module, cfg.radii).boundary_multiset()
    hyp = boundary.log_radii[m - n - 1]
    hyp_ok = float(hyp) < -cfg.verify.transfer_tolerance
    if not hyp_ok:
        raise WitnessError(
            "subsidiary radius %d sits at the unit circle (log %s); the "
            "construction needs it strictly inside" % (m - n, hyp))

    e = _wedge_coordinates(frame, n)
    wedge_n = module.wedge(n)
    e_horizontal = all(_zeroish(c) for c in wedge_n.apply_D(e))
    e, sup, e_cert = _normalize_sup(e, p)

    B = _wedge_against(p, m, n, e)
    kernel = kernel_basis(B)
    if len(kernel) != n:
        raise WitnessError("kernel of the wedge map has rank %d, expected %d"
                           % (len(kernel), n))
    phi = SeriesMatrix(p, [[kernel[j][i] for j in range(n)] for i in range(m)])

    orders = [w for w in (frame.max_known_order(), phi.max_known_order())
              if w is not None]
    order = min([cfg.solve.order] + orders)
    submodule, d_stable = _induced_connection(module, phi, order)

    try:
        theta = solve_regular(frame, phi, order)
    except NoSolutionError as exc:
        raise WitnessError("no frame change onto the sections: %s" % exc) from exc
    resid = (frame @ theta) - phi
    diagram_ok = all(_zeroish(resid.entries[i][j])
                     for i in range(m) for j in range(n))
    t_growth = _theta_growth(theta)
    if t_growth > cfg.solve.eps_convergent:
        raise WitnessError("frame change diverges: growth %.4f" % t_growth)

    sub_h0 = submodule.h0_basis(cfg.solve)
    if sub_h0.dim != n:
        raise WitnessError(
            "submodule carries %d bounded sections, expected %d"
            % (sub_h0.dim, n), inconclusive=sub_h0.inconclusive)

    diag = WitnessDiagnostics("generic", sup, e_cert, e_horizontal, d_stable,
                              diagram_ok, t_growth, sub_h0.dim, hyp, hyp_ok)
    return SubmoduleWitness(submodule, phi, theta, e, diag)


def _theta_growth(theta: SeriesMatrix, tail_start: float = 0.25) -> float:
    worst = 0.0
    for row in theta.entries:
        for entry in row:
            lo = max(int(tail_start * entry.order), 1)
            lam = entry.growth_profile(lo, entry.order).lam
            if lam is not None:
                worst = max(worst, float(lam))
    return worst


# ----------------------------------------------------------------------
# conjecture aggregation


@dataclass(frozen=True)
class ConjectureReport:
    label: str
    rank: int
    h0_dim: int
    delta_hats: tuple[float, ...]
    bound: float | None          # None when the statement is vacuous
    verdict: str
    vacuous: bool
    hypothesis_log_radius: Fraction | None
    hypothesis_ok: bool | None
    hypothesis_route: str
    witness_status: str
    witness: SubmoduleWitness | None
    dwork: DworkReport
    transfer: TransferCheck
    boundary: BoundaryReport
    order: int
    iterates: int
    growth_tolerance: float
    transfer_tolerance: float


def verify_conjecture(module: DifferentialModule,
                      cfg: WorkbenchConfig | None = None,
                      h0: H0Report | None = None,
                      boundary: BoundaryReport | None = None) -> ConjectureReport:
    """Check the sharper bound: log-growth of every bounded horizontal
    section is at most n - 1, n the count of such sections.

    The verdict tracks only that bound (vacuously true for n = 0); the
    witness construction and the boundary radius hypothesis ride along
    as independently checkable evidence.
    """
    cfg = cfg or WorkbenchConfig()
    h0 = h0 or module.h0_basis(cfg.solve)
    boundary = boundary or RadiusWorkbench(module, cfg.radii).boundary_multiset()
    m = module.rank
    n = h0.dim
    tol = cfg.verify.growth_tolerance
    deltas = tuple(r.delta_hat for r in h0.basis_reports())

    vacuous = n == 0
    bound = None if vacuous else n - 1 + tol
    if h0.inconclusive:
        verdict = INCONCLUSIVE
    elif vacuous or all(d <= bound for d in deltas):
        verdict = PASS
    else:
        verdict = FAIL

    if n == m:
        hyp = None
        hyp_ok = None
        route = "solvable"
    else:
        hyp = boundary.log_radii[m - n - 1]
        hyp_ok = float(hyp) < -cfg.verify.transfer_tolerance
        route = "corank-one-automatic" if n == m - 1 else "measured"

    try:
        witness = construct_submodule(module, cfg, h0=h0, boundary=boundary)
        status = "verified (%s branch)" % witness.diagnostics.branch
        if not witness.diagnostics.ok:
            status = "constructed with failing diagnostics"
    except WitnessError as exc:
        witness = None
        status = ("inconclusive: %s" if exc.inconclusive else "failed: %s") % exc

    dwork = verify_dwork_bound(module, cfg, h0=h0)
    transfer = transfer_check(module, cfg, h0=h0, boundary=boundary)
    return ConjectureReport(
        module.label, m, n, deltas, bound, verdict, vacuous,
        hyp, hyp_ok, route, status, witness, dwork, transfer, boundary,
        cfg.solve.order, cfg.radii.iterates,
        tol, cfg.verify.transfer_tolerance)
