"""Tunable parameters for the solver, radius estimators and verifiers.

Defaults are sized for rank <= 4 modules with polynomial or moderately
long series entries; every stage takes its own config so experiments
can tighten one phase without touching the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class SolveConfig:
    # truncation order for horizontal section solving
    order: int = 400
    # growth statistics use coefficients in [tail_start * order, order]
    tail_start: float = 0.25
    # stability is judged against the late window [late_start * order, order]
    late_start: float = 0.75
    # a section counts as convergent when its growth rate sits below
    # eps_convergent - eps_margin, divergent above eps_convergent + eps_margin
    eps_convergent: float = 1e-2
    eps_margin: float = 5e-3
    # an echelonization step must drop the growth rate by at least this
    echelon_margin: float = 0.05


@dataclass(frozen=True)
class RadiiConfig:
    # number of D-power iterates feeding the radius estimators
    iterates: int = 200
    # coefficient window kept while iterating; None keeps full precision
    iterate_window: int | None = None
    # the spectral estimate reads iterates s in [tail_frac * T, T]
    tail_frac: float = 0.5
    # sample radii p**(-1/k) for the boundary extrapolation
    rho_denominators: tuple[int, ...] = (4, 8, 16, 32)
    # max residual (in log_p units) for accepting the affine boundary fit
    fit_residual_tol: float = 1e-3


@dataclass(frozen=True)
class VerifyConfig:
    # slack allowed on log-growth bounds
    growth_tolerance: float = 0.1
    # slack allowed when comparing measured radii across discs
    transfer_tolerance: float = 0.05


@dataclass(frozen=True)
class WorkbenchConfig:
    solve: SolveConfig = field(default_factory=SolveConfig)
    radii: RadiiConfig = field(default_factory=RadiiConfig)
    verify: VerifyConfig = field(default_factory=VerifyConfig)
    jobs: int = 1

    def scaled(self, order: int | None = None, iterates: int | None = None) -> "WorkbenchConfig":
        solve = self.solve if order is None else replace(self.solve, order=order)
        radii = self.radii if iterates is None else replace(self.radii, iterates=iterates)
        return replace(self, solve=solve, radii=radii)
