"""The values a caller sets: the CLI flags and a description file's orders.

Every other threshold is a named constant beside the code that reads
it (diffmod, radii, pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkbenchConfig:
    # truncation order for horizontal section solving
    order: int = 400
    # number of D-power iterates feeding the radius estimators
    iterates: int = 200
    # sample radii p**(-1/k) for the boundary extrapolation
    rho_denominators: tuple[int, ...] = (4, 8, 16, 32)
    # slack allowed on log-growth bounds
    growth_tolerance: float = 0.1
    # parallel workers for `padiff corpus`
    jobs: int = 1
