"""Result records shared by the verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .paths import SampledPath, dyadic_prefix, dyadic_steps

# A residual sequence counts as converged when it decreases monotonically
# up to this slack factor between consecutive dyadic levels.
CONVERGENCE_SLACK = 1.1

# Residuals at or below this absolute floor are treated as exact
# (degenerate identities that hold to rounding at every level).
EXACT_FLOOR = 1e-13


@dataclass(frozen=True)
class ResidualReport:
    """Residual of an identity under dyadic grid refinement.

    levels: list of (mesh, residual) pairs, coarse to fine.
    converged: residuals decrease monotonically within the slack factor,
    or sit at the exact floor throughout.
    """

    levels: tuple
    converged: bool

    @property
    def meshes(self):
        return np.array([m for m, _ in self.levels])

    @property
    def residuals(self):
        return np.array([r for _, r in self.levels])

    @property
    def final_residual(self) -> float:
        return float(self.levels[-1][1])

    def to_dict(self) -> dict:
        return {
            "levels": [{"mesh": float(m), "residual": float(r)} for m, r in self.levels],
            "converged": bool(self.converged),
        }


def make_residual_report(levels, scale: float = 1.0) -> ResidualReport:
    """Build a ResidualReport from (mesh, residual) pairs.

    scale sets the exact-floor reference for identities that hold to
    rounding (their level-to-level ratios are meaningless noise).
    """
    levels = tuple((float(m), float(r)) for m, r in levels)
    floor = EXACT_FLOOR * max(1.0, abs(scale))
    resid = [r for _, r in levels]
    if all(r <= floor for r in resid):
        return ResidualReport(levels=levels, converged=True)
    ok = all(
        resid[k + 1] <= CONVERGENCE_SLACK * resid[k] or resid[k + 1] <= floor
        for k in range(len(resid) - 1)
    )
    return ResidualReport(levels=levels, converged=ok and resid[-1] < resid[0])


def residual_ladder(paths, levels: int, level_fn) -> ResidualReport:
    """Residual of an identity on a dyadic ladder, coarse to fine.

    paths, one SampledPath or a tuple of them on one grid, are cut to
    their dyadic prefix. level_fn(step, *subsampled) gets every step-th
    grid point of each and returns the level's (mesh, residual, scale)
    row; the largest scale sets the exact floor.
    """
    if isinstance(paths, SampledPath):
        paths = (paths,)
    paths = [dyadic_prefix(p, levels) for p in paths]
    rows = [level_fn(step, *(p.subsample(step) for p in paths))
            for step in dyadic_steps(paths[0].n_points, levels)]
    return make_residual_report([row[:2] for row in rows], scale=max(row[2] for row in rows))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a pointwise algebraic check over a sample domain."""

    max_residual: float
    arg_max_point: tuple
    passed: bool
    tol: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "max_residual": float(self.max_residual),
            "arg_max_point": [float(v) for v in self.arg_max_point],
            "pass": bool(self.passed),
            "tol": float(self.tol),
        }
        if self.details:
            out["details"] = self.details
        return out


def make_check_report(residuals, points, tol: float, details: dict | None = None) -> CheckReport:
    residuals = np.asarray(residuals, dtype=float)
    points = np.asarray(points, dtype=float)
    k = int(np.argmax(residuals))
    return CheckReport(
        max_residual=float(residuals[k]),
        arg_max_point=tuple(float(v) for v in np.atleast_1d(points[k])),
        passed=bool(residuals[k] <= tol),
        tol=float(tol),
        details=details or {},
    )
