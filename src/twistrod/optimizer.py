"""Fixed-volume shape optimization of the critical twist torque.

The design variable is the per-panel cross-sectional area of a
piecewise-constant profile: the volume constraint is linear in area, so
projection back onto the constraint set is a multiplicative rescale that
also preserves positivity.  Projected gradient ascent and an exhaustive
simplex search both confirm that the constant section maximizes the
critical torque at fixed volume and length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .shape import AreaProfile, CrossSectionLaw

GAP_CONVERGED = 1e-3
VOLUME_TOL = 1e-10


def objective(A: AreaProfile, E: float, law: CrossSectionLaw) -> float:
    """Critical torque of the rod with area profile A:
    2*pi*E*alpha_n / integral A**(-n).

    Integrated panel by panel in closed form, so ``A`` must be piecewise
    constant (carry ``panel_values``).
    """
    if A.panel_values is None:
        raise ValueError("objective needs a piecewise-constant area profile")
    if np.any(A.panel_values <= 0.0):
        return 0.0
    widths = np.diff(A.panel_edges)
    compliance = float(np.sum(widths * A.panel_values ** (-law.n)))
    return 2.0 * math.pi * E * law.alpha / compliance


def lagrange_gap(A: AreaProfile) -> float:
    """sup |A - V/L| / (V/L): zero exactly for a constant cross-section."""
    return A.max_relative_deviation()


@dataclass(frozen=True)
class OptimizationProblem:
    """Maximize the critical torque over per-panel areas at fixed volume.

    ``init`` must be a piecewise profile on ``segments`` equal-length
    panels whose volume already matches ``V_target`` to 1e-10 relative.
    """

    V_target: float
    L: float
    law: CrossSectionLaw
    E: float
    segments: int
    init: AreaProfile

    def __post_init__(self) -> None:
        if self.V_target <= 0 or self.L <= 0 or self.E <= 0:
            raise ValueError("V_target, L and E must be positive")
        if self.segments < 1:
            raise ValueError(f"need at least one segment, got {self.segments}")
        if self.init.panel_values is None or self.init.panel_values.size != self.segments:
            raise ValueError(
                f"initial profile must be piecewise with {self.segments} panels"
            )
        widths = np.diff(self.init.panel_edges)
        if not np.allclose(widths, self.L / self.segments, rtol=1e-9, atol=0.0):
            raise ValueError("initial profile panels must have equal length")
        if abs(self.init.volume - self.V_target) > VOLUME_TOL * self.V_target:
            raise ValueError(
                f"initial volume {self.init.volume} misses target {self.V_target}"
            )

    @classmethod
    def from_areas(
        cls,
        areas,
        V_target: float,
        L: float,
        law: CrossSectionLaw,
        E: float,
    ) -> "OptimizationProblem":
        """Build a problem from raw panel areas, rescaled to the target volume."""
        vals = np.asarray(areas, dtype=float)
        if np.any(vals <= 0):
            raise ValueError("panel areas must be positive")
        k = vals.size
        h = L / k
        vals = vals * (V_target / (h * float(np.sum(vals))))
        edges = np.linspace(0.0, L, k + 1)
        return cls(
            V_target=V_target,
            L=L,
            law=law,
            E=E,
            segments=k,
            init=AreaProfile.piecewise(edges, vals),
        )


@dataclass(frozen=True)
class OptimizerIterate:
    areas: np.ndarray
    M_star: float
    volume_residual: float
    gap: float


@dataclass(frozen=True)
class OptimizationTrace:
    """Accepted iterates of the projected ascent, oldest first."""

    iterates: list[OptimizerIterate] = field(default_factory=list)
    converged: bool = False
    final_gap: float = math.inf

    @property
    def final(self) -> OptimizerIterate:
        return self.iterates[-1]

    def to_json_lines(self) -> str:
        lines = [
            json.dumps(
                {
                    "iteration": i,
                    "M_star": it.M_star,
                    "gap": it.gap,
                    "volume_residual": it.volume_residual,
                }
            )
            for i, it in enumerate(self.iterates)
        ]
        return "\n".join(lines)


def optimize(
    problem: OptimizationProblem, max_iters: int = 1000, tol: float = 1e-10
) -> OptimizationTrace:
    """Projected gradient ascent on the per-panel areas.

    Each step moves along the torque gradient (componentwise
    n * A**(-n-1) per panel), rescales multiplicatively back onto the
    volume constraint, and backtracks from 0.1 * mean-area / max-gradient,
    halving whenever the objective would decrease.  Stops when the
    relative improvement drops below ``tol`` or after ``max_iters``;
    ``converged`` reports whether the final profile is constant to within
    the 1e-3 deviation threshold.
    """
    n = problem.law.n
    h = problem.L / problem.segments
    mean = problem.V_target / problem.L
    edges = np.linspace(0.0, problem.L, problem.segments + 1)

    def rescale(a: np.ndarray) -> np.ndarray:
        return a * (problem.V_target / (h * float(np.sum(a))))

    def make_profile(a: np.ndarray) -> AreaProfile:
        return AreaProfile.piecewise(edges, a)

    def record(a: np.ndarray, m: float) -> OptimizerIterate:
        prof = make_profile(a)
        return OptimizerIterate(
            areas=a.copy(),
            M_star=m,
            volume_residual=abs(prof.volume - problem.V_target) / problem.V_target,
            gap=lagrange_gap(prof),
        )

    areas = rescale(problem.init.panel_values.copy())
    current = objective(make_profile(areas), problem.E, problem.law)
    iterates = [record(areas, current)]

    for _ in range(max_iters):
        grad = n * h * areas ** (-n - 1)
        step = 0.1 * mean / float(np.max(grad))
        accepted = None
        for _halving in range(80):
            candidate = areas + step * grad
            if np.any(candidate <= 0.0):
                step *= 0.5
                if step == 0.0:
                    raise ConvergenceError(
                        "step size underflowed while restoring positivity"
                    )
                continue
            candidate = rescale(candidate)
            value = objective(make_profile(candidate), problem.E, problem.law)
            if value > current:
                accepted = (candidate, value)
                break
            step *= 0.5
        if accepted is None:
            break  # no ascent direction left at this resolution
        candidate, value = accepted
        improvement = (value - current) / current
        if improvement < tol:
            break
        areas, current = candidate, value
        iterates.append(record(areas, current))

    final_gap = iterates[-1].gap
    return OptimizationTrace(
        iterates=iterates,
        converged=final_gap <= GAP_CONVERGED,
        final_gap=final_gap,
    )


def brute_force_segments(
    V: float,
    L: float,
    law: CrossSectionLaw,
    E: float,
    k_segments: int,
    grid_points: int,
) -> AreaProfile:
    """Exhaustive search over volume allocations to equal-length panels.

    The simplex of allocations is discretized with ``grid_points`` midpoint
    fractions per dimension ((j + 1/2)/grid_points, so a single point sits
    at the barycenter and no allocation degenerates to zero volume).
    Returns the profile of the best allocation; ties go to the
    lexicographically smallest one.  Intended as the small-scale oracle
    for constant-section optimality, so only 2 and 3 segments are allowed.
    """
    if k_segments not in (2, 3):
        raise ValueError(f"brute force supports 2 or 3 segments, got {k_segments}")
    if not 1 <= grid_points <= 200:
        raise ValueError(f"grid_points must be in [1, 200], got {grid_points}")
    if V <= 0 or L <= 0 or E <= 0:
        raise ValueError("V, L, E must be positive")

    h = L / k_segments
    edges = np.linspace(0.0, L, k_segments + 1)
    fractions = (np.arange(grid_points) + 0.5) / grid_points

    best_value = -math.inf
    best_alloc: tuple[float, ...] | None = None
    if k_segments == 2:
        for t1 in fractions:
            alloc = (t1 * V, (1.0 - t1) * V)
            value = objective(
                AreaProfile.piecewise(edges, np.asarray(alloc) / h), E, law
            )
            if value > best_value:
                best_value = value
                best_alloc = alloc
    else:
        for t1 in fractions:
            for t2 in fractions:
                if t1 + t2 >= 1.0:
                    break
                alloc = (t1 * V, t2 * V, (1.0 - t1 - t2) * V)
                value = objective(
                    AreaProfile.piecewise(edges, np.asarray(alloc) / h), E, law
                )
                if value > best_value:
                    best_value = value
                    best_alloc = alloc

    assert best_alloc is not None
    return AreaProfile.piecewise(edges, np.asarray(best_alloc) / h)
