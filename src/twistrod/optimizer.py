"""Fixed-volume shape optimization of the critical twist torque.

The design variable is the per-panel cross-sectional area of a
piecewise-constant profile: the volume constraint is linear in area, so
projection back onto the constraint set is a multiplicative rescale that
also preserves positivity.  Projected gradient ascent and an exhaustive
simplex search both confirm that the constant section maximizes the
critical torque at fixed volume and length.  The ascent's first trial
moves the steepest panel by a 1/(n+1) share of the mean area, which
cancels a start's deviation from the constant section to first order,
so it converges quadratically.

Both search the raw panel-area vector and score it with one panel
formula, ``2*pi*E*alpha / sum(w * A**(-n))``: the ascent on each rescaled
candidate, the exhaustive search on its whole grid of allocations as one
array.  The ascent keeps only the accepted areas and torques while it
runs; the volumes, volume residuals and gaps of all its iterates are
formed once afterwards from the stacked ``(iterates, k)`` area array,
whose read-only rows the iterates share.  The problem holds its start as
a read-only area vector on equal panels and checks it once, so every area
the optimizer sees is positive; a validated ``AreaProfile`` (a piecewise
profile in area units) is built only for the brute-force winner.  The
problem, its iterates and the trace (a tuple of iterates) are frozen
values that compare and hash by value.

An operation is a few dozen numpy calls on small arrays, so numpy's
Python-level wrappers would be a large share of it.  Every path of an
operation (building and checking the problem, the ascent's loop, set-up
and trace assembly, the exhaustive search and the profile constructors
it ends in) calls the ufuncs and their reductions (``np.add.reduce`` and
its kin) and slices instead: no ``np.sum``/``np.min``/``np.max``,
``np.diff``, ``np.linspace``, ``np.stack`` or ``np.meshgrid``.  Each
replacement forms the same floats in the same order, and every check
still fails with the same message in the same order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .isoperimetric import upper_bound
from .shape import MIN_RELATIVE_STIFFNESS, AreaProfile, CrossSectionLaw, _ArrayRecord, require_positive

GAP_CONVERGED = 1e-3
VOLUME_TOL = 1e-10


def _torque(widths: np.ndarray, areas: np.ndarray, E: float, law: CrossSectionLaw):
    """Critical torque of piecewise-constant rods from their panel widths
    and areas, which must be positive: one value per row of ``areas``."""
    return 2.0 * math.pi * E * law.alpha / np.add.reduce(widths * areas ** (-law.n), axis=-1)


def _equal_edges(L: float, k: int) -> np.ndarray:
    """The edges of ``k`` equal panels on [0, L]: ``np.linspace(0.0, L, k + 1)``
    by numpy's own formula, without its Python-level wrapper.  (Where
    ``L / k`` underflows to 0, linspace scales otherwise, but neither
    gives increasing edges there.)"""
    edges = np.arange(k + 1.0) * (L / k)
    edges[-1] = L
    return edges


def _require_scales(V: float, L: float, E: float, volume_name: str) -> None:
    require_positive(V, volume_name)
    require_positive(L, "L")
    require_positive(E, "E")


def objective(A: AreaProfile, E: float, law: CrossSectionLaw) -> float:
    """Critical torque of the rod with area profile A:
    2*pi*E*alpha_n / integral A**(-n).

    Integrated panel by panel in closed form, so ``A`` must be piecewise
    constant (carry ``panel_values``).
    """
    if A.panel_values is None:
        raise ValueError("objective needs a piecewise-constant area profile")
    return float(_torque(np.diff(A.panel_edges), A.panel_values, E, law))


@dataclass(frozen=True, eq=False)
class OptimizationProblem(_ArrayRecord):
    """Maximize the critical torque over per-panel areas at fixed volume.

    ``areas`` (read-only) is the start on ``areas.size`` equal panels of
    [0, L]: finite, positive, no smaller than ``MIN_RELATIVE_STIFFNESS``
    times its largest entry (the floor every profile keeps), and of volume
    ``V_target`` to 1e-10 relative.  Problems compare and hash by value.
    """

    V_target: float
    L: float
    law: CrossSectionLaw
    E: float
    areas: np.ndarray

    _arrays = ("areas",)

    def __post_init__(self) -> None:
        _require_scales(self.V_target, self.L, self.E, "V_target")
        super().__post_init__()
        areas, V, k = self.areas, self.V_target, self.areas.size
        if areas.ndim != 1 or k == 0:
            raise ValueError(f"need a non-empty vector of panel areas, got shape {areas.shape}")
        # A profile's checks, in its order and with its messages.  Where L / k
        # is subnormal the edges are unequal, or do not even increase.
        edges = _equal_edges(self.L, k)
        widths = edges[1:] - edges[:-1]
        if not np.minimum.reduce(widths) > 0.0:
            raise ValueError("breakpoints must be strictly increasing")
        lo, hi = float(np.minimum.reduce(areas)), float(np.maximum.reduce(areas))
        if not hi < math.inf:  # NaN fails too
            raise ValueError("profile values must be finite")
        if lo <= 0.0 or lo <= MIN_RELATIVE_STIFFNESS * hi:
            raise ValueError(f"profile must be strictly positive (min {lo:g} vs max {hi:g})")
        with np.errstate(over="ignore"):
            volume = float(np.add.reduce(widths * areas))
        require_positive(volume, "volume")
        width = self.L / k
        if not np.maximum.reduce(np.abs(widths - width)) <= 1e-9 * width:
            raise ValueError("initial profile panels must have equal length")
        if abs(volume - V) > VOLUME_TOL * V:
            raise ValueError(f"initial volume {volume} misses target {V}")

    @classmethod
    def from_areas(
        cls, areas, V_target: float, L: float, law: CrossSectionLaw, E: float
    ) -> "OptimizationProblem":
        """Build a problem from raw panel areas, rescaled to the target volume.

        The areas must be positive and finite, and so must their sum: a NaN,
        an infinite area and a sum that overflows are each rejected by name,
        and so is a rescale that overflows or underflows on panels of
        positive width."""
        _require_scales(V_target, L, E, "V_target")
        vals = np.asarray(areas, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError(f"need a non-empty vector of panel areas, got shape {vals.shape}")
        # the smallest area (NaN if any is), the sum and the rescale, which
        # may overflow or underflow: that is checked below, not warned of
        smallest, width = np.minimum.reduce(vals), L / vals.size
        with np.errstate(all="ignore"):
            total = np.add.reduce(vals)
            rescaled = vals * (V_target / (width * total))
        if not smallest > 0.0:
            if smallest != smallest:
                raise ValueError("panel areas must be finite, got nan")
            raise ValueError("panel areas must be positive")
        if not math.isfinite(total):
            if np.maximum.reduce(vals) == math.inf:
                raise ValueError("panel areas must be finite, got inf")
            raise ValueError("the sum of the panel areas overflows")
        if width > 0.0 and not 0.0 < np.maximum.reduce(rescaled) < math.inf:
            raise ValueError(f"the target volume {V_target!r} cannot be reached in floating point")
        return cls(V_target, L, law, E, rescaled)


@dataclass(frozen=True, eq=False)
class OptimizerIterate(_ArrayRecord):
    """One accepted iterate of the ascent: its panel areas (read-only),
    critical torque, relative volume residual and Lagrange gap.  Iterates
    compare and hash by value."""

    areas: np.ndarray
    M_star: float
    volume_residual: float
    gap: float

    _arrays = ("areas",)


@dataclass(frozen=True)
class OptimizationTrace:
    """Accepted iterates of the projected ascent, oldest first; the run
    ``converged`` when the final gap is at most ``GAP_CONVERGED``."""

    iterates: tuple[OptimizerIterate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "iterates", tuple(self.iterates))

    @property
    def final(self) -> OptimizerIterate:
        return self.iterates[-1]

    @property
    def final_gap(self) -> float:
        return self.final.gap

    @property
    def converged(self) -> bool:
        return self.final.gap <= GAP_CONVERGED

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
    n * h * A**(-n-1) per panel) and rescales multiplicatively back onto
    the volume constraint.  The first trial moves the steepest panel by
    mean / (n + 1), where mean = V / L.  It is formed as
    reach * (A_min / A)**(n + 1), the gradient over its largest entry
    (which sits at the smallest panel) times that reach: every factor is
    at most 1, so the trial cannot overflow wherever the torque itself is
    finite, and it does not change when all areas are scaled alike.
    With A_i = mean * (1 + d_i) the
    gradient is, to first order in d, proportional to 1 - (n + 1) * d_i,
    so that trial adds mean * (1 / (n + 1) - d_i) to every panel: it
    cancels the deviation to first order, and the rescale leaves one of
    order d**2.  The ascent therefore converges quadratically, in about
    7 steps from starts with areas in [0.5, 4] (a trial of 0.1 * mean
    shrank the deviation by only 0.55-0.73 per step and took about 34).
    The full trial raises the torque from every start tried, up to
    roundoff, so it is never shortened (a property test pins this).  The
    ascent stops when a trial's relative gain is below ``tol``, a loss
    included, or after ``max_iters`` steps; ``converged`` reports whether
    the final areas are constant to within the 1e-3 deviation threshold.

    Candidates are scored as raw area vectors and need no check: the
    areas, the step and the gradient are positive, so a candidate is at
    least the current areas elementwise, and a step adds more to a
    smaller panel and the rescale is multiplicative, so no candidate has
    a larger max/min contrast than the problem's checked start.  The
    panel widths are those of the problem's equal panels.  The loop keeps the
    accepted areas and torques; the volumes, volume residuals and gaps
    of all iterates are formed once from the stacked ``(iterates, k)``
    areas, with row sums and row maxima along the contiguous axis.
    These are the same floats that ``AreaProfile.piecewise`` and
    ``AreaProfile.max_relative_deviation`` form for each iterate's areas,
    and the iterates' ``areas`` are read-only rows of that array, which is
    checked read-only once for all of them.  The loop reduces with
    ``np.add.reduce`` and ``np.minimum.reduce`` to Python floats, forms
    ``2*pi*E*alpha`` once, in the order of the panel formula, and
    rescales each fresh candidate in place, so its floats are those of
    the formulas above.  Raises ValueError when
    ``max_iters`` is negative, when ``tol`` is negative or NaN (a NaN
    gain test never stops the loop, and a negative ``tol`` accepts
    losses), and when the torque of the starting profile or of the
    constant section is not positive and finite: every iterate's torque
    lies between the two.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be at least 0, got {max_iters}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be at least 0, got {tol}")
    V, L, E, law, areas = problem.V_target, problem.L, problem.E, problem.law, problem.areas
    n = law.n
    h = L / areas.size
    # the first trial step moves the steepest panel this far: a 1/(n+1)
    # share of the mean area cancels the start's deviation to first order
    reach = (V / L) / (n + 1)
    edges = _equal_edges(L, areas.size)
    widths = edges[1:] - edges[:-1]
    # the constant factor of _torque, in its order
    numerator = 2.0 * math.pi * E * law.alpha
    total, smallest, largest = np.add.reduce, np.minimum.reduce, np.maximum.reduce

    areas = areas * (V / (h * float(total(areas))))
    # an overflow or underflow shows as a torque that is not positive and finite
    with np.errstate(all="ignore"):
        current = float(_torque(widths, areas, E, law))
    require_positive(current, "torque of the starting profile")
    require_positive(upper_bound(E, law, V, L), "torque of the constant section")
    accepted_areas, torques = [areas], [current]

    for _ in range(max_iters):
        # reach times the gradient over its largest entry, at the smallest panel
        candidate = areas + reach * (float(smallest(areas)) / areas) ** (n + 1)
        candidate *= V / (h * float(total(candidate)))
        value = numerator / float(total(widths * candidate ** (-n)))
        if (value - current) / current < tol:
            break
        areas, current = candidate, value
        accepted_areas.append(areas)
        torques.append(current)

    stacked = np.array(accepted_areas)
    stacked.setflags(write=False)
    volumes = total(widths * stacked, axis=1)
    means = volumes / L
    gaps = (largest(np.abs(stacked - means[:, None]), axis=1) / means).tolist()
    residuals = (np.abs(volumes - V) / V).tolist()
    return OptimizationTrace(OptimizerIterate._of_rows(stacked, torques, residuals, gaps))


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
    for constant-section optimality, so only 2 and 3 segments are allowed;
    3 segments need at least 2 grid points.  The whole grid is scored as
    one ``(allocations, k)`` array of panel areas.
    """
    if k_segments not in (2, 3):
        raise ValueError(f"brute force supports 2 or 3 segments, got {k_segments}")
    if not 1 <= grid_points <= 200:
        raise ValueError(f"grid_points must be in [1, 200], got {grid_points}")
    if k_segments == 3 and grid_points < 2:
        raise ValueError("3 segments need grid_points >= 2: one point leaves no allocation")
    _require_scales(V, L, E, "V")

    h = L / k_segments
    edges = _equal_edges(L, k_segments)
    fractions = (np.arange(grid_points) + 0.5) / grid_points

    # Rows of allocations in search order: t1 outer, t2 inner.  The rows
    # of the outer mask's nonzero entries come in that order.
    if k_segments == 2:
        t1, rest = fractions, 1.0 - fractions
        areas = np.empty((grid_points, 2))
    else:
        i, j = np.nonzero(fractions[:, None] + fractions < 1.0)
        t1, t2 = fractions[i], fractions[j]
        rest = 1.0 - t1 - t2
        areas = np.empty((i.size, 3))
        np.multiply(t2, V, out=areas[:, 1])
    np.multiply(t1, V, out=areas[:, 0])
    np.multiply(rest, V, out=areas[:, -1])
    areas /= h
    require_positive(float(np.minimum.reduce(areas, axis=None)), "smallest candidate panel area")
    require_positive(float(np.maximum.reduce(areas, axis=None)), "largest candidate panel area")
    scores = _torque(edges[1:] - edges[:-1], areas, E, law)
    # argmax takes the first maximum: ties go to the earliest allocation
    return AreaProfile.piecewise(edges, areas[int(scores.argmax())])
