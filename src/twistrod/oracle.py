"""Independent shooting eigensolver for the twist-buckling BVP.

Validates the closed-form critical torque without using it: the
once-integrated deflection equations with the rod's actual variable
stiffness, y' = (M z + c1) gz and z' = (c2 - M y) gy, are integrated by
fixed-step RK4 along the span from (0, 0), and buckling torques are
located as the parameter values where the endpoint matrix S (endpoint
= S @ (c1, c2)) becomes singular.

The system is linear, so one RK4 step is an affine map v -> A v + B c
whose entries are polynomials in M.  With (z0, z1, z2) and (y0, y1, y2)
the values of gz and gy at the step's three stencil points,

    B11 = a1 - M^2 a3,    a1 = h/6 (z0 + 4 z1 + z2),  a3 = h^3/12 z1 y1 (z0 + z2)
    B12 = M (p2 - M^2 p4),  p2 = h^2/6 (z1 y0 + z1 y1 + z2 y1),  p4 = h^4/24 z1 y1 z2 y0
    B22, B21: as B11, -B12 with y and z exchanged (coefficients b1, b3, q2, q4)
    A11 = 1 - M B12,  A12 = M B11,  A21 = -M B22,  A22 = 1 + M B21.

``build_step_grid`` places the steps panel by panel and stores the
eight coefficients once per run of equal steps: a panel on which F is
constant is one run, any other step a run of its own.  ``propagate``
evaluates one step map per run for a vector of torques at once, raises
the maps of the runs longer than one step to their length by repeated
squaring over the bits of the counts from the top (so every power
computed is one the run needs) and composes the run maps pairwise as a
balanced tree (an odd level padded with the identity map).  A sampled
profile without flat panels has runs of one step: nothing is squared
and the tree composes the step maps themselves.  The work is
O(runs * bits of the longest run), and the translation part of the
composite is S: the RK4 endpoint, reassociated.

det S(M) is analytically a perfect square (it equals
|1 - exp(-i M phi)|**2 / M**2 for the exact solution, phi the total
reciprocal-stiffness integral), so bisection on det would fail.  The
search tracks the trace of S instead.  For the exact isotropic solution

    trace S(M) = 2 sin(M phi) / M,

whose upward (minus to plus) zero crossings are exactly the eigenvalues
k M*, while the downward ones sit at (k - 1/2) M*, where det S is at its
largest.  An unreduced anisotropic section keeps that pattern, so one
search serves both: ``scan_and_refine`` scans the trace, refines each
upward crossing with ``brentq`` and confirms it by checking that det S
there is negligible against its size over the scan.  Nothing in the
search reads phi or any other closed-form quantity (only the default
bracket does), and a crossing that is not an eigenvalue, as when the
steps are too coarse to follow the phase, raises instead of being
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .errors import RootSearchError
from .greenhill import critical_torque_value
from .shape import RodSpec, ShapeFunction

DEFAULT_STEPS = 4096
DEFAULT_TOL = 1e-10
DEFAULT_PROBES = 64
MIN_STEPS = 16
# Torques per kernel call while scanning.  The step maps of one call take
# 8 * SCAN_BLOCK floats per run of the step grid: 2 MB at 4096 steps on a
# sampled profile without flat panels, a few KB on a piecewise-constant
# one, where runs are panels and a call costs about the same for one
# torque as for SCAN_BLOCK.
SCAN_BLOCK = 8

_IDENTITY_MAP = np.eye(2, 4).reshape(2, 4, 1, 1)
_IDENTITY_4 = np.eye(4)


@dataclass(frozen=True)
class ShootingResult:
    """Endpoint matrix of the two basis integrations at torque M.

    Columns of S are the endpoint deflections (y, z) produced by constant
    pairs (1, 0) and (0, 1); ``det`` vanishes exactly at buckling torques.
    """

    S: np.ndarray
    det: float
    M: float


def endpoint_det(S: np.ndarray) -> np.ndarray:
    """Determinant of one endpoint matrix or of a stack of them."""
    return S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0]


@dataclass(frozen=True)
class StepGrid:
    """RK4 steps as runs of equal steps: ``rows[r]`` holds the coefficients
    (a1, a3, p2, p4, b1, b3, q2, q4) of a step repeated ``counts[r]`` times
    along the span (module docstring).  ``len`` is the step count."""

    rows: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return int(self.counts.sum())


def build_step_grid(
    shape: ShapeFunction,
    E: float,
    J_y: float,
    J_z: float,
    steps: int = DEFAULT_STEPS,
) -> StepGrid:
    """Step grid of about ``steps`` RK4 steps, shared out over the smooth
    panels of ``shape`` by width so that no discontinuity of F falls inside
    a step and the integrator keeps its full order.

    gz = 1/(E*J_z*F) multiplies the y-equation, gy = 1/(E*J_y*F) the
    z-equation.  F is linear or constant on a panel, so a panel where F
    agrees at its left edge and midpoint is flat: one run, with F taken at
    the midpoint (strictly inside, so a half-open breakpoint cannot leak
    the neighbouring value).  On any other panel each step is its own run,
    with F at the step's three stencil points.
    """
    if steps < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} steps, got {steps}")
    edges = shape.panel_edges()
    widths = np.diff(edges)
    counts = np.maximum(1, np.round(steps * widths / shape.L)).astype(int)
    mid = edges[:-1] + 0.5 * widths
    left_and_mid = np.asarray(shape.evaluate(np.concatenate([edges[:-1], mid])))
    flat = np.equal(*np.split(left_and_mid, 2))
    runs = np.where(flat, 1, counts)
    h = np.repeat(widths / counts, runs)
    index = np.arange(h.size) - np.repeat(np.cumsum(runs) - runs, runs)
    s0 = np.repeat(edges[:-1], runs) + h * index
    stencil = np.array([s0, s0 + 0.5 * h, np.minimum(s0 + h, shape.L)])
    stencil[:, np.repeat(flat, runs)] = mid[flat]
    f = np.asarray(shape.evaluate(stencil.ravel()))
    gz = np.split(1.0 / (E * J_z * f), 3)
    gy = np.split(1.0 / (E * J_y * f), 3)

    def coefficients(u, v):
        # (a1, a3, p2, p4) with u = gz, v = gy; (b1, b3, q2, q4) with them exchanged
        return [
            h / 6.0 * (u[0] + 4.0 * u[1] + u[2]),
            h**3 / 12.0 * u[1] * v[1] * (u[0] + u[2]),
            h**2 / 6.0 * (u[1] * v[0] + u[1] * v[1] + u[2] * v[1]),
            h**4 / 24.0 * u[1] * v[1] * u[2] * v[0],
        ]

    # column-major: each coefficient is contiguous for propagate
    rows = np.array(coefficients(gz, gy) + coefficients(gy, gz)).T
    return StepGrid(rows, np.repeat(np.where(flat, counts, 1), runs))


def _power(maps: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each map ``maps[..., r]`` composed with itself ``counts[r]`` times,
    by squaring over the bits of the counts from the top: after bit k every
    run holds its map to the power ``counts >> k``, so each power computed
    is one the run needs, and a shorter run stays the identity until its own
    top bit."""
    # As augmented 4x4 matrices [[A, B], [0, I]]: on a few maps, matmul
    # costs less per call than the tree's einsum, which suits long grids.
    base = np.zeros(maps.shape[2:] + (4, 4))
    base[..., :2, :] = maps.transpose(2, 3, 0, 1)
    base[..., 2, 2] = base[..., 3, 3] = 1.0
    width = int(counts.max()).bit_length()
    bits = ((counts >> np.arange(width - 1, -1, -1)[:, None]) & 1 == 1)[..., None, None]
    result = np.where(bits[0], base, _IDENTITY_4)
    for bit in bits[1:]:
        result = result @ result
        result = np.where(bit, result @ base, result)
    return result[..., :2, :].transpose(2, 3, 0, 1)


def propagate(grid: StepGrid, M: np.ndarray) -> np.ndarray:
    """Endpoint matrices S, shape (len(M), 2, 2), for the 1-D array of
    torques ``M``: one step map per run of the grid, the runs longer than
    one step raised to their length by squaring, the run maps composed as
    a tree (module docstring)."""
    m = np.asarray(M, dtype=float).reshape(-1, 1)
    m2 = m * m
    a1, a3, p2, p4, b1, b3, q2, q4 = grid.rows.T
    b11 = a1 - m2 * a3
    b22 = b1 - m2 * b3
    b12 = m * (p2 - m2 * p4)
    b21 = -m * (q2 - m2 * q4)
    # maps[i, j]: row i of the augmented step matrix [A | B], per torque and run
    maps = np.array([[1.0 - m * b12, m * b11, b11, b12], [-m * b22, 1.0 + m * b21, b21, b22]])
    long = np.flatnonzero(grid.counts > 1)
    if long.size:
        maps[..., long] = _power(maps[..., long], grid.counts[long])
    while maps.shape[-1] > 1:
        if maps.shape[-1] % 2:
            pad = np.broadcast_to(_IDENTITY_MAP, maps.shape[:-1] + (1,))
            maps = np.concatenate([maps, pad], axis=-1)
        earlier, later = maps[..., 0::2], maps[..., 1::2]
        maps = np.einsum("ilkn,ljkn->ijkn", later[:, :2], earlier)
        maps[:, 2:] += later[:, 2:]
    return np.moveaxis(maps[:, 2:, :, 0], -1, 0)


def _shoot(grid: StepGrid, M: float) -> ShootingResult:
    """Endpoint matrix and its determinant at one positive torque."""
    if M <= 0:
        raise ValueError(f"torque must be positive, got {M}")
    S = propagate(grid, np.array([M]))[0]
    return ShootingResult(S=S, det=float(endpoint_det(S)), M=M)


def shoot(
    spec: RodSpec,
    M: float,
    steps: int = DEFAULT_STEPS,
) -> ShootingResult:
    """Endpoint matrix of the variable-stiffness system at torque ``M``."""
    grid = build_step_grid(spec.shape, spec.E, spec.J_ref, spec.J_ref, steps)
    return _shoot(grid, M)


def _default_bracket(spec: RodSpec) -> tuple[float, float]:
    """(1e-3, 4) times the closed-form critical torque of ``spec``."""
    estimate = critical_torque_value(spec)
    return 1e-3 * estimate, 4.0 * estimate


def scan_and_refine(
    endpoint: Callable[[np.ndarray], np.ndarray],
    bracket: tuple[float, float],
    probes: int,
    tol: float,
    first: bool = True,
) -> list[float]:
    """Eigenvalues in ``bracket``: upward zero crossings of trace S, with
    S = ``endpoint(M)`` the stack of endpoint matrices at torques M.

    ``probes + 1`` equally spaced torques are evaluated ``SCAN_BLOCK`` at a
    time; each probe interval (a, b] over which the trace goes from minus
    to plus is refined by ``brentq`` to relative tolerance ``tol``, and with
    ``first`` the scan stops there.  Each root is confirmed by
    det S(root) <= 1e-6 * max |det S| over the probes scanned so far, using
    the matrix ``brentq`` evaluated at the root.  Raises RootSearchError for
    a crossing that fails the check and, with ``first``, when there is no
    crossing at all.
    """
    lo, hi = bracket
    if not 0.0 <= lo < hi:
        raise ValueError(f"bracket must satisfy 0 <= lo < hi, got {bracket}")
    # endpoint matrices by torque, the probes' included: brentq starts at two
    evaluated: dict[float, np.ndarray] = {}

    def trace(m: float) -> float:
        S = evaluated.get(m)
        if S is None:
            S = evaluated[m] = endpoint(np.array([m]))[0]
        return float(S[0, 0] + S[1, 1])

    ms = np.linspace(lo, hi, probes + 1)
    mats: list[np.ndarray] = []
    roots: list[float] = []
    for start in range(0, ms.size, SCAN_BLOCK):
        block = ms[start : start + SCAN_BLOCK]
        mats.append(endpoint(block))
        evaluated.update(zip(block.tolist(), mats[-1]))
        S = np.concatenate(mats)
        t = S[:, 0, 0] + S[:, 1, 1]
        for i in range(max(start, 1), t.size):
            if not t[i - 1] < 0.0 <= t[i]:
                continue
            root = float(brentq(trace, ms[i - 1], ms[i], xtol=tol * ms[i], rtol=8.9e-16))
            det_at_root = float(endpoint_det(evaluated[root]))
            det_scale = float(np.max(np.abs(endpoint_det(S[: i + 1]))))
            if det_at_root > 1e-6 * det_scale:
                raise RootSearchError(
                    f"trace crossing at M={root:.6g} is not an eigenvalue: "
                    f"det {det_at_root:.3e} vs scan scale {det_scale:.3e}"
                )
            roots.append(root)
            if first:
                return roots
    if first:
        raise RootSearchError(
            f"no upward trace crossing in ({lo}, {hi}): trace runs over "
            f"[{t.min():.3e}, {t.max():.3e}] without a sign change from minus to plus"
        )
    return roots


def critical_torque_oracle(
    spec: RodSpec,
    bracket: tuple[float, float] | None = None,
    tol: float = DEFAULT_TOL,
    steps: int = DEFAULT_STEPS,
    probes: int = DEFAULT_PROBES,
) -> float:
    """Smallest buckling torque in ``bracket``: the first confirmed upward
    trace crossing (:func:`scan_and_refine`) over ``probes`` intervals,
    refined to relative tolerance ``tol``.

    ``bracket`` defaults to (1e-3, 4) times the closed-form estimate.
    Raises RootSearchError when the bracket holds no crossing, reporting
    the trace range, or when the crossing found is not an eigenvalue.
    """
    if bracket is None:
        bracket = _default_bracket(spec)
    grid = build_step_grid(spec.shape, spec.E, spec.J_ref, spec.J_ref, steps)
    return scan_and_refine(lambda m: propagate(grid, m), bracket, probes, tol)[0]


def eigenvalues_in(
    spec: RodSpec,
    M_lo: float,
    M_hi: float,
    probes: int = 256,
    tol: float = DEFAULT_TOL,
    steps: int = DEFAULT_STEPS,
) -> list[float]:
    """All buckling torques in (M_lo, M_hi]: every confirmed upward trace
    crossing of an exhaustive scan; needs 0 <= M_lo < M_hi (M_lo = 0 finds
    every torque up to M_hi)."""
    grid = build_step_grid(spec.shape, spec.E, spec.J_ref, spec.J_ref, steps)
    return scan_and_refine(lambda m: propagate(grid, m), (M_lo, M_hi), probes, tol, first=False)


def convergence_study(
    spec: RodSpec,
    steps_list: list[int],
) -> list[tuple[int, float]]:
    """Relative eigenvalue error of the shooting method per step count.

    The reference is the closed-form critical torque; the root search runs
    at a tolerance far below the discretization error so the table shows
    the integrator's convergence order.
    """
    exact = critical_torque_value(spec)
    table = []
    for steps in steps_list:
        approx = critical_torque_oracle(
            spec,
            bracket=(0.5 * exact, 1.5 * exact),
            tol=1e-13,
            steps=steps,
        )
        table.append((steps, abs(approx - exact) / exact))
    return table
