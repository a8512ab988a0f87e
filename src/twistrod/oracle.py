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

``build_step_grid`` stores the eight coefficients per step.
``propagate`` groups consecutive equal steps into runs (with aligned
steps, a piecewise-constant profile has one run per panel), evaluates
one step map per run for a vector of torques at once, raises each to
its run length by repeated squaring (one pass per bit of the longest
run, the identity where a run's count has that bit clear) and composes
the run maps pairwise as a balanced tree (an odd level padded with the
identity map).  A profile without repeated steps has runs of one step:
nothing is squared and the tree composes the step maps themselves.
The work is O(runs * bits of the longest run), and the translation part
of the composite is S: the RK4 endpoint, reassociated.

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
# 8 * SCAN_BLOCK floats per run: 2 MB at 4096 steps without repeated
# steps, a few KB for a piecewise-constant profile, where runs are panels
# and a call costs about the same for one torque as for SCAN_BLOCK.
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


def build_step_grid(
    shape: ShapeFunction,
    E: float,
    J_y: float,
    J_z: float,
    steps: int = DEFAULT_STEPS,
    align_panels: bool = True,
) -> np.ndarray:
    """Step-map coefficients, one row (a1, a3, p2, p4, b1, b3, q2, q4) per
    RK4 step (see the module docstring).

    gz = 1/(E*J_z*F) multiplies the y-equation, gy = 1/(E*J_y*F) the
    z-equation (they coincide for isotropic sections).  With
    ``align_panels`` the steps are distributed per smooth panel so that
    discontinuities of F never fall inside a step and the integrator
    keeps its full order; without it the grid is uniform.
    """
    if steps < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} steps, got {steps}")
    if align_panels:
        edges = shape.panel_edges()
        counts = np.maximum(1, np.round(steps * np.diff(edges) / shape.L)).astype(int)
    else:
        edges, counts = np.array([0.0, shape.L]), np.array([steps])
    h = np.repeat(np.diff(edges) / counts, counts)
    index = np.arange(h.size) - np.repeat(np.cumsum(counts) - counts, counts)
    s0 = np.repeat(edges[:-1], counts) + h * index
    if align_panels and shape.kind in ("constant", "piecewise"):
        # F is constant within each aligned step; sample strictly inside so
        # breakpoint half-openness cannot leak the neighbouring value.
        f = np.tile(np.asarray(shape.evaluate(s0 + 0.5 * h)), 3)
    else:
        stencil = np.concatenate([s0, s0 + 0.5 * h, np.minimum(s0 + h, shape.L)])
        f = np.asarray(shape.evaluate(stencil))
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
    return np.array(coefficients(gz, gy) + coefficients(gy, gz)).T


def _runs(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One grid row per run of equal consecutive rows, and the run
    lengths (the grid itself and ones when no two neighbours are equal)."""
    n = len(grid)
    columns = grid.T
    new = np.empty(n, dtype=bool)
    new[0] = True
    # Screen one coefficient; compare whole rows only if it ever repeats.
    np.not_equal(columns[0, 1:], columns[0, :-1], out=new[1:])
    if new.all():
        return grid, np.ones(n, dtype=int)
    for column in columns[1:]:
        new[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(new)
    return grid[starts], np.diff(starts, append=n)


def _power(maps: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each map ``maps[..., r]`` composed with itself ``counts[r]`` >= 1
    times, by repeated squaring over the bits of the counts."""
    width = int(counts.max()).bit_length()
    if width == 1:
        return maps
    # As augmented 4x4 matrices [[A, B], [0, I]]: on a few maps, matmul
    # costs less per call than the tree's einsum, which suits long grids.
    power = np.zeros(maps.shape[2:] + (4, 4))
    power[..., :2, :] = maps.transpose(2, 3, 0, 1)
    power[..., 2, 2] = power[..., 3, 3] = 1.0
    bits = ((counts >> np.arange(width)[:, None]) & 1 == 1)[..., None, None]
    result = np.where(bits[0], power, _IDENTITY_4)
    for bit in bits[1:]:
        power = power @ power
        result = np.where(bit, power @ result, result)
    return result[..., :2, :].transpose(2, 3, 0, 1)


def propagate(grid: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Endpoint matrices S, shape (len(M), 2, 2), for the 1-D array of
    torques ``M``: one step map per run of equal steps, raised to the run
    length by squaring, the run maps composed as a tree (module docstring)."""
    m = np.asarray(M, dtype=float).reshape(-1, 1)
    m2 = m * m
    rows, counts = _runs(grid)
    a1, a3, p2, p4, b1, b3, q2, q4 = rows.T
    b11 = a1 - m2 * a3
    b22 = b1 - m2 * b3
    b12 = m * (p2 - m2 * p4)
    b21 = -m * (q2 - m2 * q4)
    # maps[i, j]: row i of the augmented step matrix [A | B], per torque and run
    maps = np.array([[1.0 - m * b12, m * b11, b11, b12], [-m * b22, 1.0 + m * b21, b21, b22]])
    maps = _power(maps, counts)
    while maps.shape[-1] > 1:
        if maps.shape[-1] % 2:
            pad = np.broadcast_to(_IDENTITY_MAP, maps.shape[:-1] + (1,))
            maps = np.concatenate([maps, pad], axis=-1)
        earlier, later = maps[..., 0::2], maps[..., 1::2]
        maps = np.einsum("ilkn,ljkn->ijkn", later[:, :2], earlier)
        maps[:, 2:] += later[:, 2:]
    return np.moveaxis(maps[:, 2:, :, 0], -1, 0)


def _shoot(grid: np.ndarray, M: float) -> ShootingResult:
    """Endpoint matrix and its determinant at one positive torque."""
    if M <= 0:
        raise ValueError(f"torque must be positive, got {M}")
    S = propagate(grid, np.array([M]))[0]
    return ShootingResult(S=S, det=float(endpoint_det(S)), M=M)


def shoot(
    spec: RodSpec,
    M: float,
    steps: int = DEFAULT_STEPS,
    align_panels: bool = True,
) -> ShootingResult:
    """Endpoint matrix of the variable-stiffness system at torque ``M``."""
    grid = build_step_grid(spec.shape, spec.E, spec.J_ref, spec.J_ref, steps, align_panels)
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
    evaluated: dict[float, np.ndarray] = {}

    def trace(m: float) -> float:
        S = evaluated[m] = endpoint(np.array([m]))[0]
        return float(S[0, 0] + S[1, 1])

    ms = np.linspace(lo, hi, probes + 1)
    mats: list[np.ndarray] = []
    roots: list[float] = []
    for start in range(0, ms.size, SCAN_BLOCK):
        mats.append(endpoint(ms[start : start + SCAN_BLOCK]))
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
    align_panels: bool = True,
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
    grid = build_step_grid(spec.shape, spec.E, spec.J_ref, spec.J_ref, steps, align_panels)
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
    grid = build_step_grid(spec.shape, spec.E, spec.J_ref, spec.J_ref, steps, True)
    return scan_and_refine(lambda m: propagate(grid, m), (M_lo, M_hi), probes, tol, first=False)


def convergence_study(
    spec: RodSpec,
    steps_list: list[int],
    align_panels: bool = True,
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
            align_panels=align_panels,
        )
        table.append((steps, abs(approx - exact) / exact))
    return table
