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
upward crossing with ``brentq``, the package's own Brent iteration, and
confirms it by checking that det S at the returned torque (always one
already evaluated) is negligible against its size over the scan.  Nothing
in the search reads phi or any other closed-form quantity (only the
default bracket does), and a crossing that is not an eigenvalue, as when
the steps are too coarse to follow the phase, raises instead of being
returned.  The module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
BRENT_ITERATIONS = 100

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


def _panel_steps(widths: np.ndarray, steps: int) -> np.ndarray:
    """``steps`` shared out over panels of ``widths`` in proportion to width,
    at least one each: panels whose share is below one get one step and the
    rest share what is left, then every panel takes the whole part of its
    share and the steps still missing go one each to the largest fractional
    parts (Hamilton's method).  The counts add up to ``steps`` unless the
    panels outnumber the steps, when each panel gets one."""
    if steps <= widths.size:
        return np.ones(widths.size, dtype=int)
    fixed = np.zeros(widths.size, dtype=bool)
    while True:
        share = np.where(fixed, 1.0, (steps - fixed.sum()) * widths / widths[~fixed].sum())
        short = share < 1.0
        if not short.any():
            break
        fixed |= short
    counts = np.floor(share).astype(int)
    largest_remainders = np.argsort(counts - share, kind="stable")
    counts[largest_remainders[: steps - counts.sum()]] += 1
    return counts


def build_step_grid(
    shape: ShapeFunction,
    E: float,
    J_y: float,
    J_z: float,
    steps: int = DEFAULT_STEPS,
) -> StepGrid:
    """Step grid of ``steps`` RK4 steps (one per panel if the panels are
    more), shared out over the smooth panels of ``shape`` by width
    (:func:`_panel_steps`) so that no discontinuity of F falls inside a step
    and the integrator keeps its full order.

    gz = 1/(E*J_z*F) multiplies the y-equation, gy = 1/(E*J_y*F) the
    z-equation.  A panel of the profile's panel table with F equal at both
    ends is flat: one run, with F that value.  On any other panel each step
    is its own run, with F at the step's three stencil points.
    """
    if steps < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} steps, got {steps}")
    edges, left, right = shape.panels()
    widths = np.diff(edges)
    counts = _panel_steps(widths, steps)
    flat = left == right
    runs = np.where(flat, 1, counts)
    h = np.repeat(widths / counts, runs)
    index = np.arange(h.size) - np.repeat(np.cumsum(runs) - runs, runs)
    s0 = np.repeat(edges[:-1], runs) + h * index
    stencil = np.array([s0, s0 + 0.5 * h, np.minimum(s0 + h, shape.L)])
    f = np.where(np.repeat(flat, runs), np.repeat(left, runs), shape.evaluate(stencil))
    gz = 1.0 / (E * J_z * f)
    gy = 1.0 / (E * J_y * f)

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


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float) -> float:
    """A zero of ``f`` between ``a`` and ``b``, where f(a) and f(b) differ in
    sign, to within ``xtol + rtol * |x|``: Brent's method (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4), a
    bracketing secant and inverse quadratic iteration that bisects whenever
    those steps are poor.

    The updates are those of scipy's ``brentq.c`` in its order, so the
    result is the same float.  Signs are compared, never multiplied (a
    product of two tiny values can underflow to zero), and a step whose
    formula divides by zero bisects, as the C code does once the inf or nan
    it gets fails the step test.  The point returned is always one ``f`` was
    evaluated at.  Raises ValueError when f(a) and f(b) have the same sign
    and RootSearchError when ``f`` returns nan or after
    ``BRENT_ITERATIONS`` iterations without convergence.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise RootSearchError(f"function value is nan at x={x!r}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"f(a) = {fpre!r} and f(b) = {fcur!r} must differ in sign")
    # (xblk, fblk): the contrapoint, on the other side of the zero from xcur;
    # scur and spre are the last two steps
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_ITERATIONS):
        if (fpre < 0.0) != (fcur < 0.0):  # a zero fcur returns below either way
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RootSearchError(
        f"brentq did not converge in {BRENT_ITERATIONS} iterations: "
        f"last point {xcur!r}, bracket end {xblk!r}"
    )


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
    ``first`` the scan stops there.  :func:`brentq` is the package's own
    Brent iteration; it starts from the two probe matrices and returns a
    torque it evaluated, so each root is confirmed by
    det S(root) <= 1e-6 * max |det S| over the probes scanned so far from
    the matrix already computed there.  Raises RootSearchError for a
    crossing that fails the check or does not converge and, with ``first``,
    when there is no crossing at all.
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
