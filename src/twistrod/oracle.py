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

Grid: F is linear on each panel of ``ShapeFunction.panels()``; a panel
from f0 to f1 gets c geometric steps, F = f0 r^k where step k starts,
r = (f1/f0)^(1/c), so each step is r times as wide as the one before and
F at its stencil (f0 r^k times 1, 1 + (r-1)/2, r) r times larger.  Each
coefficient, h^j times j values of g = 1/(E J F), and so the map are the
same on every step of the panel.  Kernel: ``propagate`` raises each
panel's augmented map [[A, B], [0, I]] to its step count in closed form,
from the trace and determinant of A - I (Cayley-Hamilton), and composes
the panel maps pairwise, for many torques and many rods at once; S is
the translation.  A call costs about the same whatever the step counts.

Search: det S(M) is analytically a perfect square (|1 - exp(-i M phi)|**2
/ M**2 for the exact solution, phi the total reciprocal-stiffness
integral), so the search tracks trace S = 2 sin(M phi) / M instead, whose
upward zero crossings are exactly the eigenvalues k M* and the downward
ones (k - 1/2) M*, where det S is largest; an anisotropic section keeps
that pattern.  Default probes are geometric with ratio 1.4 < 3/2 between
bounds on M* from the extremes of F, so no probe interval holds M* and
another zero.  A crossing is narrowed by batches of 8 torques per kernel
call around the zero of the inverse interpolant of the traces computed
(after Chandrupatla, *Adv. Eng. Software* 28:145, 1997) and confirmed
against det S.  Nothing in the search reads phi or any other closed form,
and a crossing that is not an eigenvalue raises.  Each rod's search is a
generator that yields the torques it needs next, so one driver,
:func:`_roots`, advances the searches of many rods with one kernel call
per round; every root function here and in ``anisotropic`` calls it.
Needs numpy only.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import RootSearchError
from .greenhill import critical_torque_value
from .shape import RodSpec, ShapeFunction, _ArrayRecord

DEFAULT_STEPS = 4096
DEFAULT_TOL = 1e-10
DEFAULT_PROBES = 64
# Equal intervals of the exhaustive scan of eigenvalues_in
SPECTRUM_PROBES = 256
MIN_STEPS = 16
# Torques per rod and kernel call while scanning.  A call holds a few
# dozen floats per rod, panel and torque: memory is rods x panels x torques.
SCAN_BLOCK = 8
PROBE_RATIO = 1.4
BRENT_ITERATIONS = 100
# Relative tolerance of a refined root, four ulps, as scipy's brentq asks
RTOL = 8.9e-16
# A refinement batch (_refine): offsets from the interpolated zero in twice
# its error estimate, and the fractions of the probe interval of the first
_OFFSETS, _EVEN = np.arange(-4, 4) / 4.0, np.arange(1, 8) / 8.0
_NEVILLE_POINTS = 6
# Rows of the augmented identity [[I, 0]], the map of a panel of no steps
_IDENTITY_ROWS = np.eye(2, 4)


@dataclass(frozen=True, eq=False)
class ShootingResult(_ArrayRecord):
    """Endpoint matrix at torque M, columns the endpoint (y, z) of constant
    pairs (1, 0) and (0, 1); ``det`` vanishes exactly at buckling torques.
    ``S`` is read-only and results compare and hash by value."""

    S: np.ndarray
    det: float
    M: float

    _arrays = ("S",)


def endpoint_det(S: np.ndarray) -> np.ndarray:
    """Determinant of one endpoint matrix or of a stack of them."""
    return S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0]


@dataclass(frozen=True)
class StepGrid:
    """RK4 steps panel by panel: ``poly[k, i, p]`` is coefficient k of
    (a1, a3, p2, p4) for row i = 0 and (b1, b3, q2, q4) for row i = 1 of
    each of the ``counts[p]`` steps of panel p (module docstring).  A grid
    of several rods (:meth:`stack`) has a rod axis before the panel axis,
    its shorter rods padded with panels of no steps.  ``len`` is the step
    count of all rods."""

    poly: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def stack(cls, grids: Sequence["StepGrid"]) -> "StepGrid":
        """One grid of the rods of ``grids``, in their order, each padded
        with copies of its last panel given no steps."""
        width = max(g.counts.size for g in grids)
        poly = np.empty((4, 2, len(grids), width))
        counts = np.zeros((len(grids), width), dtype=int)
        for rod, g in enumerate(grids):
            panels = g.counts.size
            poly[:, :, rod, :panels], poly[:, :, rod, panels:] = g.poly, g.poly[:, :, -1:]
            counts[rod, :panels] = g.counts
        return cls(poly, counts)

    def rods(self, index: Sequence[int]) -> "StepGrid":
        """The rods numbered ``index`` of a stacked grid."""
        return StepGrid(self.poly[:, :, index], self.counts[index])


def _panel_steps(weights: np.ndarray, steps: int) -> np.ndarray:
    """``steps`` shared out in proportion to ``weights``, at least one each:
    panels whose share is below one get one and the rest share what is left
    by Hamilton's method (whole parts, then one more to the largest remainders).
    The counts add up to ``steps`` unless the panels outnumber the steps."""
    if steps <= weights.size:
        return np.ones(weights.size, dtype=int)
    fixed = np.zeros(weights.size, dtype=bool)
    while True:
        share = np.where(fixed, 1.0, (steps - fixed.sum()) * weights / weights[~fixed].sum())
        short = share < 1.0
        if not short.any():
            break
        fixed |= short
    counts = np.floor(share).astype(int)
    largest_remainders = np.argsort(counts - share, kind="stable")
    counts[largest_remainders[: steps - counts.sum()]] += 1
    return counts


def _first_step(widths, f0, log_ratio, counts) -> tuple[np.ndarray, np.ndarray]:
    """Width of the first of ``counts`` geometric steps per panel, and F at its stencil."""
    flat = log_ratio == 0.0
    r1 = np.expm1(log_ratio / counts)
    h = widths * np.where(flat, 1.0 / counts, r1 / np.expm1(np.where(flat, 1.0, log_ratio)))
    return h, np.array([f0, f0 * (1.0 + 0.5 * r1), f0 * (1.0 + r1)])


def build_step_grid(
    shape: ShapeFunction, E: float, J_y: float, J_z: float, steps: int = DEFAULT_STEPS
) -> StepGrid:
    """``steps`` RK4 steps (one per panel if the panels are more), geometric
    on each panel (module docstring), shared out (:func:`_panel_steps`) by
    share of the phase, by Simpson's rule on ceil(|log(f1/f0)| / 0.25) + 1
    geometric steps, plus share of sum |log(f1/f0)|, the log taken of the
    exact difference (Sterbenz) where f0/2 <= f1 <= 2 f0.  gz = 1/(E J_z F)
    multiplies the y-equation, gy = 1/(E J_y F) the z-equation."""
    if steps < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} steps, got {steps}")
    edges, left, right = shape.panels()
    widths = np.diff(edges)
    ratio = right / left
    near = (0.5 <= ratio) & (ratio <= 2.0)
    log_ratio = np.where(near, np.log1p((right - left) / left), np.log(ratio))
    spread = np.abs(log_ratio)
    simpson = np.ceil(spread / 0.25) + 1.0
    h, f = _first_step(widths, left, log_ratio, simpson)
    phase = simpson * h / 6.0 * (1.0 / f[0] + 4.0 / f[1] + 1.0 / f[2])
    weights = phase / phase.sum() + (spread / spread.sum() if spread.any() else 0.0)
    counts = _panel_steps(weights, steps)
    h, f = _first_step(widths, left, log_ratio, counts)
    # gz = g / J_z and gy = g / J_y with g = 1/(E F): (a1, b1), (a3, b3),
    # (p2, q2) and (p4, q4) are these products of g times powers of 1/J
    g0, g1, g2 = 1.0 / (E * f)
    products = np.array([
        h / 6.0 * (g0 + 4.0 * g1 + g2),
        h**3 / 12.0 * g1 * g1 * (g0 + g2),
        h**2 / 6.0 * g1 * (g0 + g1 + g2),
        h**4 / 24.0 * g1 * g1 * g2 * g0,
    ])
    iz, iy, q = 1.0 / J_z, 1.0 / J_y, 1.0 / (J_z * J_y)
    inverse = np.array([[iz, iy], [iz * q, iy * q], [q, q], [q * q, q * q]])
    return StepGrid(products[:, None, :] * inverse[:, :, None], counts)


def _real_spectrum(a: np.ndarray, q: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha and beta (:func:`propagate`) of A**c, first, and of the sum of
    A**k, k < c, second, for maps whose N = A - I has the real eigenvalues
    mu = a +- w, w = sqrt(-q): the mean of f over the two and its difference
    quotient, or its derivative at mu = a where w = 0.  At M = 0, N = 0, so
    A**c = I and the sum is c I."""
    w = np.sqrt(-q)
    mu = a + np.stack([w, -w])
    positive = mu > -1.0
    log_lam = np.log1p(np.where(positive, mu, 0.0))
    power = np.where(positive, np.exp(c * log_lam), (1.0 + mu) ** c)
    at_one = mu == 0.0
    growth = np.where(positive, np.expm1(c * log_lam), power - 1.0)
    total = np.where(at_one, c, growth / np.where(at_one, 1.0, mu))
    # derivatives in lam at lam = 1 + a: c lam**(c-1) and (c lam**(c-1) - sum) / a
    lam = 1.0 + a
    slope = c * np.where(lam == 0.0, c == 1.0, lam ** np.maximum(c - 1.0, 0.0))
    flat = a == 0.0
    total_slope = np.where(flat, 0.5 * c * (c - 1.0), (slope - total[0]) / np.where(flat, 1.0, a))
    double = w == 0.0
    spread = np.where(double, 1.0, 2.0 * w)
    alpha = 0.5 * np.stack([power[0] + power[1], total[0] + total[1]])
    quotient = np.stack([power[0] - power[1], total[0] - total[1]]) / spread
    return alpha, np.where(double, np.stack([slope, total_slope]), quotient)


def propagate(grid: StepGrid, M: np.ndarray) -> np.ndarray:
    """Endpoint matrices S at the torques ``M``: shape (len(M), 2, 2) for
    the 1-D ``M`` of a one-rod grid, (rods, torques, 2, 2) for ``M`` of
    shape (rods, torques) on a stacked grid.  Each panel's step map
    [[A, B], [0, I]] is raised to its count c in closed form, then the
    panel maps are composed pairwise.

    With N = A - I, a = tr N / 2, delta = det N and omega**2 = delta - a**2,
    the eigenvalues of A are lam = 1 + a +- i omega, and by Cayley-Hamilton
    f(A) = alpha I + beta (N - a I) with alpha = Re f(lam) and beta =
    Im f(lam) / omega (Putzer, *Amer. Math. Monthly* 73:2, 1966).  Here
    log lam = log1p(2 a + delta) / 2 + i atan2(omega, 1 + a), formed from N
    without cancellation.  A**c takes f = lam**c and the translation, the
    sum of A**k for k < c times B, f = expm1(c log lam) / (a + i omega).
    Maps whose omega**2 is not positive (M = 0 among them) take
    :func:`_real_spectrum` instead."""
    counts = grid.counts.reshape(-1, grid.counts.shape[-1])
    rods, panels = counts.shape
    poly = grid.poly.reshape(4, 2, rods, 1, panels)
    m = np.asarray(M, dtype=float).reshape(rods, -1, 1)
    m2 = m * m
    # (B11, B22) and (B12, -B21); N = M [[-B12, B11], [-B22, B21]]
    diagonal = poly[0] - m2 * poly[1]
    off = m * (poly[2] - m2 * poly[3])
    md, mo = m * diagonal, m * off
    # N - a I = [[d, n12], [n21, -d]]
    n12, n21 = md[0], -md[1]
    a = -0.5 * (mo[0] + mo[1])
    d = 0.5 * (mo[1] - mo[0])
    cross = md[0] * md[1]
    q = cross - d * d
    delta = mo[0] * mo[1] + cross
    real = q <= 0.0
    rare = real.any()
    if rare:
        # a stand-in a = -1/2, omega**2 = 3/4, delta = 1 (lam = exp(i pi/3))
        # for the maps that _real_spectrum takes
        a_c, q_c, delta = np.where(real, -0.5, a), np.where(real, 0.75, q), np.where(real, 1.0, delta)
    else:
        a_c, q_c = a, q
    omega = np.sqrt(q_c)
    log_lam = np.empty(omega.shape, complex)
    log_lam.real = 0.5 * np.log1p(2.0 * a_c + delta)
    log_lam.imag = np.arctan2(omega, 1.0 + a_c)
    c = counts[:, None, :]
    z = c * log_lam
    # f(lam) of A**c and of the sum of A**k, k < c
    f = np.empty((2, *z.shape), complex)
    np.exp(z, out=f[0])
    np.expm1(z, out=f[1])
    f[1] /= a_c + 1j * omega
    alpha, beta = f.real, f.imag / omega
    if rare:
        alpha[:, real], beta[:, real] = _real_spectrum(a[real], q[real], np.broadcast_to(c, q.shape)[real])
    # alpha I + beta (N - a I), then the panel maps [A**c, sum B] and
    # identities up to a power of two of panels
    bd = beta * d
    powers = np.empty((*alpha.shape, 2, 2))
    np.add(alpha, bd, out=powers[..., 0, 0])
    np.multiply(beta, n12, out=powers[..., 0, 1])
    np.multiply(beta, n21, out=powers[..., 1, 0])
    np.subtract(alpha, bd, out=powers[..., 1, 1])
    B = np.empty((*q.shape, 2, 2))
    B[..., 0, 0], B[..., 0, 1], B[..., 1, 1] = diagonal[0], off[0], diagonal[1]
    np.negative(off[1], out=B[..., 1, 0])
    maps = np.empty((*q.shape[:2], 1 << (panels - 1).bit_length(), 2, 4))
    maps[:, :, panels:] = _IDENTITY_ROWS
    maps[:, :, :panels, :, :2] = powers[0]
    np.matmul(powers[1], B, out=maps[:, :, :panels, :, 2:])
    # pairwise, later after earlier: [A2, b2] [A1, b1] = [A2 A1, A2 b1 + b2]
    while maps.shape[2] > 1:
        later = maps[:, :, 1::2]
        maps = later[..., :2] @ maps[:, :, 0::2]
        maps[..., 2:] += later[..., 2:]
    S = maps[:, :, 0, :, 2:]
    return S if grid.counts.ndim == 2 else S[0]


def _shoot(grid: StepGrid, M: float) -> ShootingResult:
    """Endpoint matrix and its determinant at one positive torque."""
    if M <= 0:
        raise ValueError(f"torque must be positive, got {M}")
    S = propagate(grid, np.array([M]))[0]
    return ShootingResult(S=S, det=float(endpoint_det(S)), M=M)


def shoot(spec: RodSpec, M: float, steps: int = DEFAULT_STEPS) -> ShootingResult:
    """Endpoint matrix of the variable-stiffness system at torque ``M``."""
    grid = build_step_grid(spec.shape, spec.E, spec.J_ref, spec.J_ref, steps)
    return _shoot(grid, M)


def probe_torques(
    shape: ShapeFunction, E: float, J_y: float, J_z: float, bracket, probes: int
) -> np.ndarray:
    """``probes + 1`` torques evenly over ``bracket`` or, if it is None,
    PROBE_RATIO apart from a ratio below 2 pi E min(J_y, J_z) min F / L to a
    ratio above 2 pi E max(J_y, J_z) max F / L, which bound M*; the margins
    keep a root that discretisation moves past a bound inside the scan."""
    if bracket is not None:
        lo, hi = bracket
        if not 0.0 <= lo < hi:
            raise ValueError(f"bracket must satisfy 0 <= lo < hi, got {bracket}")
        return np.linspace(lo, hi, probes + 1)
    _, left, right = shape.panels()
    scale = 2.0 * math.pi * E / shape.L
    lo = scale * min(J_y, J_z) * float(np.minimum(left, right).min())
    hi = scale * max(J_y, J_z) * float(np.maximum(left, right).max())
    count = math.ceil(math.log(hi / lo) / math.log(PROBE_RATIO)) + 3
    return lo / PROBE_RATIO * PROBE_RATIO ** np.arange(count)


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float) -> float:
    """A zero of ``f`` between ``a`` and ``b``, where f(a) and f(b) differ in
    sign, to within ``xtol + rtol * |x|``: Brent's method (Brent, 1973, ch.
    4), with the updates of scipy's ``brentq.c`` in its order, so the result
    is the same float.  Signs are compared, never multiplied (a product of
    two tiny values can underflow to zero), a step whose formula divides by
    zero bisects, as the C code does, and the point returned is always one
    ``f`` was evaluated at.  Raises ValueError when f(a) and f(b) have the
    same sign and RootSearchError when ``f`` returns nan or after
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


def _interpolated_zero(x: list[float], t: list[float], j: int) -> tuple[float, float]:
    """Zero of the inverse interpolant of traces ``t`` at sorted torques ``x``
    (t[j-1] < 0 <= t[j]) and its last correction as its error: Neville's
    scheme on the _NEVILLE_POINTS torques nearest the crossing over which t
    increases, so that x is a function of t, the farthest from zero last."""
    start, stop = j - 1, j + 1
    while start > 0 and t[start - 1] < t[start]:
        start -= 1
    while stop < len(t) and t[stop - 1] < t[stop]:
        stop += 1
    middle = 0.5 * (x[j - 1] + x[j])
    near = sorted(range(start, stop), key=lambda i: abs(x[i] - middle))[:_NEVILLE_POINTS]
    near.sort(key=lambda i: abs(t[i]))
    ts = [t[i] for i in near]
    p = previous = [x[i] for i in near]
    for k in range(1, len(p)):
        previous = p
        p = [(ts[i + k] * p[i] - ts[i] * p[i + 1]) / (ts[i + k] - ts[i]) for i in range(len(p) - 1)]
    return p[0], abs(p[0] - previous[0])


def _store(evaluated: dict, torques: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Keep the endpoint matrices ``S`` at ``torques`` as torque: (trace, matrix)."""
    evaluated.update(zip(torques.tolist(), zip((S[:, 0, 0] + S[:, 1, 1]).tolist(), S)))
    return S


def _refine(grid: StepGrid, evaluated: dict, a: float, b: float, xtol: float):
    """A torque in ``evaluated`` within ``xtol + RTOL * b`` of the zero of
    the trace in (a, b], where it goes from minus to plus.  A batch is the
    zero z of :func:`_interpolated_zero` and seven torques e/2 apart around
    it, e twice its error estimate and at least a quarter of the tolerance
    (the first, from probes too far apart to trust, spreads seven evenly).
    The end of smaller |trace| of the first sign change is returned once it
    is within tolerance after a batch centred on a z estimated to within
    that quarter; :func:`brentq` takes over, shooting the rod's ``grid``
    itself, if a batch fails to halve it.  A generator like :func:`_search`."""

    def trace(m: float) -> float:
        if m not in evaluated:
            torque = np.array([m])
            _store(evaluated, torque, propagate(grid, torque))
        return evaluated[m][0]

    width, centred = math.inf, False
    while True:
        x = sorted(evaluated)
        t = [evaluated[m][0] for m in x]
        j = bisect.bisect_left(x, a) + 1
        while not t[j - 1] < 0.0 <= t[j]:
            j += 1
        a, b = x[j - 1], x[j]
        tolerance = xtol + RTOL * b
        if t[j] == 0.0 or (centred and b - a < tolerance):
            return b if abs(t[j]) <= abs(t[j - 1]) else a
        if b - a > 0.5 * width:
            return brentq(trace, a, b, xtol=xtol, rtol=RTOL)
        zero, error = _interpolated_zero(x, t, j)
        if not a < zero < b:
            zero, error = 0.5 * (a + b), b - a
        centred = error <= 0.25 * tolerance
        if width == math.inf:
            batch = np.append(a + (b - a) * _EVEN, zero)
        else:
            batch = zero + min(max(2.0 * error, 0.25 * tolerance), b - a) * _OFFSETS
        width = b - a
        batch = batch[(a < batch) & (batch < b)]
        _store(evaluated, batch, (yield batch))


def _search(grid: StepGrid, probes: np.ndarray, tol: float, first: bool):
    """One rod's search among the increasing torques ``probes``, as a
    generator: it yields the torques it needs next, is sent their endpoint
    matrices S and returns the eigenvalues, the upward zero crossings of
    trace S.  The probes are evaluated SCAN_BLOCK at a time, each crossing
    interval (a, b] is refined to within ``tol * b`` (:func:`_refine`), and
    with ``first`` the scan stops there.  Each root, an evaluated torque,
    must pass det S(root) <= 1e-6 * max |det S| over the probes scanned so
    far.  Raises RootSearchError for a crossing that fails the check or
    does not converge and, with ``first``, when there is no crossing at
    all.  ``grid`` serves the :func:`brentq` safeguard only."""
    evaluated: dict[float, tuple[float, np.ndarray]] = {}
    roots: list[float] = []
    S = np.empty((0, 2, 2))
    for start in range(0, probes.size, SCAN_BLOCK):
        block = probes[start : start + SCAN_BLOCK]
        S = np.concatenate([S, _store(evaluated, block, (yield block))])
        t = S[:, 0, 0] + S[:, 1, 1]
        for i in range(max(start, 1), t.size):
            if not t[i - 1] < 0.0 <= t[i]:
                continue
            root = yield from _refine(grid, evaluated, probes[i - 1], probes[i], tol * probes[i])
            det_at_root = float(endpoint_det(evaluated[root][1]))
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
            f"no upward trace crossing in ({probes[0]:.6g}, {probes[-1]:.6g}): trace runs over "
            f"[{t.min():.3e}, {t.max():.3e}] without a sign change from minus to plus"
        )
    return roots


def _roots(
    rods: Sequence[tuple[ShapeFunction, float, float, float]], bracket, probes: int, tol: float,
    steps: int, first: bool,
) -> list[list[float]]:
    """Eigenvalues of each rod (shape, E, J_y, J_z): the roots of its
    :func:`_search` over :func:`probe_torques` of ``bracket`` and ``probes``
    on a grid of ``steps`` steps.  The searches run side by side: each
    round, one :func:`propagate` call on the stacked grids of the live rods
    shoots the torques every one of them asked for, each rod's padded with
    its last.  Raises, once all are done, the RootSearchError of the first
    rod in order that failed."""
    if not rods:
        return []
    grids = [build_step_grid(shape, E, J_y, J_z, steps) for shape, E, J_y, J_z in rods]
    stacked = StepGrid.stack(grids)
    searches = [
        _search(grid, probe_torques(*rod, bracket, probes), tol, first) for grid, rod in zip(grids, rods)
    ]
    results: list = [None] * len(rods)
    failures: dict[int, RootSearchError] = {}
    requests: dict[int, np.ndarray] = {}

    def advance(i: int, S) -> None:
        try:
            requests[i] = searches[i].send(S)
        except StopIteration as done:
            results[i] = done.value
        except RootSearchError as error:
            failures[i] = error

    for i in range(len(rods)):
        advance(i, None)
    while requests:
        live = list(requests)
        torques = [requests.pop(i) for i in live]
        M = np.empty((len(live), max(t.size for t in torques)))
        for row, t in zip(M, torques):
            row[: t.size], row[t.size :] = t, t[-1]
        S = propagate(stacked if len(live) == len(rods) else stacked.rods(live), M)
        for i, S_rod, t in zip(live, S, torques):
            advance(i, S_rod[: t.size])
    if failures:
        raise failures[min(failures)]
    return results


def first_roots(
    rods: Sequence[tuple[ShapeFunction, float, float, float]], tol: float = DEFAULT_TOL,
    steps: int = DEFAULT_STEPS,
) -> list[float]:
    """Smallest buckling torque of each rod (shape, E, J_y, J_z), searched
    as :func:`critical_torque_oracle` searches one with its default scan,
    to the same float, with the rods shot together (:func:`_roots`).
    Raises the RootSearchError of the first rod in order that has no root."""
    return [roots[0] for roots in _roots(rods, None, DEFAULT_PROBES, tol, steps, True)]


def critical_torque_oracle(
    spec: RodSpec, bracket: tuple[float, float] | None = None, tol: float = DEFAULT_TOL,
    steps: int = DEFAULT_STEPS,
) -> float:
    """Smallest buckling torque, to relative tolerance ``tol``: the first
    confirmed upward trace crossing of a scan over DEFAULT_PROBES equal
    intervals of ``bracket`` or, by default, between bounds on M* from the
    extremes of F (:func:`probe_torques`, no closed form).  Raises
    RootSearchError when the scan holds no crossing or the crossing found
    is not an eigenvalue."""
    rod = (spec.shape, spec.E, spec.J_ref, spec.J_ref)
    return _roots([rod], bracket, DEFAULT_PROBES, tol, steps, True)[0][0]


def eigenvalues_in(
    spec: RodSpec, M_lo: float, M_hi: float, tol: float = DEFAULT_TOL, steps: int = DEFAULT_STEPS,
) -> list[float]:
    """All buckling torques in (M_lo, M_hi], 0 <= M_lo < M_hi: every confirmed
    upward trace crossing of a scan over SPECTRUM_PROBES equal intervals."""
    rod = (spec.shape, spec.E, spec.J_ref, spec.J_ref)
    return _roots([rod], (M_lo, M_hi), SPECTRUM_PROBES, tol, steps, False)[0]


def convergence_study(spec: RodSpec, steps_list: list[int]) -> list[tuple[int, float]]:
    """Relative error against the closed-form critical torque, the one closed
    form the module reads, per step count, the root search running far below
    the discretization error to show the integrator's convergence order."""
    exact = critical_torque_value(spec)
    bracket = (0.5 * exact, 1.5 * exact)
    approx = [critical_torque_oracle(spec, bracket, 1e-13, steps) for steps in steps_list]
    return [(steps, abs(m - exact) / exact) for steps, m in zip(steps_list, approx)]
