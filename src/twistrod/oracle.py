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
    B22, B21: as B11, -B12 with y and z exchanged
    A11 = 1 - M B12,  A12 = M B11,  A21 = -M B22,  A22 = 1 + M B21.

gy / gz = k = J_z / J_y is constant along the span, so the exchange
multiplies a1 and a3 by k and leaves p2 and p4: B22 = k B11, B21 = -B12
and A11 = A22.  Then omega**2 = -A12 A21 = k (M B11)**2 >= 0 for every
rod, and omega = 0 only where M B11 = 0; ``propagate`` handles those maps
except the one with A = 0.

Grid: F is linear on each panel of ``ShapeFunction.panels()``; every
panel, from f0 to f1, gets the same number c of geometric steps (a
panel's map costs the kernel the same whatever its count), F = f0 r^k
where step k starts, r = (f1/f0)^(1/c), so each step is r times as wide
as the one before and F at its stencil (f0 r^k times 1, 1 + (r-1)/2, r)
r times larger.  Each coefficient, h^j times j values of g = 1/(E J F),
and so the map are the same on every step of the panel.  Kernel:
``propagate`` raises each panel's augmented map [[A, B], [0, I]] to its
step count in closed form, from the trace and determinant of A - I
(Cayley-Hamilton), and composes the panel maps pairwise, for many
torques and many rods at once; S is the translation.

Search: det S(M) is analytically a perfect square (|1 - exp(-i M phi)|**2
/ M**2 for the exact solution, phi the total reciprocal-stiffness
integral), so the search tracks trace S = 2 sin(M phi) / M instead, whose
upward zero crossings are exactly the eigenvalues k M* and the downward
ones (k - 1/2) M*, where det S is largest; an anisotropic section keeps
that pattern.  Default probes are geometric with ratio 1.4 < 3/2 between
bounds on M* from the extremes of F, so no probe interval holds M* and
another zero.  The RK4 maps share one generator, so S = (Lambda - I)
[[0, -1], [1, 0]] / M with Lambda their product, and trace S = rho
sin(Theta) (1 + k) / (sqrt(k) M), Theta the angle they turn through
(:func:`_phase`, no composition).  The phase places every root: where
Theta passes a multiple 2 pi k between two probes, the root is the zero
of the inverse interpolant of Theta - 2 pi k at the probes or, if that is
not within a quarter of the tolerance, :func:`brentq`'s on the phase.
One kernel call then shoots the probes (through the one above the root,
for the first root) and three torques around each root: trace S must
cross zero upward across each, det S must be small there, and the shot
must hold no other upward crossing.  Nothing in the module reads phi or
any other closed form (it imports neither ``greenhill`` nor
``transform``; :func:`~twistrod.greenhill.convergence_study` measures it
against the closed form), and a root the kernel does not confirm raises.
:func:`_roots` searches many rods with one kernel call; every root
function here and in ``anisotropic`` calls it.  Needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import RootSearchError
from .shape import RodSpec, ShapeFunction, _ArrayRecord, require_positive

# RK4 steps per panel
DEFAULT_STEPS = 4096
DEFAULT_TOL = 1e-10
DEFAULT_PROBES = 64
MIN_STEPS = 16
PROBE_RATIO = 1.4
BRENT_ITERATIONS = 100
# Relative tolerance of a root, four ulps, as scipy's brentq asks
RTOL = 8.9e-16
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
    """RK4 steps panel by panel: ``poly[j, p]`` is entry j of (a1, a3, p2,
    p4, k) of each of the ``counts[p]`` steps of panel p (module docstring;
    k = J_z / J_y gives the exchanged coefficients), ``counts[p]`` the
    grid's steps per panel.  A grid of several rods (:meth:`stack`) has a
    rod axis before the panel axis, its shorter rods padded with panels of
    no steps.  ``len`` is the step count of all rods, panels
    times steps."""

    poly: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def stack(cls, grids: Sequence["StepGrid"]) -> "StepGrid":
        """One grid of the rods of ``grids``, in their order, each padded
        with copies of its last panel given no steps."""
        width = max(g.counts.size for g in grids)
        poly = np.empty((5, len(grids), width))
        counts = np.zeros((len(grids), width), dtype=int)
        for rod, g in enumerate(grids):
            panels = g.counts.size
            poly[:, rod, :panels], poly[:, rod, panels:] = g.poly, g.poly[:, -1:]
            counts[rod, :panels] = g.counts
        return cls(poly, counts)


def build_step_grid(
    shape: ShapeFunction, E: float, J_y: float, J_z: float, steps: int = DEFAULT_STEPS
) -> StepGrid:
    """``steps`` RK4 steps on each panel, geometric (module docstring), the
    log of f1/f0 taken of the exact difference (Sterbenz) where f0/2 <= f1
    <= 2 f0.  gz = 1/(E J_z F) multiplies the y-equation, gy = 1/(E J_y F)
    the z-equation."""
    if steps < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} steps, got {steps}")
    edges, left, right = shape.panels()
    ratio = right / left
    near = (0.5 <= ratio) & (ratio <= 2.0)
    log_ratio = np.where(near, np.log1p((right - left) / left), np.log(ratio))
    counts = np.full(left.size, steps)
    # the first step of each panel: its width and F at its stencil
    flat = log_ratio == 0.0
    r1 = np.expm1(log_ratio / counts)
    h = np.diff(edges) * np.where(flat, 1.0 / counts, r1 / np.expm1(np.where(flat, 1.0, log_ratio)))
    f = np.array([left, left * (1.0 + 0.5 * r1), left * (1.0 + r1)])
    # gz = g / J_z and gy = g / J_y with g = 1/(E F): a1, a3, p2 and p4
    # are these products of g times powers of 1/J
    g0, g1, g2 = 1.0 / (E * f)
    poly = np.empty((5, left.size))
    poly[:4] = [
        h / 6.0 * (g0 + 4.0 * g1 + g2),
        h**3 / 12.0 * g1 * g1 * (g0 + g2),
        h**2 / 6.0 * g1 * (g0 + g1 + g2),
        h**4 / 24.0 * g1 * g1 * g2 * g0,
    ]
    iz, q = 1.0 / J_z, 1.0 / (J_z * J_y)
    poly[:4] *= np.array([iz, iz * q, q, q * q])[:, None]
    poly[4] = J_z / J_y
    return StepGrid(poly, counts)


def _step_terms(grid: StepGrid, M) -> tuple:
    """Over (rods, torques, panels), the counts c and the step maps' B11,
    B22, off = M B12, n12, n21, a, q and omega (:func:`propagate`)."""
    counts = grid.counts.reshape(-1, grid.counts.shape[-1])
    rods, panels = counts.shape
    a1, a3, p2, p4, k = grid.poly.reshape(5, rods, 1, panels)
    m = np.asarray(M, dtype=float).reshape(rods, -1, 1)
    m2 = m * m
    # B11, B22 = k B11 and B12 = -B21
    B11 = a1 - m2 * a3
    B22 = k * B11
    off = m * (p2 - m2 * p4)
    n12 = m * B11
    n21 = -k * n12
    a = -m * off
    q = -n12 * n21
    return counts[:, None, :], B11, B22, off, n12, n21, a, q, np.sqrt(q)


def _phase(grid: StepGrid, M) -> np.ndarray:
    """Theta (module docstring, Pruefer's angle) at the torques ``M``, the
    sum over panels of c atan2(omega, 1 + a), shaped as the traces of
    :func:`propagate`.  Where M B11 > 0, on grids that resolve M, trace S
    has the sign of sin(Theta)."""
    c, *_, a, _, omega = _step_terms(grid, M)
    return (c * np.arctan2(omega, 1.0 + a)).sum(axis=-1).reshape(np.shape(M))


def propagate(grid: StepGrid, M: np.ndarray) -> np.ndarray:
    """Endpoint matrices S at the torques ``M``: shape (len(M), 2, 2) for
    the 1-D ``M`` of a one-rod grid, (rods, torques, 2, 2) for ``M`` of
    shape (rods, torques) on a stacked grid.  Each panel's step map
    [[A, B], [0, I]] is raised to its count c in closed form, then the
    panel maps are composed pairwise.

    N = A - I is a I + [[0, n12], [n21, 0]] (module docstring), with
    a = -M B12, n12 = M B11, n21 = -k n12, omega**2 = -n12 n21 >= 0 and
    delta = det N = a**2 + omega**2.  The eigenvalues of A are lam = 1 + a
    +- i omega, and by Cayley-Hamilton f(A) = alpha I + beta (N - a I) with
    alpha = Re f(lam) and beta = Im f(lam) / omega (Putzer, *Amer. Math.
    Monthly* 73:2, 1966).  Here log lam = log1p(2 a + delta) / 2 + i
    atan2(omega, 1 + a), formed from N without cancellation.  A**c takes
    f = lam**c and the translation, the sum of A**k for k < c times B,
    f = expm1(c log lam) / (a + i omega).  Where omega = 0, M B11 = 0 and
    N = a I, so beta multiplies a zero matrix and only has to be finite;
    where a = 0 as well (M = 0), A = I and the sum is c I.  A map with
    lam = 0 (omega = 0 and a = -1, so A = 0) is not handled: log1p(-1)
    makes its S NaN.  It needs M**2 = a1 / a3 and M B12 = 1 at once, and
    no rod is known to reach it."""
    c, B11, B22, off, n12, n21, a, q, omega = _step_terms(grid, M)
    delta = a * a + q
    log_lam = np.empty(omega.shape, complex)
    log_lam.real = 0.5 * np.log1p(2.0 * a + delta)
    log_lam.imag = np.arctan2(omega, 1.0 + a)
    z = c * log_lam
    # f(lam) of A**c and of the sum of A**k, k < c
    f = np.empty((2, *z.shape), complex)
    np.exp(z, out=f[0])
    np.expm1(z, out=f[1])
    # N = a I where omega = 0 (docstring): the sum is c I where a = 0 too,
    # and beta takes any finite value
    double = q == 0.0
    identity = double & (a == 0.0)
    f[1] = np.where(identity, c, f[1] / np.where(identity, 1.0, a + 1j * omega))
    omega = np.where(double, 1.0, omega)
    alpha, beta = f.real, f.imag / omega
    # alpha I + beta (N - a I), then the panel maps [A**c, sum B] and
    # identities up to a power of two of panels
    powers = np.empty((*alpha.shape, 2, 2))
    powers[..., 0, 0] = powers[..., 1, 1] = alpha
    np.multiply(beta, n12, out=powers[..., 0, 1])
    np.multiply(beta, n21, out=powers[..., 1, 0])
    B = np.empty((*q.shape, 2, 2))
    B[..., 0, 0], B[..., 0, 1], B[..., 1, 1] = B11, off, B22
    np.negative(off, out=B[..., 1, 0])
    panels = q.shape[-1]
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
    require_positive(M, "torque")
    S = propagate(grid, np.array([M]))[0]
    return ShootingResult(S=S, det=float(endpoint_det(S)), M=M)


def shoot(spec: RodSpec, M: float, steps: int = DEFAULT_STEPS) -> ShootingResult:
    """Endpoint matrix of the variable-stiffness system at torque ``M``."""
    grid = build_step_grid(spec.shape, spec.E, spec.J_ref, spec.J_ref, steps)
    return _shoot(grid, M)


def probe_torques(shape: ShapeFunction, E: float, J_y: float, J_z: float, bracket) -> np.ndarray:
    """``DEFAULT_PROBES + 1`` torques evenly over ``bracket`` or, if it is
    None, PROBE_RATIO apart from a ratio below 2 pi E min(J_y, J_z) min F/L
    to a ratio above 2 pi E max(J_y, J_z) max F/L, which bound M*; the
    margins keep a root that discretisation moves past a bound inside the
    scan."""
    if bracket is not None:
        lo, hi = bracket
        if not 0.0 <= lo < hi:
            raise ValueError(f"bracket must satisfy 0 <= lo < hi, got {bracket}")
        return np.linspace(lo, hi, DEFAULT_PROBES + 1)
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

    xpre, xcur = map(float, (a, b))
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
    """Zero of the inverse interpolant of values ``t`` at sorted torques
    ``x`` (t[j-1] < 0 <= t[j]) and its last correction as its error:
    Neville's scheme on the _NEVILLE_POINTS torques nearest the sign change
    over which t increases, so that x is a function of t, the farthest from
    zero last."""
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


def _place(grid: StepGrid, probes: np.ndarray, tol: float, first: bool) -> list[tuple[float, int]]:
    """Each torque r where the phase (:func:`_phase`) passes a multiple
    2 pi k over the increasing ``probes`` x, with the index i of the probe
    above it (x[i-1] < r <= x[i]); with ``first`` the first only.  r is
    the zero of Theta - 2 pi k at the probes (:func:`_interpolated_zero`)
    if it lies inside (x[i-1], x[i]) with error <= e/4, e = (tol + RTOL)
    x[i], else :func:`brentq`'s on the phase to within about e/2, which
    shoots nothing."""
    theta, x = _phase(grid, probes), probes.tolist()
    turns = theta // (2.0 * math.pi)
    roots = []
    for i in (np.flatnonzero(turns[1:] > turns[:-1]) + 1).tolist():
        for k in range(int(turns[i - 1]) + 1, int(turns[i]) + 1):
            turn, e = 2.0 * math.pi * k, (tol + RTOL) * x[i]
            zero, error = _interpolated_zero(x, (theta - turn).tolist(), i)
            if not (x[i - 1] < zero < x[i] and error <= e / 4):
                zero = brentq(
                    lambda m: float(_phase(grid, m)) - turn, x[i - 1], x[i], xtol=tol * x[i] / 2, rtol=RTOL
                )
            roots.append((zero, i))
            if first:
                return roots
    return roots


def _confirm(shot: list[float], S: np.ndarray, roots: list[tuple[float, int]], first: bool) -> None:
    """Check the roots of :func:`_place` against the endpoint matrices ``S``
    at the torques ``shot``: the probes, then r - e/2, r and r + e/2 for
    each root r.  Raises RootSearchError unless trace S(r - e/2) < 0 <=
    trace S(r + e/2) and det S(r) <= 1e-6 * max |det S| over the probes up
    to r, for every r, and the sorted shot holds as many upward trace
    crossings as roots, and, with ``first``, one root."""
    t, det = S[:, 0, 0] + S[:, 1, 1], endpoint_det(S)
    stop = len(shot) - 3 * len(roots)
    for below, (root, i) in zip(range(stop, len(shot), 3), roots):
        if not t[below] < 0.0 <= t[below + 2]:
            raise RootSearchError(
                f"phase zero at M={root:.6g} is not an eigenvalue: trace S goes from "
                f"{t[below]:.3e} to {t[below + 2]:.3e} across it, not from minus to plus"
            )
        det_scale = float(np.max(np.abs(det[: i + 1])))
        if det[below + 1] > 1e-6 * det_scale:
            raise RootSearchError(
                f"trace crossing at M={root:.6g} is not an eigenvalue: "
                f"det {det[below + 1]:.3e} vs scan scale {det_scale:.3e}"
            )
    sorted_t = t[np.argsort(shot, kind="stable")]
    crossings = np.count_nonzero((sorted_t[:-1] < 0.0) & (sorted_t[1:] >= 0.0))
    if crossings != len(roots):
        raise RootSearchError(
            f"{crossings} upward trace crossings in ({shot[0]:.6g}, {shot[stop - 1]:.6g}], but the "
            f"phase places {len(roots)} roots"
        )
    if first and not roots:
        raise RootSearchError(
            f"no upward trace crossing in ({shot[0]:.6g}, {shot[-1]:.6g}): trace runs over "
            f"[{t.min():.3e}, {t.max():.3e}] without a sign change from minus to plus"
        )


def _roots(
    rods: Sequence[tuple[ShapeFunction, float, float, float]], bracket, tol: float, steps: int, first: bool
) -> list[list[float]]:
    """Eigenvalues of each rod (shape, E, J_y, J_z) over
    :func:`probe_torques` of ``bracket`` on ``steps`` steps per panel, the
    first only with ``first``: the phase places them (:func:`_place`), and
    one :func:`propagate` call on the stacked grids shoots what
    :func:`_confirm` checks, each rod's torques padded with its last.
    Raises the RootSearchError of the first rod in order that fails the
    check, or, before the shot, one :func:`brentq` raises on the phase."""
    if not rods:
        return []
    grids = [build_step_grid(shape, E, J_y, J_z, steps) for shape, E, J_y, J_z in rods]
    scans = [probe_torques(*rod, bracket) for rod in rods]
    placed = [_place(grid, x, tol, first) for grid, x in zip(grids, scans)]
    shots = []
    for x, roots in zip(scans, placed):
        # with ``first`` the probes stop at the one above the root: far
        # above it the maps overflow
        shot = x[: roots[0][1] + 1 if first and roots else None].tolist()
        for root, i in roots:
            e = (tol + RTOL) * x[i]
            shot += [root - e / 2, root, root + e / 2]
        shots.append(shot)
    M = np.empty((len(rods), max(map(len, shots))))
    for row, shot in zip(M, shots):
        row[: len(shot)], row[len(shot) :] = shot, shot[-1]
    S = propagate(StepGrid.stack(grids), M)
    for shot, S_rod, roots in zip(shots, S, placed):
        _confirm(shot, S_rod[: len(shot)], roots, first)
    return [[root for root, _ in roots] for roots in placed]


def first_roots(
    rods: Sequence[tuple[ShapeFunction, float, float, float]], tol: float = DEFAULT_TOL,
    steps: int = DEFAULT_STEPS,
) -> list[float]:
    """Smallest buckling torque of each rod (shape, E, J_y, J_z), placed
    as :func:`critical_torque_oracle` places one with its default scan, to
    the same float, and confirmed in one kernel call for all (:func:`_roots`).
    Raises the RootSearchError of the first rod in order that fails."""
    return [roots[0] for roots in _roots(rods, None, tol, steps, True)]


def critical_torque_oracle(
    spec: RodSpec, bracket: tuple[float, float] | None = None, tol: float = DEFAULT_TOL,
    steps: int = DEFAULT_STEPS,
) -> float:
    """Smallest buckling torque, to relative tolerance ``tol``: the first
    torque where the phase passes a multiple of 2 pi over a scan of
    DEFAULT_PROBES equal intervals of ``bracket`` or, by default, between
    bounds on M* from the extremes of F (:func:`probe_torques`, no closed
    form), confirmed as an upward trace crossing.  Raises RootSearchError
    when the scan holds no crossing or the root is not confirmed."""
    rod = (spec.shape, spec.E, spec.J_ref, spec.J_ref)
    return _roots([rod], bracket, tol, steps, True)[0][0]


def eigenvalues_in(
    spec: RodSpec, M_lo: float, M_hi: float, tol: float = DEFAULT_TOL, steps: int = DEFAULT_STEPS,
) -> list[float]:
    """All buckling torques in (M_lo, M_hi], 0 <= M_lo < M_hi: one per
    multiple of 2 pi the phase passes over DEFAULT_PROBES equal intervals,
    however many in one interval, each confirmed as an upward trace
    crossing, in one kernel call."""
    rod = (spec.shape, spec.E, spec.J_ref, spec.J_ref)
    return _roots([rod], (M_lo, M_hi), tol, steps, False)[0]

