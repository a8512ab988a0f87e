"""Independent shooting eigensolver for the twist-buckling BVP.

Validates the closed-form critical torque without using it: the
once-integrated deflection equations with the rod's actual variable
stiffness are integrated as an initial-value problem along the span for
the two constant-pair bases (1, 0) and (0, 1), and buckling torques are
located as the parameter values where the endpoint matrix S becomes
singular.

det S(M) is analytically a perfect square (it equals
|1 - exp(-i M phi)|**2 / M**2 for the exact solution, phi the total
reciprocal-stiffness integral), so bisection on det would fail.  The
signed root function used instead rotates the endpoint of the (1, 0)
integration by half the accumulated phase:

    g(M) = Re( (y_end + i z_end) * exp(i M phi / 2) ),

which for the exact solution equals (2/M) sin(M phi / 2): it vanishes
exactly at the eigenvalues and changes sign there.  phi comes from the
exact per-panel coordinate map; a small error in it would only rotate
the endpoint slightly and could not move the zeros, so the located roots
are governed by the integration alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import RootSearchError
from .greenhill import critical_torque_value
from .shape import RodSpec, ShapeFunction
from .transform import physical_length

DEFAULT_STEPS = 4096
DEFAULT_TOL = 1e-10
DEFAULT_PROBES = 64
MIN_STEPS = 16


@dataclass(frozen=True)
class ShootingResult:
    """Endpoint matrix of the two basis integrations at torque M.

    Columns of S are the endpoint deflections (y, z) produced by constant
    pairs (1, 0) and (0, 1); ``det`` vanishes exactly at buckling torques.
    """

    S: np.ndarray
    det: float
    M: float


def build_step_grid(
    shape: ShapeFunction,
    E: float,
    J_y: float,
    J_z: float,
    steps: int = DEFAULT_STEPS,
    align_panels: bool = True,
) -> list[tuple[float, float, float, float, float, float, float]]:
    """Precompute per-step RK4 data: (h, gz at 3 stencil points, gy at 3).

    gz = 1/(E*J_z*F) multiplies the y-equation, gy = 1/(E*J_y*F) the
    z-equation (they coincide for isotropic sections).  With
    ``align_panels`` the steps are distributed per smooth panel so that
    discontinuities of F never fall inside a step and the integrator
    keeps its full order; without it the grid is uniform.
    """
    if steps < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} steps, got {steps}")
    starts: list[np.ndarray] = []
    widths: list[np.ndarray] = []
    if align_panels:
        edges = shape.panel_edges()
        for a, b in zip(edges[:-1], edges[1:]):
            m = max(1, round(steps * (b - a) / shape.L))
            h = (b - a) / m
            starts.append(a + h * np.arange(m))
            widths.append(np.full(m, h))
    else:
        h = shape.L / steps
        starts.append(h * np.arange(steps))
        widths.append(np.full(steps, h))
    s0 = np.concatenate(starts)
    hs = np.concatenate(widths)
    stencil = np.concatenate([s0, s0 + 0.5 * hs, np.minimum(s0 + hs, shape.L)])

    if align_panels and shape.kind in ("constant", "piecewise"):
        # F is constant within each aligned step; sample strictly inside so
        # breakpoint half-openness cannot leak the neighbouring value.
        f_mid = np.asarray(shape.evaluate(s0 + 0.5 * hs))
        f = np.tile(f_mid, 3)
    else:
        f = np.asarray(shape.evaluate(stencil))

    third = s0.size
    gz = 1.0 / (E * J_z * f)
    gy = 1.0 / (E * J_y * f)
    return list(
        zip(
            hs.tolist(),
            gz[:third].tolist(),
            gz[third : 2 * third].tolist(),
            gz[2 * third :].tolist(),
            gy[:third].tolist(),
            gy[third : 2 * third].tolist(),
            gy[2 * third :].tolist(),
        )
    )


def propagate(
    grid: list[tuple[float, float, float, float, float, float, float]],
    M: float,
    c1: float,
    c2: float,
) -> tuple[float, float]:
    """Classical fixed-step RK4 for y' = (M z + c1) gz, z' = (c2 - M y) gy,
    from (0, 0) to the far end of the span.  Returns (y_end, z_end)."""
    y = 0.0
    z = 0.0
    for h, gz0, gz1, gz2, gy0, gy1, gy2 in grid:
        k1y = (M * z + c1) * gz0
        k1z = (c2 - M * y) * gy0
        uy = y + 0.5 * h * k1y
        uz = z + 0.5 * h * k1z
        k2y = (M * uz + c1) * gz1
        k2z = (c2 - M * uy) * gy1
        uy = y + 0.5 * h * k2y
        uz = z + 0.5 * h * k2z
        k3y = (M * uz + c1) * gz1
        k3z = (c2 - M * uy) * gy1
        uy = y + h * k3y
        uz = z + h * k3z
        k4y = (M * uz + c1) * gz2
        k4z = (c2 - M * uy) * gy2
        sixth = h / 6.0
        y += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        z += sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
    return y, z


def shoot(
    spec: RodSpec,
    M: float,
    steps: int = DEFAULT_STEPS,
    align_panels: bool = True,
) -> ShootingResult:
    """Endpoint matrix of the variable-stiffness system at torque ``M``."""
    if M <= 0:
        raise ValueError(f"torque must be positive, got {M}")
    grid = build_step_grid(spec.shape, spec.E, spec.J_ref, spec.J_ref, steps, align_panels)
    y1, z1 = propagate(grid, M, 1.0, 0.0)
    y2, z2 = propagate(grid, M, 0.0, 1.0)
    S = np.array([[y1, y2], [z1, z2]])
    return ShootingResult(S=S, det=y1 * z2 - y2 * z1, M=M)


def _root_function(grid, M: float, phi: float) -> float:
    y, z = propagate(grid, M, 1.0, 0.0)
    half = 0.5 * M * phi
    return y * math.cos(half) - z * math.sin(half)


def critical_torque_oracle(
    spec: RodSpec,
    bracket: tuple[float, float] | None = None,
    tol: float = DEFAULT_TOL,
    steps: int = DEFAULT_STEPS,
    probes: int = DEFAULT_PROBES,
    align_panels: bool = True,
) -> float:
    """Smallest buckling torque in ``bracket`` by scan plus bracketed root.

    ``bracket`` defaults to (1e-3, 4) times the closed-form estimate; the
    interval is scanned with ``probes`` coarse evaluations of the signed
    root function, the first sign change is refined to relative tolerance
    ``tol``.  Raises RootSearchError when no sign change exists, reporting
    the root-function values at the bracket ends.
    """
    if bracket is None:
        estimate = critical_torque_value(spec)
        bracket = (1e-3 * estimate, 4.0 * estimate)
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise ValueError(f"bracket must satisfy 0 < lo < hi, got {bracket}")

    grid = build_step_grid(spec.shape, spec.E, spec.J_ref, spec.J_ref, steps, align_panels)
    phi = physical_length(spec.shape) / (spec.E * spec.J_ref)

    ms = np.linspace(lo, hi, probes + 1)
    g_prev = _root_function(grid, ms[0], phi)
    for i in range(1, ms.size):
        g_next = _root_function(grid, ms[i], phi)
        if g_prev == 0.0:
            return float(ms[i - 1])
        if g_prev * g_next < 0.0:
            root = brentq(
                lambda m: _root_function(grid, m, phi),
                ms[i - 1],
                ms[i],
                xtol=tol * ms[i],
                rtol=8.9e-16,
            )
            return float(root)
        g_prev = g_next
    if g_prev == 0.0:
        return float(ms[-1])
    raise RootSearchError(
        f"no eigenvalue bracketed in ({lo}, {hi}): root function runs from "
        f"{_root_function(grid, lo, phi):.6e} to {g_prev:.6e} without a sign change"
    )


def eigenvalues_in(
    spec: RodSpec,
    M_lo: float,
    M_hi: float,
    probes: int = 256,
    tol: float = DEFAULT_TOL,
    steps: int = DEFAULT_STEPS,
) -> list[float]:
    """All buckling torques in (M_lo, M_hi], by exhaustive scan of the
    signed root function."""
    grid = build_step_grid(spec.shape, spec.E, spec.J_ref, spec.J_ref, steps, True)
    phi = physical_length(spec.shape) / (spec.E * spec.J_ref)
    ms = np.linspace(M_lo, M_hi, probes + 1)
    gs = [_root_function(grid, m, phi) for m in ms]
    roots = []
    for i in range(1, len(ms)):
        if gs[i - 1] == 0.0:
            roots.append(float(ms[i - 1]))
        elif gs[i - 1] * gs[i] < 0.0:
            roots.append(
                float(
                    brentq(
                        lambda m: _root_function(grid, m, phi),
                        ms[i - 1],
                        ms[i],
                        xtol=tol * ms[i],
                        rtol=8.9e-16,
                    )
                )
            )
    if gs[-1] == 0.0:
        roots.append(float(ms[-1]))
    return roots


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
