"""Rods whose cross-section has different principal inertias.

When the ratio k = J_y / J_z is constant along the span, rescaling the
deflection pair as Y = k**(1/4) * Y~, Z = k**(-1/4) * Z~ turns the
twist-buckling system into the isotropic one with the geometric-mean
inertia J = sqrt(J_y * J_z); the critical torque therefore depends on
the two inertias only through their product.  This module carries out
that reduction and, independently, shoots the unreduced system to check
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .greenhill import ModeShape
from .oracle import DEFAULT_PROBES, DEFAULT_STEPS, DEFAULT_TOL, ShootingResult, _roots, _shoot
# propagate is not called here: bench/tracer.py patches this binding by name
from .oracle import build_step_grid, propagate
from .shape import CrossSectionLaw, RodSpec, ShapeFunction, require_positive


@dataclass(frozen=True)
class AnisotropicSection:
    """Principal second moments of area about the two bending axes."""

    Jy: float
    Jz: float

    def __post_init__(self) -> None:
        require_positive(self.Jy, "inertia Jy")
        require_positive(self.Jz, "inertia Jz")

    @property
    def k(self) -> float:
        """Inertia ratio Jy / Jz (constant along the rod by assumption)."""
        return self.Jy / self.Jz


def effective_inertia(section: AnisotropicSection) -> float:
    """Geometric mean sqrt(Jy * Jz): the isotropic-equivalent inertia."""
    return math.sqrt(section.Jy * section.Jz)


@dataclass(frozen=True)
class AnisotropicRodSpec:
    """Rod description with distinct principal inertias at constant ratio."""

    E: float
    section: AnisotropicSection
    shape: ShapeFunction
    law: CrossSectionLaw

    def __post_init__(self) -> None:
        require_positive(self.E, "Young's modulus")


def reduce_to_isotropic(spec: AnisotropicRodSpec) -> RodSpec:
    """Equivalent isotropic rod with J_ref = sqrt(Jy * Jz).

    The reduction also rescales the mode variables (see
    :func:`mode_to_anisotropic`); the critical torque is untouched.
    """
    return RodSpec(
        E=spec.E,
        J_ref=effective_inertia(spec.section),
        shape=spec.shape,
        law=spec.law,
    )


def mode_to_anisotropic(mode: ModeShape, k: float) -> ModeShape:
    """Map a reduced-system mode back to physical deflections.

    Applies (Y, Z) = (k**(1/4) y, k**(-1/4) z), renormalizes the result to
    unit peak amplitude, and rescales the integration constants with the
    inverse factors so the transformed samples still satisfy the
    anisotropic balance equations.
    """
    if k <= 0:
        raise ValueError(f"inertia ratio must be positive, got {k}")
    r = k**0.25
    y = mode.y * r
    z = mode.z / r
    c1 = mode.c1 / r
    c2 = mode.c2 * r
    scale = float(np.max(np.hypot(y, z)))
    return ModeShape(x=mode.x, y=y / scale, z=z / scale, c1=c1 / scale, c2=c2 / scale)


def shoot_anisotropic(
    spec: AnisotropicRodSpec,
    M: float,
    steps: int = DEFAULT_STEPS,
) -> ShootingResult:
    """Endpoint matrix of the unreduced anisotropic system at torque ``M``.

    Integrates F*E*Jz * Y' = M Z + c1, F*E*Jy * Z' = -M Y + c2 exactly as
    written, with no change of variables, for the two constant-pair bases.
    With Jy = Jz this reproduces the isotropic shooting bit for bit.
    """
    grid = build_step_grid(spec.shape, spec.E, spec.section.Jy, spec.section.Jz, steps)
    return _shoot(grid, M)


def first_root_anisotropic(
    spec: AnisotropicRodSpec,
    bracket: tuple[float, float] | None = None,
    tol: float = DEFAULT_TOL,
    steps: int = DEFAULT_STEPS,
) -> float:
    """Smallest torque at which the anisotropic endpoint matrix is singular.

    The unreduced system is shot and searched exactly like the isotropic
    one (:func:`~twistrod.oracle._roots`): the first upward zero crossing
    of trace S, confirmed against det S, so the search does not assume the
    isotropic reduction it checks.  The scan runs over DEFAULT_PROBES equal
    intervals of ``bracket`` or, by default, geometrically between bounds
    on M* from the extremes of F and of the two inertias
    (:func:`~twistrod.oracle.probe_torques`), which read no closed form.
    """
    rod = (spec.shape, spec.E, spec.section.Jy, spec.section.Jz)
    return _roots([rod], bracket, DEFAULT_PROBES, tol, steps, True)[0][0]
