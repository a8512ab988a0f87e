"""Power-mean (Hölder) inequality machinery and the isoperimetric bound.

Splitting the constant function as A**theta * A**(-theta) with
theta = n/(n+1) and conjugate exponents p = (n+1)/n, q = n+1 turns the
Hölder inequality into

    L <= V**(n/(n+1)) * (integral A**(-n))**(1/(n+1)),

and because the reciprocal-stiffness integral equals
alpha_n * integral A**(-n) under the section law, the critical torque of
any admissible rod is capped by

    M** = 2 * pi * E * alpha_n * V**n / L**(n+1),

with equality exactly when the cross-section is constant.  This module
computes the bound, checks it on concrete rods, and exposes the raw
inequality for direct testing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .greenhill import critical_torque_value
from .shape import AreaProfile, CrossSectionLaw, RodSpec, area_profile, integrate, require_positive

CONJUGATE_TOL = 1e-12


def holder_conjugate(p: float) -> float:
    """Exponent q with 1/p + 1/q = 1; p = 1 maps to infinity and back."""
    if not p >= 1.0:  # NaN fails too
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def holder_exponents_for_law(n: int) -> tuple[float, float, float]:
    """The split exponent theta and conjugate pair (p, q) for section-law n.

    Returns (n/(n+1), (n+1)/n, n+1): with f = A**theta, g = A**(-theta)
    these make integral f**p the volume, integral g**q the reciprocal
    A**(-n) integral, and integral f*g the length.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"section-law exponent must be 1, 2 or 3, got {n}")
    return n / (n + 1.0), (n + 1.0) / n, n + 1.0


@dataclass(frozen=True)
class HolderInstance:
    """A concrete inequality instance: nonnegative f, g on [0, L] with
    conjugate exponents (p, q).  ``breakpoints`` align the quadrature with
    any discontinuities of f or g.

    ``f`` and ``g`` take an ndarray of coordinates and return values of
    the same shape; a scalar return (``lambda t: 1.0``) is broadcast."""

    f: Callable[[np.ndarray], np.ndarray | float]
    g: Callable[[np.ndarray], np.ndarray | float]
    p: float
    q: float
    L: float
    breakpoints: Sequence[float] | None = None

    def __post_init__(self) -> None:
        require_positive(self.L, "domain length")
        if not (self.p >= 1.0 and self.q >= 1.0):  # NaN fails too
            raise ValueError(f"exponents must be >= 1, got p={self.p}, q={self.q}")
        if math.isinf(self.p) and math.isinf(self.q):
            raise ValueError("at most one exponent may be infinite")
        if not (math.isinf(self.p) or math.isinf(self.q)):
            if abs(1.0 / self.p + 1.0 / self.q - 1.0) > CONJUGATE_TOL:
                raise ValueError(
                    f"exponents are not conjugate: 1/{self.p} + 1/{self.q} != 1"
                )
        pts = self._probe_grid()
        f, g = self._sample(pts)
        bad = pts[(f < 0) | (g < 0)]
        if bad.size:
            raise ValueError(f"f and g must be nonnegative; negative value near t={bad[0]}")

    def _probe_grid(self, dense: int = 257) -> np.ndarray:
        pts = np.linspace(0.0, self.L, dense)
        if self.breakpoints is not None:
            bp = np.asarray(self.breakpoints, dtype=float)
            pts = np.union1d(pts, np.union1d(bp, 0.5 * (bp[:-1] + bp[1:])))
        return pts

    def _sample(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f and g on the points ``pts``, one call each, broadcast to its shape."""
        return (
            np.broadcast_to(np.asarray(self.f(pts), dtype=float), pts.shape),
            np.broadcast_to(np.asarray(self.g(pts), dtype=float), pts.shape),
        )


def holder_check(inst: HolderInstance) -> tuple[float, float, bool]:
    """Evaluate both sides of the inequality; ``holds`` allows 1e-12 slack.

    Every integral comes from one stacked ``integrate`` pass, which
    samples ``f`` and ``g`` once per node array.  An infinite exponent is
    handled as the essential supremum of the corresponding factor, sampled
    on the probe grid.
    """

    def sides(t: np.ndarray) -> tuple[np.ndarray, ...]:
        f, g = inst._sample(t)
        if math.isinf(inst.q):
            return f * g, f
        if math.isinf(inst.p):
            return f * g, g
        return f * g, f**inst.p, g**inst.q

    lhs, *parts = integrate(sides, 0.0, inst.L, breakpoints=inst.breakpoints).tolist()
    if math.isinf(inst.q):
        _, g = inst._sample(inst._probe_grid(2049))
        rhs = parts[0] * float(np.max(g))
    elif math.isinf(inst.p):
        f, _ = inst._sample(inst._probe_grid(2049))
        rhs = float(np.max(f)) * parts[0]
    else:
        fp, gq = parts
        rhs = fp ** (1.0 / inst.p) * gq ** (1.0 / inst.q)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-12)


def proportionality_gap(inst: HolderInstance) -> float:
    """sup |f**p - g**q| after normalizing both to unit mean.

    Zero exactly when f**p and g**q are proportional, which is the
    equality case of the inequality.  Finite exponents only.  Both
    integrals come from one stacked ``integrate`` pass.
    """
    if math.isinf(inst.p) or math.isinf(inst.q):
        raise ValueError("proportionality check needs finite exponents")

    def powers(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f, g = inst._sample(t)
        return f**inst.p, g**inst.q

    fp, gq = powers(inst._probe_grid(2049))
    fp_int, gq_int = integrate(powers, 0.0, inst.L, breakpoints=inst.breakpoints).tolist()
    if fp_int <= 0 or gq_int <= 0:
        raise ValueError("f**p and g**q must have positive integrals")
    return float(np.max(np.abs(fp * (inst.L / fp_int) - gq * (inst.L / gq_int))))


def law_split_instance(profile: AreaProfile, *, theta: float | None = None) -> HolderInstance:
    """The inequality instance behind the bound: f = A**theta, g = A**(-theta).

    The exponents are the profile's section law's: ``theta`` defaults to
    n/(n+1) with n = ``profile.law.n``, and the conjugate pair is
    ((n+1)/n, n+1).  Overriding ``theta``, by keyword only, is meant for
    negative controls (a wrong split must break the integral identities).
    """
    default_theta, p, q = holder_exponents_for_law(profile.law.n)
    th = default_theta if theta is None else theta

    def f(t: np.ndarray) -> np.ndarray:
        return np.asarray(profile.area(t)) ** th

    def g(t: np.ndarray) -> np.ndarray:
        return np.asarray(profile.area(t)) ** (-th)

    return HolderInstance(f=f, g=g, p=p, q=q, L=profile.L, breakpoints=profile.panel_edges)


def split_identity_residuals(
    profile: AreaProfile, *, theta: float | None = None
) -> tuple[float, float, float]:
    """Relative residuals of the three split identities.

    With the correct split, integral f**p is the volume, integral g**q is
    the reciprocal-power integral of the area, and integral f*g is the
    length.  Returns the relative deviations in that order.  The split is
    ``law_split_instance``'s, f = A**theta and g = A**(-theta) with the
    exponents of the profile's section law and ``theta`` a keyword-only
    override, integrated by quadrature without building the instance:
    both factors of a validated profile are positive, so its
    nonnegativity probe is moot.
    The four integrals (f**p, g**q, f*g and A**-n) are one stacked
    ``integrate`` pass that evaluates the area once per node array; each
    is the same float as its own ``integrate`` call.  The volume is the
    profile's, integrated apart by ``area_profile``.
    """
    n = profile.law.n
    default_theta, p, q = holder_exponents_for_law(n)
    th = default_theta if theta is None else theta

    def identities(t: np.ndarray) -> tuple[np.ndarray, ...]:
        area = np.asarray(profile.area(t))
        f, g = area**th, area ** (-th)
        return f**p, g**q, f * g, area ** (-float(n))

    f_p, g_q, f_g, inv_n = integrate(
        identities, 0.0, profile.L, breakpoints=profile.panel_edges
    ).tolist()
    return (
        abs(f_p - profile.volume) / profile.volume,
        abs(g_q - inv_n) / inv_n,
        abs(f_g - profile.L) / profile.L,
    )


def upper_bound(E: float, law: CrossSectionLaw, V: float, L: float) -> float:
    """Volume-and-length isoperimetric cap 2*pi*E*alpha_n*V**n / L**(n+1),
    the torque of the constant section, formed as 2*pi*E*alpha_n *
    (V/L)**n / L in numpy floats: it overflows only where the cap itself
    does, and then reads inf, not an OverflowError."""
    for value, name in ((E, "E"), (V, "V"), (L, "L")):
        require_positive(value, name)
    with np.errstate(over="ignore"):
        return float(2.0 * math.pi * E * law.alpha * np.float64(V / L) ** law.n / L)


@dataclass(frozen=True)
class IsoperimetricReport:
    """Critical torque against its isoperimetric cap for one rod.

    ``equality_gap`` is the sup-norm relative deviation of the area from
    its mean; it vanishes together with 1 - ratio exactly for constant
    cross-sections.
    """

    M_star: float
    M_bound: float
    ratio: float
    equality_gap: float

    def to_dict(self) -> dict:
        return {
            "M_star": self.M_star,
            "M_bound": self.M_bound,
            "ratio": self.ratio,
            "equality_gap": self.equality_gap,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def verify_bound(spec: RodSpec) -> IsoperimetricReport:
    """Compute critical torque, volume, bound, their ratio and the
    constant-section deviation for one rod."""
    return _bound_report(spec, area_profile(spec), critical_torque_value(spec))


def _bound_report(spec: RodSpec, profile: AreaProfile, m_star: float) -> IsoperimetricReport:
    """``verify_bound`` for a rod whose area profile and critical torque
    ``m_star`` the caller already has."""
    m_bound = upper_bound(spec.E, spec.law, profile.volume, spec.shape.L)
    return IsoperimetricReport(
        M_star=m_star,
        M_bound=m_bound,
        ratio=m_star / m_bound,
        equality_gap=profile.max_relative_deviation(),
    )
