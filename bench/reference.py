"""Exact reference values for rod specs, computed without the package.

Every profile kind is a sum of panels on which F is constant or linear,
so the integrals the package evaluates by adaptive quadrature have
closed forms here:

    integral dt / F       w / v                       (constant panel)
                          w * log(f1 / f0) / (f1 - f0) (linear panel)
    integral F**p dt      w * v**p                    (constant panel)
                          w * (f1**(p+1) - f0**(p+1)) / ((p+1) (f1 - f0))

The linear-panel forms are evaluated through log1p/expm1 so that nearly
flat panels lose no digits.  Only the standard library is used, so the
benchmark's checks stay independent of the code they check.
"""

from __future__ import annotations

import math


def panels(shape: dict) -> list[tuple[float, float, float]]:
    """(width, F at left end, F at right end) per smooth panel of a shape
    descriptor as the CLI accepts it."""
    kind = shape["kind"]
    values = [float(v) for v in shape["values"]]
    if kind == "constant":
        return [(float(shape.get("L", 1.0)), values[0], values[0])]
    if kind == "piecewise":
        bp = [float(b) for b in shape["breakpoints"]]
        return [(b - a, v, v) for a, b, v in zip(bp[:-1], bp[1:], values)]
    if kind == "sampled":
        h = float(shape["L"]) / (len(values) - 1)
        return [(h, f0, f1) for f0, f1 in zip(values[:-1], values[1:])]
    raise ValueError(f"unknown shape kind {kind!r}")


def _reciprocal(w: float, f0: float, f1: float) -> float:
    """integral of 1/F over a panel where F runs linearly from f0 to f1."""
    d = f1 - f0
    if d == 0.0:
        return w / f0
    return w * math.log1p(d / f0) / d


def _power(w: float, f0: float, f1: float, p: float) -> float:
    """integral of F**p over a panel where F runs linearly from f0 to f1."""
    if f1 == f0:
        return w * f0**p
    # (r**(p+1) - 1) / ((p+1) (r - 1)) with r = f1/f0, written in logs
    lr = math.log1p((f1 - f0) / f0)
    return w * f0**p * math.expm1((p + 1.0) * lr) / ((p + 1.0) * math.expm1(lr))


def inertia(doc: dict) -> float:
    """Reference inertia of a rod document; sqrt(Jy*Jz) for anisotropic input."""
    if "J_ref" in doc:
        return float(doc["J_ref"])
    return math.sqrt(float(doc["Jy"]) * float(doc["Jz"]))


def span(shape: dict) -> float:
    return sum(w for w, _, _ in panels(shape))


def critical_torque(doc: dict) -> float:
    """M* = 2*pi*E / integral dt / (F * J)."""
    compliance = sum(_reciprocal(*p) for p in panels(doc["shape"])) / inertia(doc)
    return 2.0 * math.pi * float(doc["E"]) / compliance


def volume(doc: dict) -> float:
    """integral A dt with A = (F * J / alpha)**(1/n)."""
    n = int(doc["law"]["n"])
    scale = (inertia(doc) / float(doc["law"]["alpha"])) ** (1.0 / n)
    return scale * sum(_power(w, f0, f1, 1.0 / n) for w, f0, f1 in panels(doc["shape"]))


def bound(E: float, n: int, alpha: float, V: float, L: float) -> float:
    """Isoperimetric cap M** = 2*pi*E*alpha*V**n / L**(n+1)."""
    return 2.0 * math.pi * E * alpha * V**n / L ** (n + 1)


def rod_bound(doc: dict) -> float:
    law = doc["law"]
    return bound(float(doc["E"]), int(law["n"]), float(law["alpha"]), volume(doc), span(doc["shape"]))


def panel_torque(E: float, n: int, alpha: float, areas: list[float], L: float) -> float:
    """Critical torque of equal-length panels of the given areas:
    2*pi*E*alpha / sum(h * A_i**(-n))."""
    h = L / len(areas)
    return 2.0 * math.pi * E * alpha / sum(h * a ** (-n) for a in areas)


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / abs(b)
