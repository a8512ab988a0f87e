"""Critical twist-buckling torque and closed-form buckling modes.

A hinged-hinged rod loaded by end couples alone buckles when the torque
reaches 2*pi*E*J/l for a uniform rod.  For a variable profile F the same
eigenvalue problem, after the change of variable in :mod:`.transform`,
gives the exact value

    M* = 2*pi*E / integral_0^L dt / (F(t) * J_ref),

which is the uniform-rod formula evaluated at the equivalent length.
The once-integrated balance for the deflection pair (y, z) reads

    E*J y' = M z + c1,      E*J z' = -M y + c2,

and combining the pair into w = y + i z turns it into a single linear
equation whose solution is written below in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EigenvalueConsistencyError
from .oracle import critical_torque_oracle
from .shape import RodSpec, _ArrayRecord, require_positive
from .transform import _lengths, physical_length

# Endpoint residual above this fraction of the mode amplitude means the
# requested torque is not an eigenvalue.
ENDPOINT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ModeShape(_ArrayRecord):
    """Buckling mode sampled on a uniform grid of the stretched coordinate.

    Samples are normalized so max sqrt(y**2 + z**2) = 1; ``c1`` and ``c2``
    are the integration constants rescaled consistently, so the samples
    and constants jointly satisfy the once-integrated balance.  The
    samples are read-only and modes compare and hash by value.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    c1: float
    c2: float

    _arrays = ("x", "y", "z")

    def amplitude(self) -> np.ndarray:
        return np.hypot(self.y, self.z)

    def to_csv(self, path: str | Path) -> None:
        """Write samples as CSV with header ``x,y,z``, full precision."""
        lines = ["x,y,z"]
        lines += [
            f"{float(xi)!r},{float(yi)!r},{float(zi)!r}"
            for xi, yi, zi in zip(self.x, self.y, self.z)
        ]
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class BucklingResult:
    """Critical torque plus the mode it buckles into."""

    M_crit: float
    mode_index: int
    mode: ModeShape

    def __post_init__(self) -> None:
        require_positive(self.M_crit, "critical torque")


def critical_torque_constant(E: float, J: float, l: float, k: int = 1) -> float:
    """Buckling torque 2*pi*k*E*J/l of the uniform rod, mode index k >= 1."""
    for value, name in ((E, "E"), (J, "J"), (l, "l")):
        require_positive(value, name)
    if not (k >= 1 and float(k).is_integer()):  # NaN and inf fail too
        raise ValueError(f"mode index must be a positive integer, got {k}")
    return 2.0 * math.pi * k * E * J / l


def critical_torque_value(spec: RodSpec, mode_index: int = 1) -> float:
    """Critical torque alone: 2*pi*k*E / integral dt/(F(t)*J_ref), the
    uniform rod's torque at the equivalent length."""
    return critical_torque_constant(spec.E, spec.J_ref, physical_length(spec.shape), mode_index)


def _critical_torques(specs: Sequence[RodSpec]) -> list[float]:
    """:func:`critical_torque_value` of each rod, the same floats, from one
    pass over their stacked panel tables (:func:`~twistrod.transform._lengths`)."""
    lengths = _lengths([spec.shape for spec in specs])
    return [critical_torque_constant(spec.E, spec.J_ref, l) for spec, l in zip(specs, lengths)]


def convergence_study(spec: RodSpec, steps_list: list[int]) -> list[tuple[int, float]]:
    """Relative error of the shooting oracle against the closed-form critical
    torque per panel step count, the search running far below the
    discretization error to show the integrator's convergence order."""
    exact = critical_torque_value(spec)
    bracket = (0.5 * exact, 1.5 * exact)
    approx = [critical_torque_oracle(spec, bracket, 1e-13, steps) for steps in steps_list]
    return [(steps, abs(m - exact) / exact) for steps, m in zip(steps_list, approx)]


def critical_torque(
    spec: RodSpec, mode_index: int = 1, mode_grid_size: int = 1025
) -> BucklingResult:
    """Exact critical torque of a variable-profile rod, with its mode.

    Evaluates the reciprocal-stiffness integral in closed form and populates the
    mode via :func:`mode_shape` with the default constants (1, 0); at an
    eigenvalue the endpoint matrix vanishes identically, so any nonzero
    constant pair yields a valid mode and (1, 0) keeps output deterministic.
    """
    M = critical_torque_value(spec, mode_index)
    mode = mode_shape(spec, M, 1.0, 0.0, grid_size=mode_grid_size)
    return BucklingResult(M_crit=M, mode_index=mode_index, mode=mode)


def mode_shape(
    spec: RodSpec,
    M: float,
    c1: float = 1.0,
    c2: float = 0.0,
    grid_size: int = 1025,
) -> ModeShape:
    """Closed-form buckling mode at torque ``M`` in the stretched coordinate.

    With w = y + i z and c = c1 + i c2 the once-integrated balance has the
    solution

        w(x) = (c / (i M)) * (1 - exp(-i M x / (E J_ref)))

    on [0, l].  ``M`` must be an eigenvalue: the endpoint value w(l) has to
    vanish within 1e-8 of the mode amplitude, otherwise the data are
    inconsistent and EigenvalueConsistencyError is raised.
    """
    require_positive(M, "torque")
    if c1 == 0.0 and c2 == 0.0:
        raise ValueError("constants (c1, c2) = (0, 0) give only the trivial solution")
    if grid_size < 2:
        raise ValueError("grid needs at least two samples")

    l = physical_length(spec.shape)
    x = np.linspace(0.0, l, grid_size)
    c = complex(c1, c2)
    rate = M / (spec.E * spec.J_ref)
    w = (c / (1j * M)) * (1.0 - np.exp(-1j * rate * x))

    amplitude = np.abs(w)
    scale = float(np.max(amplitude))
    end_residual = abs((c / (1j * M)) * (1.0 - cmath.exp(-1j * rate * l)))
    if end_residual > ENDPOINT_TOL * scale:
        raise EigenvalueConsistencyError(
            f"torque {M} is not an eigenvalue: endpoint residual "
            f"{end_residual:.3e} exceeds {ENDPOINT_TOL:g} of amplitude {scale:.3e}"
        )
    w /= scale
    return ModeShape(
        x=x, y=w.real, z=w.imag, c1=c1 / scale, c2=c2 / scale
    )
