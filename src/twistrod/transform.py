"""Change of independent variable between the rod span and the stretched
coordinate in which the twist equations have uniform coefficients.

The rod spans xi in [0, L] with stiffness profile F(xi).  The map

    x(xi) = integral_0^xi dt / F(t)

sends it to x in [0, l], l = x(L); a rod of uniform reference stiffness
and length l buckles at the same torque.  F > 0 makes the map strictly
increasing, so the inverse is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .shape import ShapeFunction


def physical_length(shape: ShapeFunction) -> float:
    """Equivalent uniform-rod length l = integral_0^L dxi / F(xi)."""
    return CoordinateMap.build(shape).l


@dataclass(frozen=True)
class CoordinateMap:
    """Cached, exact-per-panel form of the map x(xi) and its inverse.

    The cumulative integral of 1/F and its inverse have closed forms on
    every smooth panel of the three supported profile kinds (constant,
    constant segment, linear segment), so both directions are exact up to
    roundoff.
    """

    shape: ShapeFunction
    nodes_xi: np.ndarray
    nodes_x: np.ndarray

    @classmethod
    def build(cls, shape: ShapeFunction) -> "CoordinateMap":
        edges = shape.panel_edges()
        f0, df = _linear_panels(shape)
        increments = _reciprocal_integral(np.diff(edges), f0, df)
        xs = np.concatenate([[0.0], np.cumsum(increments)])
        return cls(shape=shape, nodes_xi=edges, nodes_x=xs)

    @property
    def l(self) -> float:
        """Image of the full span: x(L)."""
        return float(self.nodes_x[-1])

    @property
    def L(self) -> float:
        return self.shape.L

    def xi_to_x(self, xi: float) -> float:
        """Forward map; exact at panel nodes, closed form within panels."""
        if not 0.0 <= xi <= self.L:
            raise ValueError(f"coordinate {xi} outside [0, {self.L}]")
        i = int(np.searchsorted(self.nodes_xi, xi, side="right")) - 1
        i = min(max(i, 0), self.nodes_xi.size - 2)
        a, b = self.nodes_xi[i], self.nodes_xi[i + 1]
        f0, df = _linear_panels(self.shape)
        # F is linear on the panel, so over [a, xi] it changes by the
        # matching fraction of the whole panel's change.
        partial = _reciprocal_integral(xi - a, f0[i], df[i] * (xi - a) / (b - a))
        return float(self.nodes_x[i] + partial)

    def x_to_xi(self, x: float) -> float:
        """Inverse map; closed form within the located panel."""
        if not 0.0 <= x <= self.l * (1.0 + 1e-12):
            raise ValueError(f"coordinate {x} outside [0, {self.l}]")
        x = min(x, self.l)
        i = int(np.searchsorted(self.nodes_x, x, side="right")) - 1
        i = min(max(i, 0), self.nodes_x.size - 2)
        a, b = self.nodes_xi[i], self.nodes_xi[i + 1]
        f0, df = _linear_panels(self.shape)
        u = x - self.nodes_x[i]
        if df[i] == 0.0:
            offset = f0[i] * u
        else:
            # inverts u = w log1p(d s / (w f0)) / d, the partial integral
            # that xi_to_x evaluates, for the offset s into the panel
            w = b - a
            offset = w * f0[i] / df[i] * np.expm1(df[i] * u / w)
        # roundoff must not carry the result past the panel's right end
        return float(min(a + offset, b))


def _linear_panels(shape: ShapeFunction) -> tuple[np.ndarray, np.ndarray]:
    """F at the left end of every smooth panel and its change across it."""
    if shape.kind == "sampled":
        return shape.values[:-1], np.diff(shape.values)
    return shape.values, np.zeros_like(shape.values)


def _reciprocal_integral(
    w: np.ndarray | float, f0: np.ndarray | float, df: np.ndarray | float
) -> np.ndarray:
    """integral dt / F over width ``w`` where F runs linearly from ``f0`` to
    ``f0 + df``, in closed form; log1p keeps nearly flat panels exact."""
    flat = df == 0.0
    d = np.where(flat, 1.0, df)
    return np.where(flat, w / f0, w * np.log1p(d / f0) / d)
