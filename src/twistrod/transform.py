"""Change of independent variable between the rod span and the stretched
coordinate in which the twist equations have uniform coefficients.

The rod spans xi in [0, L] with stiffness profile F(xi).  The map

    x(xi) = integral_0^xi dt / F(t)

sends it to x in [0, l], l = x(L); a rod of uniform reference stiffness
and length l buckles at the same torque.  F > 0 makes the map strictly
increasing, so the inverse is well defined.

The map is summed in closed form over the profile's panel table
(``ShapeFunction.panels``); nothing here depends on the profile's kind.
:func:`_lengths` sums it for many profiles in one pass, to the same
floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .shape import ShapeFunction, _ArrayRecord, _stacked_panels


def physical_length(shape: ShapeFunction) -> float:
    """Equivalent uniform-rod length l = integral_0^L dxi / F(xi)."""
    return CoordinateMap.build(shape).l


@dataclass(frozen=True, eq=False)
class CoordinateMap(_ArrayRecord):
    """Cached, exact-per-panel form of the map x(xi) and its inverse.

    F is constant or linear on every panel of the profile's panel table
    (:meth:`ShapeFunction.panels`), so the cumulative integral of 1/F and
    its inverse have closed forms there and both directions are exact up
    to roundoff.  ``nodes_x`` (read-only) is x at the panel edges; maps
    compare and hash by value.
    """

    shape: ShapeFunction
    nodes_x: np.ndarray

    _arrays = ("nodes_x",)

    @classmethod
    def build(cls, shape: ShapeFunction) -> "CoordinateMap":
        edges, left, right = shape.panels()
        xs = _nodes_x(_reciprocal_integral(np.diff(edges), left, right))
        xs.setflags(write=False)
        return cls(shape=shape, nodes_x=xs)

    @property
    def l(self) -> float:
        """Image of the full span: x(L)."""
        return float(self.nodes_x[-1])

    def xi_to_x(self, xi: float) -> float:
        """Forward map; exact at panel nodes, closed form within panels."""
        if not 0.0 <= xi <= self.shape.L:
            raise ValueError(f"coordinate {xi} outside [0, {self.shape.L}]")
        edges, left, _ = self.shape.panels()
        i = min(int(np.searchsorted(edges, xi, side="right")) - 1, edges.size - 2)
        # F is linear on the panel, so [a, xi] is a panel from F(a) to F(xi)
        partial = _reciprocal_integral(xi - edges[i], left[i], self.shape(xi))
        return float(self.nodes_x[i] + partial)

    def x_to_xi(self, x: float) -> float:
        """Inverse map; closed form within the located panel."""
        if not 0.0 <= x <= self.l * (1.0 + 1e-12):
            raise ValueError(f"coordinate {x} outside [0, {self.l}]")
        x = min(x, self.l)
        i = min(int(np.searchsorted(self.nodes_x, x, side="right")) - 1, self.nodes_x.size - 2)
        edges, left, right = self.shape.panels()
        a, b = edges[i], edges[i + 1]
        f0, d = left[i], right[i] - left[i]
        u = x - self.nodes_x[i]
        if d == 0.0:
            offset = f0 * u
        else:
            # inverts u = w log(F(a + s) / f0) / d, the partial integral
            # that xi_to_x evaluates, for the offset s into the panel
            w = b - a
            offset = w * f0 / d * np.expm1(d * u / w)
        # roundoff must not carry the result past the panel's right end
        return float(min(a + offset, b))


def _nodes_x(increments: np.ndarray) -> np.ndarray:
    """x at the panel edges from the panel integrals of 1/F along the last
    axis of ``increments``: 0, then their sums from the left (``np.cumsum``,
    so zeros after the last panel add nothing)."""
    xs = np.zeros((*increments.shape[:-1], increments.shape[-1] + 1))
    np.cumsum(increments, axis=-1, out=xs[..., 1:])
    return xs


def _lengths(shapes: Sequence[ShapeFunction]) -> list[float]:
    """:func:`physical_length` of each of ``shapes``, the same floats, from
    one pass over their stacked panel tables."""
    if not shapes:
        return []
    panels = _stacked_panels(shapes)
    increments = _reciprocal_integral(panels.widths, panels.left, panels.right)
    return _nodes_x(np.where(panels.own, increments[panels.rows], 0.0))[:, -1].tolist()


def _reciprocal_integral(
    w: np.ndarray | float, f0: np.ndarray | float, f1: np.ndarray | float
) -> np.ndarray:
    """integral dt / F over width ``w`` where F runs linearly from ``f0`` to
    ``f1``: ``w log(f1 / f0) / (f1 - f0)``, the log as ``log1p((f1 - f0) / f0)``
    where f0/2 <= f1 <= 2 f0 (the difference is exact there, by Sterbenz's
    lemma, which keeps nearly flat panels exact) and ``log(f1 / f0)`` on
    steeper panels, whose rounded difference would lose the ratio."""
    d, ratio = f1 - f0, f1 / f0
    flat = d == 0.0
    # rounding is monotone and 1/2, 2 are floats: the test on the rounded
    # ratio is the test on f1 against f0/2 and 2 f0
    near = (0.5 <= ratio) & (ratio <= 2.0)
    log_ratio = np.where(near, np.log1p(d / f0), np.log(ratio))
    return np.where(flat, w / f0, w * log_ratio / np.where(flat, 1.0, d))
