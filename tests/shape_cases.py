"""Seeded profiles shared by the cross-validation tests."""

from __future__ import annotations

from twistrod.sampling import Lcg64
from twistrod.shape import ShapeFunction


def random_sampled_shape(rng: Lcg64) -> ShapeFunction:
    """Unit-span sampled profile: 2-9 grid values in [0.5, 4]."""
    return ShapeFunction.sampled([rng.log_uniform(0.5, 4.0) for _ in range(rng.integer(2, 9))])
