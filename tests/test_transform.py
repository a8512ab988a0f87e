"""Coordinate map between the rod span and the uniform-coefficient axis."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from twistrod.sampling import Lcg64, random_piecewise_shape
from twistrod.shape import ShapeFunction, integrate
from twistrod.transform import CoordinateMap, physical_length

from shape_cases import random_sampled_shape

PIECEWISE_12 = ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 2.0])


class TestPhysicalLength:
    def test_identity(self):
        assert physical_length(ShapeFunction.constant(1.0, 1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_halved(self):
        assert physical_length(ShapeFunction.constant(2.0, 1.0)) == pytest.approx(0.5, rel=1e-14)

    def test_piecewise(self):
        # 0.5/1 + 0.5/2 = 0.75
        assert physical_length(PIECEWISE_12) == pytest.approx(0.75, abs=1e-15)

    def test_scaling(self):
        rng = Lcg64(3)
        for _ in range(5):
            shape = random_piecewise_shape(rng)
            lam = rng.log_uniform(0.5, 4.0)
            assert physical_length(shape.scaled(lam)) == pytest.approx(
                physical_length(shape) / lam, rel=1e-12
            )


class TestForwardMap:
    def test_identity_profile(self):
        m = CoordinateMap.build(ShapeFunction.constant(1.0, 1.0))
        assert m.xi_to_x(0.3) == pytest.approx(0.3, rel=1e-14)

    def test_constant_two(self):
        m = CoordinateMap.build(ShapeFunction.constant(2.0, 1.0))
        assert m.xi_to_x(1.0) == pytest.approx(0.5, rel=1e-14)

    def test_piecewise_hand_value(self):
        # x(0.75) = 0.5/1 + 0.25/2 = 0.625
        m = CoordinateMap.build(PIECEWISE_12)
        assert m.xi_to_x(0.75) == pytest.approx(0.625, abs=1e-15)

    def test_endpoints_exact(self):
        rng = Lcg64(5)
        for _ in range(5):
            m = CoordinateMap.build(random_piecewise_shape(rng))
            assert m.xi_to_x(0.0) == 0.0
            assert m.xi_to_x(m.shape.L) == m.l

    def test_monotone(self):
        rng = Lcg64(9)
        shape = random_piecewise_shape(rng)
        m = CoordinateMap.build(shape)
        xi = np.sort(list({rng.uniform() * shape.L for _ in range(50)}))
        xs = [m.xi_to_x(t) for t in xi]
        assert np.all(np.diff(xs) > 0)

    def test_domain_errors(self):
        m = CoordinateMap.build(PIECEWISE_12)
        with pytest.raises(ValueError):
            m.xi_to_x(-0.1)
        with pytest.raises(ValueError):
            m.xi_to_x(1.01)

    def test_matches_physical_length(self):
        # adaptive quadrature is the independent witness of the closed form
        rng = Lcg64(17)
        for _ in range(10):
            for shape in (random_piecewise_shape(rng), random_sampled_shape(rng)):
                witness = integrate(
                    lambda t: 1.0 / shape(t), 0.0, shape.L, breakpoints=shape.panel_edges()
                )
                assert CoordinateMap.build(shape).l == pytest.approx(witness, rel=1e-12)
                assert physical_length(shape) == pytest.approx(witness, rel=1e-12)

    @pytest.mark.parametrize(
        "values", [[1.0, 1e-8], [1.0, 1.0, 1.0, 1.0, 1e-5, 1.0, 1.0, 1.0], [1e-4, 1.0, 1e-4]]
    )
    def test_steep_panels_against_decimal(self, values):
        # w log(f1/f0) / (f1 - f0) per panel (w / f0 if flat) at 50 digits,
        # on the float edges
        shape = ShapeFunction.sampled(values, 1.0)
        edges = [Decimal(e) for e in shape.panel_edges().tolist()]
        nodes = [Decimal(v) for v in values]
        with localcontext() as ctx:
            ctx.prec = 50
            reference = Decimal(0)
            for a, b, f0, f1 in zip(edges[:-1], edges[1:], nodes[:-1], nodes[1:]):
                reference += (b - a) / f0 if f0 == f1 else (b - a) * (f1 / f0).ln() / (f1 - f0)
            error = abs(Decimal(CoordinateMap.build(shape).l) - reference) / reference
        assert error <= Decimal("1e-15")

    def test_quadrature_converges_at_contrast_1e8(self):
        # 1/F evaluated from the nearer node stays smooth enough for 1e-12
        shape = ShapeFunction.sampled([1.0, 1e-8], 1.0)
        witness = integrate(
            lambda t: 1.0 / shape(t), 0.0, shape.L, tol=1e-12, breakpoints=shape.panel_edges()
        )
        assert witness == pytest.approx(CoordinateMap.build(shape).l, rel=1e-11)

    @pytest.mark.parametrize("slope", [1e-6, 1e-8, 1e-10, 1e-13])
    def test_nearly_flat_sampled_panels(self, slope):
        # log(f1/f0) cancels when f1 ~ f0; the panel integral must not
        values = [1.0, 1.0 + slope, 1.0 + 2.0 * slope, 1.3]
        h = 1.0 / 3.0
        reference = 0.0
        for f0, f1 in zip(values[:-1], values[1:]):
            d = f1 - f0
            reference += h * math.log1p(d / f0) / d
        m = CoordinateMap.build(ShapeFunction.sampled(values, 1.0))
        assert m.l == pytest.approx(reference, rel=1e-13)
        assert m.xi_to_x(1.0 / 3.0) == pytest.approx(h * math.log1p(slope) / slope, rel=1e-13)

    def test_sampled_profile_closed_form(self):
        # F = 1 + xi on [0, 1]: x(xi) = log(1 + xi)
        grid = np.linspace(0.0, 1.0, 401)
        m = CoordinateMap.build(ShapeFunction.sampled(1.0 + grid, 1.0))
        for t in (0.25, 0.5, 1.0):
            assert m.xi_to_x(t) == pytest.approx(np.log1p(t), rel=1e-6)


class TestInverseMap:
    def test_identity_profile(self):
        m = CoordinateMap.build(ShapeFunction.constant(1.0, 1.0))
        assert m.x_to_xi(0.3) == pytest.approx(0.3, rel=1e-12)

    def test_constant_two(self):
        m = CoordinateMap.build(ShapeFunction.constant(2.0, 1.0))
        assert m.x_to_xi(0.5) == pytest.approx(1.0, rel=1e-12)

    def test_piecewise_hand_value(self):
        m = CoordinateMap.build(PIECEWISE_12)
        assert m.x_to_xi(0.625) == pytest.approx(0.75, rel=1e-12)

    def test_domain_errors(self):
        m = CoordinateMap.build(PIECEWISE_12)
        with pytest.raises(ValueError):
            m.x_to_xi(-1e-6)
        with pytest.raises(ValueError):
            m.x_to_xi(m.l + 1e-6)

    def test_roundtrip_random(self):
        rng = Lcg64(23)
        for _ in range(10):
            shape = random_piecewise_shape(rng)
            m = CoordinateMap.build(shape)
            for _ in range(10):
                xi = rng.uniform() * shape.L
                back = m.x_to_xi(m.xi_to_x(xi))
                assert back == pytest.approx(xi, rel=1e-10, abs=1e-12)

    def test_roundtrip_sampled(self):
        grid = np.linspace(0.0, 1.0, 101)
        rng = Lcg64(29)
        for shape in (
            ShapeFunction.sampled(1.0 + 0.5 * np.sin(6 * grid) + grid, 1.0),
            ShapeFunction.sampled([1.0, 1e-8], 1.0),
        ):
            m = CoordinateMap.build(shape)
            for _ in range(50):
                xi = rng.uniform()
                assert m.x_to_xi(m.xi_to_x(xi)) == pytest.approx(xi, rel=1e-10, abs=1e-12)
