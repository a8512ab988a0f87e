"""Profile representations, the section law, and the quadrature engine."""

from __future__ import annotations

import math

import numpy as np
import pytest

from twistrod.errors import QuadratureError
from twistrod.sampling import Lcg64, random_piecewise_shape
from twistrod.shape import (
    AreaProfile,
    CrossSectionLaw,
    RodSpec,
    ShapeFunction,
    area_profile,
    integrate,
    stiffness_from_area,
)

PIECEWISE_12 = ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 2.0])


class TestShapeConstruction:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            ShapeFunction.constant(0.0, 1.0)
        with pytest.raises(ValueError):
            ShapeFunction.constant(-1.0, 1.0)
        with pytest.raises(ValueError):
            ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, -2.0])
        with pytest.raises(ValueError):
            ShapeFunction.sampled([1.0, 0.0, 1.0], 1.0)

    def test_rejects_below_relative_floor(self):
        # min F must exceed 1e-9 of max F
        with pytest.raises(ValueError):
            ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 1e-10])
        ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 1e-8])  # just above: fine

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            ShapeFunction.constant(1.0, 0.0)
        with pytest.raises(ValueError):
            ShapeFunction.constant(1.0, -2.0)

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            ShapeFunction.piecewise([0.1, 0.5, 1.0], [1.0, 2.0])  # first != 0
        with pytest.raises(ValueError):
            ShapeFunction.piecewise([0.0, 0.5, 0.5, 1.0], [1.0, 2.0, 3.0])  # not strict
        with pytest.raises(ValueError):
            ShapeFunction.piecewise([0.0, 0.6, 0.5], [1.0, 2.0])  # decreasing
        with pytest.raises(ValueError):
            ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0])  # value count

    def test_rejects_short_sampled(self):
        with pytest.raises(ValueError):
            ShapeFunction.sampled([1.0], 1.0)


class TestEvaluate:
    def test_constant(self):
        assert ShapeFunction.constant(2.0, 1.0).evaluate(0.3) == 2.0

    def test_piecewise_segment_lookup(self):
        assert PIECEWISE_12.evaluate(0.25) == 1.0
        assert PIECEWISE_12.evaluate(0.75) == 2.0
        # half-open convention: right-continuous at the breakpoint
        assert PIECEWISE_12.evaluate(0.5) == 2.0
        assert PIECEWISE_12.evaluate(1.0) == 2.0

    def test_sampled_linear_ramp(self):
        grid = np.linspace(0.0, 1.0, 101)
        shape = ShapeFunction.sampled(1.0 + grid, 1.0)
        assert shape.evaluate(0.5) == pytest.approx(1.5, abs=1e-12)
        assert shape.evaluate(0.505) == pytest.approx(1.505, abs=1e-4)

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            PIECEWISE_12.evaluate(-0.1)
        with pytest.raises(ValueError):
            PIECEWISE_12.evaluate(1.1)

    def test_vectorized(self):
        out = PIECEWISE_12.evaluate(np.array([0.25, 0.75]))
        np.testing.assert_allclose(out, [1.0, 2.0])


class TestIntegrate:
    def test_const(self):
        assert integrate(lambda t: 1.0, 0.0, 3.0) == pytest.approx(3.0, rel=1e-14)

    def test_polynomial(self):
        assert integrate(lambda t: t * t, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_reciprocal_piecewise_exact(self):
        # 0.5/1 + 0.5/2 = 0.75, panel-by-panel evaluation is exact
        val = integrate(
            lambda t: 1.0 / PIECEWISE_12.evaluate(t),
            0.0,
            1.0,
            breakpoints=PIECEWISE_12.panel_edges(),
        )
        assert val == pytest.approx(0.75, abs=1e-15)

    def test_linearity_on_random_piecewise(self):
        rng = Lcg64(7)
        for _ in range(10):
            f_shape = random_piecewise_shape(rng)
            g_shape = random_piecewise_shape(rng)
            a, b = rng.log_uniform(0.5, 4.0), rng.log_uniform(0.5, 4.0)
            bp = np.union1d(f_shape.panel_edges(), g_shape.panel_edges())
            lin = integrate(
                lambda t: a * f_shape.evaluate(t) + b * g_shape.evaluate(t),
                0.0, 1.0, breakpoints=bp,
            )
            parts = a * integrate(f_shape.evaluate, 0.0, 1.0, breakpoints=bp) + b * integrate(
                g_shape.evaluate, 0.0, 1.0, breakpoints=bp
            )
            assert lin == pytest.approx(parts, rel=1e-12)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate(lambda t: 1.0, 1.0, 0.0)

    def test_nonconvergence_raises(self):
        with pytest.raises(QuadratureError) as err:
            integrate(lambda t: abs(t - 1 / math.pi) ** -0.99, 0.0, 1.0, tol=1e-13)
        assert math.isfinite(err.value.best_estimate)


class TestSectionLaw:
    def test_valid_exponents_only(self):
        for n in (1, 2, 3):
            CrossSectionLaw(n, 1.0)
        for n in (0, 4, -1):
            with pytest.raises(ValueError):
                CrossSectionLaw(n, 1.0)
        with pytest.raises(ValueError):
            CrossSectionLaw(2, 0.0)

    def test_solid_circle_coefficient(self):
        law = CrossSectionLaw.solid_circle()
        assert law.n == 2
        assert law.alpha == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)


class TestAreaProfile:
    def test_circle_identity(self):
        # solid circle of radius 1: J = pi/4 and A = pi satisfy J = A^2/(4 pi)
        spec = RodSpec(
            E=1.0,
            J_ref=math.pi / 4.0,
            shape=ShapeFunction.constant(1.0, 1.0),
            law=CrossSectionLaw.solid_circle(),
        )
        prof = area_profile(spec)
        assert prof.area(0.3) == pytest.approx(math.pi, rel=1e-14)
        assert prof.volume == pytest.approx(math.pi, rel=1e-12)

    def test_linear_law(self):
        spec = RodSpec(
            E=1.0,
            J_ref=3.0,
            shape=ShapeFunction.constant(1.0, 2.0),
            law=CrossSectionLaw(1, 1.0),
        )
        prof = area_profile(spec)
        assert prof.area(1.0) == pytest.approx(3.0, rel=1e-14)
        assert prof.volume == pytest.approx(6.0, rel=1e-12)

    def test_cube_root(self):
        spec = RodSpec(
            E=1.0,
            J_ref=1.0,
            shape=ShapeFunction.constant(8.0, 1.0),
            law=CrossSectionLaw(3, 1.0),
        )
        prof = area_profile(spec)
        assert prof.area(0.5) == pytest.approx(2.0, rel=1e-14)
        assert prof.volume == pytest.approx(2.0, rel=1e-12)

    def test_stiffness_roundtrip(self):
        rng = Lcg64(11)
        for n in (1, 2, 3):
            for _ in range(5):
                shape = random_piecewise_shape(rng)
                spec = RodSpec(E=1.0, J_ref=1.7, shape=shape, law=CrossSectionLaw(n, 0.8))
                back = stiffness_from_area(area_profile(spec), spec.J_ref, spec.law)
                np.testing.assert_allclose(back.values, shape.values, rtol=1e-12)

    def test_volume_scaling_with_stiffness(self):
        # A ~ F^(1/n), so scaling F by lam scales V by lam^(1/n)
        rng = Lcg64(13)
        shape = random_piecewise_shape(rng)
        for n in (1, 2, 3):
            law = CrossSectionLaw(n, 1.0)
            lam = 2.7
            v0 = area_profile(RodSpec(E=1.0, J_ref=1.0, shape=shape, law=law)).volume
            v1 = area_profile(RodSpec(E=1.0, J_ref=1.0, shape=shape.scaled(lam), law=law)).volume
            assert v1 == pytest.approx(lam ** (1.0 / n) * v0, rel=1e-12)

    def test_piecewise_constructor_volume(self):
        prof = AreaProfile.piecewise([0.0, 0.5, 1.0], [1.0, 3.0])
        assert prof.volume == pytest.approx(2.0, rel=1e-15)
        assert prof.mean_area == pytest.approx(2.0, rel=1e-15)
        assert prof.max_relative_deviation() == pytest.approx(0.5, rel=1e-12)

    def test_sampled_deviation_at_panel_ends(self):
        # A = 1 + xi peaks at the far end: (2 - 1.5) / 1.5
        shape = ShapeFunction.sampled([1.0, 1.5, 2.0], 1.0)
        prof = area_profile(RodSpec(E=1.0, J_ref=1.0, shape=shape, law=CrossSectionLaw(1, 1.0)))
        assert prof.max_relative_deviation() == pytest.approx(1.0 / 3.0, rel=1e-12)


class TestRodSpec:
    def test_rejects_nonpositive(self):
        shape = ShapeFunction.constant(1.0, 1.0)
        law = CrossSectionLaw(1, 1.0)
        with pytest.raises(ValueError):
            RodSpec(E=0.0, J_ref=1.0, shape=shape, law=law)
        with pytest.raises(ValueError):
            RodSpec(E=1.0, J_ref=-1.0, shape=shape, law=law)

    def test_stiffness_profile(self):
        spec = RodSpec(E=2.0, J_ref=3.0, shape=PIECEWISE_12, law=CrossSectionLaw(1, 1.0))
        assert spec.stiffness(0.25) == pytest.approx(6.0)
        assert spec.stiffness(0.75) == pytest.approx(12.0)


class TestJsonDescriptors:
    def test_shape_roundtrip(self):
        for shape in (
            ShapeFunction.constant(2.0, 3.0),
            PIECEWISE_12,
            ShapeFunction.sampled([1.0, 2.0, 1.5], 2.0),
        ):
            again = ShapeFunction.from_dict(shape.to_dict())
            assert again.kind == shape.kind
            assert again.L == shape.L
            np.testing.assert_array_equal(again.values, shape.values)

    def test_law_roundtrip(self):
        law = CrossSectionLaw(2, 0.25)
        assert CrossSectionLaw.from_dict(law.to_dict()) == law

    def test_malformed_descriptors(self):
        with pytest.raises(ValueError):
            ShapeFunction.from_dict({"L": 1.0})
        with pytest.raises(ValueError):
            ShapeFunction.from_dict({"kind": "spline", "L": 1.0, "values": [1.0]})
        with pytest.raises(ValueError):
            ShapeFunction.from_dict({"kind": "piecewise", "values": [1.0]})
        with pytest.raises(ValueError):
            CrossSectionLaw.from_dict({"n": 2})
