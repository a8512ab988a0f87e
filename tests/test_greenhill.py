"""Critical torque values and closed-form buckling modes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from twistrod.errors import EigenvalueConsistencyError
from twistrod.greenhill import (
    _critical_torques,
    critical_torque,
    critical_torque_constant,
    critical_torque_value,
    mode_shape,
)
from twistrod.oracle import critical_torque_oracle
from twistrod.sampling import Lcg64, random_piecewise_shape
from twistrod.shape import CrossSectionLaw, RodSpec, ShapeFunction, integrate
from twistrod.transform import _lengths, physical_length

from shape_cases import random_sampled_shape

LAW = CrossSectionLaw(1, 1.0)


def rod(shape: ShapeFunction, E: float = 1.0, J_ref: float = 1.0) -> RodSpec:
    return RodSpec(E=E, J_ref=J_ref, shape=shape, law=LAW)


UNIFORM = rod(ShapeFunction.constant(1.0, 1.0))
DOUBLE = rod(ShapeFunction.constant(2.0, 1.0))
PIECEWISE = rod(ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 2.0]))


class TestConstantCase:
    def test_unit_rod(self):
        assert critical_torque_constant(1.0, 1.0, 1.0) == pytest.approx(
            2.0 * math.pi, rel=1e-15
        )

    def test_unit_stiffness_ratio(self):
        # E*J/l = 2*3/6 = 1
        assert critical_torque_constant(2.0, 3.0, 6.0) == pytest.approx(
            2.0 * math.pi, rel=1e-15
        )

    def test_second_mode_against_oracle(self):
        # the bracket (7, 14) contains only the second eigenvalue 4*pi
        assert critical_torque_constant(1.0, 1.0, 1.0, k=2) == pytest.approx(
            4.0 * math.pi, rel=1e-15
        )
        from_oracle = critical_torque_oracle(UNIFORM, bracket=(7.0, 14.0))
        assert from_oracle == pytest.approx(4.0 * math.pi, rel=1e-8)

    def test_rejects_bad_input(self):
        for bad in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)]:
            with pytest.raises(ValueError):
                critical_torque_constant(*bad)
        with pytest.raises(ValueError):
            critical_torque_constant(1.0, 1.0, 1.0, k=0)
        for k in (0, 1.5):
            with pytest.raises(ValueError, match="mode index"):
                critical_torque_value(UNIFORM, k)


class TestVariableProfile:
    def test_uniform_reduces_to_constant_case(self):
        assert critical_torque(UNIFORM).M_crit == pytest.approx(2.0 * math.pi, rel=1e-14)

    def test_doubled_stiffness(self):
        # equivalent uniform length is 1/2, so the torque doubles
        assert critical_torque(DOUBLE).M_crit == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_piecewise_hand_value(self):
        # reciprocal integral = 3/4 -> M* = 8*pi/3
        assert critical_torque(PIECEWISE).M_crit == pytest.approx(
            8.0 * math.pi / 3.0, rel=1e-13
        )

    def test_agrees_with_constant_formula_via_length(self):
        # the length comes from adaptive quadrature, independent of the engine
        rng = Lcg64(31)
        for _ in range(10):
            for shape in (random_piecewise_shape(rng), random_sampled_shape(rng)):
                spec = rod(shape)
                l = integrate(
                    lambda t: 1.0 / shape(t), 0.0, shape.L, breakpoints=shape.panel_edges()
                )
                expected = critical_torque_constant(spec.E, spec.J_ref, l)
                assert critical_torque_value(spec) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("slope", [1e-6, 1e-8, 1e-10, 1e-13])
    def test_nearly_flat_sampled_rod(self, slope):
        # the torque and the mode grid share one length, so the returned
        # torque is an eigenvalue of the mode however flat the panels are
        shape = ShapeFunction.sampled([1.0, 1.0 + slope, 1.0 + 2.0 * slope, 1.3])
        spec = RodSpec(E=1.0, J_ref=1.0, shape=shape, law=CrossSectionLaw(2, 0.1))
        result = critical_torque(spec)
        assert result.M_crit == pytest.approx(critical_torque_value(spec), rel=0.0)
        assert result.mode.x[-1] == pytest.approx(physical_length(shape), rel=0.0)

    def test_scaling_laws(self):
        rng = Lcg64(37)
        spec = rod(random_piecewise_shape(rng))
        base = critical_torque_value(spec)
        lam = 1.9
        assert critical_torque_value(rod(spec.shape.scaled(lam))) == pytest.approx(
            lam * base, rel=1e-12
        )
        assert critical_torque_value(rod(spec.shape, E=lam)) == pytest.approx(
            lam * base, rel=1e-12
        )

    def test_domain_stretch(self):
        # L -> s L with F(xi) -> F(xi/s) divides the torque by s
        s = 2.5
        stretched = ShapeFunction.piecewise(
            [0.0, 0.5 * s, 1.0 * s], PIECEWISE.shape.values
        )
        assert critical_torque_value(rod(stretched)) == pytest.approx(
            critical_torque_value(PIECEWISE) / s, rel=1e-12
        )

    def test_higher_modes(self):
        assert critical_torque_value(UNIFORM, mode_index=3) == pytest.approx(
            6.0 * math.pi, rel=1e-14
        )


class TestBatchedClosedForm:
    """Many rods' torques from one pass over their stacked panel tables."""

    def test_same_floats_as_one_rod_at_a_time(self):
        # every profile kind, 1 to 300 panels side by side, contrast down
        # to 1e-8 and SI-scale magnitudes
        rng = Lcg64(35)
        shapes = [ShapeFunction.constant(1.0), ShapeFunction.constant(1e-8, 3.0), ShapeFunction.sampled([1.0, 2.0])]
        shapes += [random_piecewise_shape(rng) for _ in range(5)] + [random_sampled_shape(rng) for _ in range(5)]
        values = np.random.default_rng(35)
        for nodes, lo in ((10, 1e-3), (130, 1e-8), (301, 0.5)):
            shapes.append(ShapeFunction.sampled(np.exp(values.uniform(np.log(lo), 0.0, nodes)), 2.5))
            breakpoints = np.concatenate([[0.0], np.sort(values.uniform(0.0, 4.0, nodes - 2)), [4.0]])
            shapes.append(ShapeFunction.piecewise(breakpoints, np.exp(values.uniform(np.log(lo), 0.0, nodes - 1))))
        specs = [rod(shape) for shape in shapes] + [rod(shape, E=2e11, J_ref=1e-8) for shape in shapes[::-1]]
        assert {shape.panels()[1].size for shape in shapes} >= {1, 9, 129, 300}
        assert _lengths([spec.shape for spec in specs]) == [physical_length(spec.shape) for spec in specs]
        assert _critical_torques(specs) == [critical_torque_value(spec) for spec in specs]
        assert _critical_torques(specs[:1]) == [critical_torque_value(specs[0])]
        assert _critical_torques([]) == []


class TestModeShape:
    def test_closed_form_uniform_rod(self):
        # w(x) = (1/(2 pi i)) (1 - exp(-2 pi i x)); normalized peak is 1 at x=1/2,
        # giving y = sin(2 pi x)/2 and z = -(1 - cos(2 pi x))/2
        mode = mode_shape(UNIFORM, 2.0 * math.pi, 1.0, 0.0, grid_size=9)
        x = mode.x
        np.testing.assert_allclose(mode.y, np.sin(2 * np.pi * x) / 2.0, atol=1e-14)
        np.testing.assert_allclose(mode.z, -(1 - np.cos(2 * np.pi * x)) / 2.0, atol=1e-14)

    def test_boundary_conditions(self):
        for spec in (UNIFORM, DOUBLE, PIECEWISE):
            mode = critical_torque(spec).mode
            amp = float(np.max(mode.amplitude()))
            for v in (mode.y[0], mode.z[0], mode.y[-1], mode.z[-1]):
                assert abs(v) <= 1e-9 * amp

    def test_normalization(self):
        mode = critical_torque(PIECEWISE).mode
        assert float(np.max(mode.amplitude())) == pytest.approx(1.0, rel=1e-15)

    def test_zero_constants_rejected(self):
        with pytest.raises(ValueError):
            mode_shape(UNIFORM, 2.0 * math.pi, 0.0, 0.0)

    def test_single_sample_grid_rejected(self):
        with pytest.raises(ValueError, match="two samples"):
            mode_shape(UNIFORM, 2.0 * math.pi, grid_size=1)

    def test_non_eigenvalue_rejected(self):
        with pytest.raises(EigenvalueConsistencyError):
            mode_shape(UNIFORM, 1.1 * 2.0 * math.pi, 1.0, 0.0)

    def test_endpoint_tolerance_from_both_sides(self):
        # off the eigenvalue by a relative eps, the endpoint residual is about
        # pi eps of the amplitude: 2e-9 is inside ENDPOINT_TOL = 1e-8, 5e-9 not
        mode_shape(UNIFORM, 2.0 * math.pi * (1.0 + 2e-9), 1.0, 0.0)
        with pytest.raises(EigenvalueConsistencyError):
            mode_shape(UNIFORM, 2.0 * math.pi * (1.0 + 5e-9), 1.0, 0.0)

    def test_linearity_in_constants(self):
        # doubling c doubles the raw mode; after normalization everything matches
        a = mode_shape(UNIFORM, 2.0 * math.pi, 1.0, 0.0)
        b = mode_shape(UNIFORM, 2.0 * math.pi, 2.0, 0.0)
        np.testing.assert_allclose(b.y, a.y, atol=1e-15)
        np.testing.assert_allclose(b.z, a.z, atol=1e-15)
        assert b.c1 == pytest.approx(a.c1, rel=1e-15)

    def test_rotating_constants_rotates_mode(self):
        a = mode_shape(UNIFORM, 2.0 * math.pi, 1.0, 0.0)
        b = mode_shape(UNIFORM, 2.0 * math.pi, 0.0, 1.0)
        # c = i rotates the complex deflection by 90 degrees
        np.testing.assert_allclose(b.y, -a.z, atol=1e-15)
        np.testing.assert_allclose(b.z, a.y, atol=1e-15)


def balance_residual(spec: RodSpec, grid_size: int) -> float:
    """Max residual of the once-integrated balance under centered differences,
    in units of M * amplitude (the displacement-equivalent scale)."""
    res = critical_torque(spec, mode_grid_size=grid_size)
    mode, M = res.mode, res.M_crit
    EJ = spec.E * spec.J_ref
    h = mode.x[1] - mode.x[0]
    dy = (mode.y[2:] - mode.y[:-2]) / (2.0 * h)
    dz = (mode.z[2:] - mode.z[:-2]) / (2.0 * h)
    ry = EJ * dy - (M * mode.z[1:-1] + mode.c1)
    rz = EJ * dz - (-M * mode.y[1:-1] + mode.c2)
    amp = float(np.max(mode.amplitude()))
    return max(float(np.max(np.abs(ry))), float(np.max(np.abs(rz)))) / (M * amp)


class TestBalanceResidual:
    def test_second_order_decay(self):
        for spec in (UNIFORM, PIECEWISE):
            coarse = balance_residual(spec, 513)
            fine = balance_residual(spec, 1025)
            assert coarse / fine == pytest.approx(4.0, rel=0.05)


class TestCsvExport:
    def test_header_and_roundtrip(self, tmp_path):
        mode = critical_torque(UNIFORM, mode_grid_size=33).mode
        path = tmp_path / "mode.csv"
        mode.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,y,z"
        data = np.loadtxt(lines[1:], delimiter=",")
        np.testing.assert_array_equal(data[:, 0], mode.x)
        np.testing.assert_array_equal(data[:, 1], mode.y)
        np.testing.assert_array_equal(data[:, 2], mode.z)
