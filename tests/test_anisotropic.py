"""Distinct principal inertias: reduction and independent shooting check."""

from __future__ import annotations

import math

import numpy as np
import pytest

from twistrod.anisotropic import (
    AnisotropicRodSpec,
    AnisotropicSection,
    effective_inertia,
    first_root_anisotropic,
    mode_to_anisotropic,
    reduce_to_isotropic,
    shoot_anisotropic,
)
from twistrod.errors import RootSearchError
from twistrod.greenhill import critical_torque, critical_torque_value
from twistrod.oracle import shoot
from twistrod.sampling import Lcg64, random_anisotropic_spec
from twistrod.shape import CrossSectionLaw, ShapeFunction

from shape_cases import random_sampled_shape

LAW = CrossSectionLaw(2, 1.0 / (4.0 * math.pi))
UNIT_SHAPE = ShapeFunction.constant(1.0, 1.0)


def aniso(Jy: float, Jz: float, shape: ShapeFunction = UNIT_SHAPE) -> AnisotropicRodSpec:
    return AnisotropicRodSpec(
        E=1.0, section=AnisotropicSection(Jy=Jy, Jz=Jz), shape=shape, law=LAW
    )


class TestSection:
    def test_effective_inertia_values(self):
        assert effective_inertia(AnisotropicSection(1.0, 1.0)) == 1.0
        assert effective_inertia(AnisotropicSection(4.0, 1.0)) == 2.0
        assert effective_inertia(AnisotropicSection(9.0, 4.0)) == 6.0

    def test_ratio(self):
        assert AnisotropicSection(4.0, 1.0).k == 4.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            AnisotropicSection(0.0, 1.0)
        with pytest.raises(ValueError):
            AnisotropicSection(1.0, -1.0)

    def test_rejects_nonfinite(self):
        for Jy, Jz in ((math.nan, 1.0), (1.0, math.inf), (math.nan, math.inf), (math.inf, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                AnisotropicSection(Jy, Jz)

    def test_spec_rejects_bad_modulus(self):
        section = AnisotropicSection(1.0, 2.0)
        for E in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="Young's modulus"):
                AnisotropicRodSpec(E=E, section=section, shape=UNIT_SHAPE, law=LAW)


class TestReduction:
    def test_isotropic_limit_unchanged(self):
        spec = aniso(1.5, 1.5)
        reduced = reduce_to_isotropic(spec)
        assert reduced.J_ref == pytest.approx(1.5, rel=1e-15)
        assert reduced.E == spec.E
        assert reduced.shape is spec.shape
        assert reduced.law is spec.law

    def test_geometric_mean_inertia(self):
        spec = aniso(4.0, 1.0)
        reduced = reduce_to_isotropic(spec)
        assert reduced.J_ref == 2.0
        # uniform profile with J = 2 buckles at 4 pi
        assert critical_torque_value(reduced) == pytest.approx(4.0 * math.pi, rel=1e-13)

    def test_mode_map_roundtrip(self):
        mode = critical_torque(reduce_to_isotropic(aniso(4.0, 1.0))).mode
        back = mode_to_anisotropic(mode_to_anisotropic(mode, 4.0), 0.25)
        np.testing.assert_allclose(back.y, mode.y, atol=1e-14)
        np.testing.assert_allclose(back.z, mode.z, atol=1e-14)
        np.testing.assert_allclose(back.c1, mode.c1, rtol=1e-13)

    def test_back_mapped_mode_satisfies_anisotropic_balance(self):
        spec = aniso(4.0, 1.0)
        result = critical_torque(reduce_to_isotropic(spec), mode_grid_size=4097)
        mode, M = mode_to_anisotropic(result.mode, spec.section.k), result.M_crit
        # in the stretched coordinate the unreduced balance reads
        # E Jz Y' = M Z + c1 and E Jy Z' = -M Y + c2 with the rescaled
        # constants stored on the mode
        h = mode.x[1] - mode.x[0]
        dy = (mode.y[2:] - mode.y[:-2]) / (2.0 * h)
        dz = (mode.z[2:] - mode.z[:-2]) / (2.0 * h)
        ry = spec.E * spec.section.Jz * dy - (M * mode.z[1:-1] + mode.c1)
        rz = spec.E * spec.section.Jy * dz - (-M * mode.y[1:-1] + mode.c2)
        amp = float(np.max(mode.amplitude()))
        assert max(np.max(np.abs(ry)), np.max(np.abs(rz))) / (M * amp) <= 1e-6


class TestShootAnisotropic:
    def test_isotropic_limit_bit_for_bit(self):
        spec = aniso(1.3, 1.3, ShapeFunction.piecewise([0.0, 0.4, 1.0], [1.0, 2.5]))
        iso_spec = reduce_to_isotropic(spec)
        for M in (1.0, 3.0, 7.0):
            a = shoot_anisotropic(spec, M, steps=512)
            b = shoot(iso_spec, M, steps=512)
            np.testing.assert_array_equal(a.S, b.S)
            assert a.det == b.det

    def test_determinant_nonnegative_structure(self):
        spec = aniso(4.0, 1.0)
        for M in np.linspace(1.0, 20.0, 9):
            assert shoot_anisotropic(spec, M, steps=1024).det >= -1e-12

    def test_rejects_bad_torque(self):
        with pytest.raises(ValueError):
            shoot_anisotropic(aniso(1.0, 2.0), 0.0)


class TestFirstRoot:
    def test_four_to_one_ratio(self):
        # Jy=4, Jz=1 behaves like J = 2: first root at 4 pi
        found = first_root_anisotropic(aniso(4.0, 1.0))
        assert found == pytest.approx(4.0 * math.pi, rel=1e-6)

    def test_ratio_sweep_fixed_product(self):
        # Jy * Jz = 1 throughout: the root must stay at 2 pi
        for k in (0.25, 1.0, 4.0):
            spec = aniso(math.sqrt(k), 1.0 / math.sqrt(k))
            found = first_root_anisotropic(spec)
            assert found == pytest.approx(2.0 * math.pi, rel=1e-6)

    def test_random_cases_match_reduction(self):
        rng = Lcg64(89)
        for _ in range(5):
            spec = random_anisotropic_spec(rng)
            sampled = AnisotropicRodSpec(spec.E, spec.section, random_sampled_shape(rng), spec.law)
            for case in (spec, sampled):
                reduced_value = critical_torque_value(reduce_to_isotropic(case))
                found = first_root_anisotropic(case, steps=2048)
                assert found == pytest.approx(reduced_value, rel=1e-6)

    def test_no_crossing_reports_trace_range(self):
        with pytest.raises(RootSearchError, match="no upward trace crossing"):
            first_root_anisotropic(aniso(1.0, 1.0), bracket=(1.0, 5.0))

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            first_root_anisotropic(aniso(1.0, 1.0), bracket=(2.0, 1.0))
