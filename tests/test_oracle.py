"""Shooting eigensolver: endpoint matrix, root search, convergence order."""

from __future__ import annotations

import ast
import cmath
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import twistrod
from twistrod import oracle
from twistrod.errors import RootSearchError
from twistrod.greenhill import critical_torque_value
from twistrod.oracle import (
    DEFAULT_PROBES,
    build_step_grid,
    convergence_study,
    critical_torque_oracle,
    eigenvalues_in,
    propagate,
    shoot,
)
from twistrod.sampling import Lcg64, random_piecewise_shape
from twistrod.shape import CrossSectionLaw, RodSpec, ShapeFunction
from twistrod.transform import physical_length

from shape_cases import random_sampled_shape

LAW = CrossSectionLaw(1, 1.0)


def rod(shape: ShapeFunction) -> RodSpec:
    return RodSpec(E=1.0, J_ref=1.0, shape=shape, law=LAW)


UNIFORM = rod(ShapeFunction.constant(1.0, 1.0))
DOUBLE = rod(ShapeFunction.constant(2.0, 1.0))
PIECEWISE = rod(ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 2.0]))


def reference_endpoint(shape, E, J_y, J_z, M, c1, c2, steps=4096):
    """Scalar classical RK4 for y' = (M z + c1) gz, z' = (c2 - M y) gy from
    (0, 0), one step at a time on the oracle's step placement."""
    starts, widths = [], []
    edges = shape.panel_edges()
    for a, b in zip(edges[:-1], edges[1:]):
        m = max(1, round(steps * (b - a) / shape.L))
        starts.extend(a + (b - a) / m * np.arange(m))
        widths.extend([(b - a) / m] * m)
    s, h = np.array(starts), np.array(widths)
    if shape.kind in ("constant", "piecewise"):
        f = [shape.evaluate(s + 0.5 * h)] * 3
    else:
        f = [shape.evaluate(x) for x in (s, s + 0.5 * h, np.minimum(s + h, shape.L))]
    gz = [(1.0 / (E * J_z * fi)).tolist() for fi in f]
    gy = [(1.0 / (E * J_y * fi)).tolist() for fi in f]
    y = z = 0.0
    for h, gz0, gz1, gz2, gy0, gy1, gy2 in zip(widths, *gz, *gy):
        k1y = (M * z + c1) * gz0
        k1z = (c2 - M * y) * gy0
        k2y = (M * (z + 0.5 * h * k1z) + c1) * gz1
        k2z = (c2 - M * (y + 0.5 * h * k1y)) * gy1
        k3y = (M * (z + 0.5 * h * k2z) + c1) * gz1
        k3z = (c2 - M * (y + 0.5 * h * k2y)) * gy1
        k4y = (M * (z + h * k3z) + c1) * gz2
        k4z = (c2 - M * (y + h * k3y)) * gy2
        y += h / 6.0 * (k1y + 2.0 * (k2y + k3y) + k4y)
        z += h / 6.0 * (k1z + 2.0 * (k2z + k3z) + k4z)
    return y, z


def trace(grid, M: float) -> float:
    S = propagate(grid, np.array([M]))[0]
    return float(S[0, 0] + S[1, 1])


def closed_form_det(spec: RodSpec, M: float) -> float:
    """|1 - exp(-i M phi)|**2 / M**2 from the integrating-factor solution."""
    phi = physical_length(spec.shape) / (spec.E * spec.J_ref)
    return abs(1.0 - cmath.exp(-1j * M * phi)) ** 2 / M**2


class TestShoot:
    def test_det_vanishes_at_eigenvalue(self):
        result = shoot(UNIFORM, 2.0 * math.pi)
        assert abs(result.det) <= 1e-10

    def test_det_away_from_eigenvalue(self):
        # at half the critical torque: |1 - e^{-i pi}|^2 / pi^2 = 4/pi^2
        result = shoot(UNIFORM, math.pi)
        assert result.det == pytest.approx(4.0 / math.pi**2, rel=1e-9)
        assert abs(result.det) > 0.1

    def test_small_torque_matches_closed_form(self):
        for spec in (UNIFORM, PIECEWISE):
            M = 1e-3
            assert shoot(spec, M).det == pytest.approx(
                closed_form_det(spec, M), rel=1e-6
            )

    def test_closed_form_along_sweep(self):
        for M in (0.5, 2.0, 5.0, 9.0):
            assert shoot(PIECEWISE, M).det == pytest.approx(
                closed_form_det(PIECEWISE, M), rel=1e-8
            )

    def test_linearity_in_constants(self):
        rng = Lcg64(41)
        spec = rod(random_piecewise_shape(rng))
        M = 3.7
        result = shoot(spec, M)
        for _ in range(5):
            c1 = rng.uniform() * 4.0 - 2.0
            c2 = rng.uniform() * 4.0 - 2.0
            y, z = reference_endpoint(spec.shape, spec.E, spec.J_ref, spec.J_ref, M, c1, c2)
            expected = result.S @ np.array([c1, c2])
            np.testing.assert_allclose([y, z], expected, rtol=1e-12, atol=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            shoot(UNIFORM, -1.0)
        with pytest.raises(ValueError):
            shoot(UNIFORM, 2.0, steps=8)


class TestBatchedKernel:
    def test_matches_scalar_reference(self):
        rng = Lcg64(47)
        cases = [
            (random_piecewise_shape(rng), 1.0, 1.0),
            (random_sampled_shape(rng), 1.0, 1.0),
            (random_piecewise_shape(rng), 2.3, 0.6),  # gy != gz
            (random_sampled_shape(rng), 0.4, 1.7),
        ]
        torques = np.array([0.05, 2.0, 6.5, 11.0])
        worst = 0.0
        for shape, J_y, J_z in cases:
            # 4100 and 1003 steps put odd levels in both sampled shapes' trees
            for steps in (4096, 4100, 1003, 1000):
                grid = build_step_grid(shape, 1.3, J_y, J_z, steps)
                S = propagate(grid, torques)
                assert S.shape == (torques.size, 2, 2)
                for M, S_M in zip(torques, S):
                    ref = np.column_stack(
                        [
                            reference_endpoint(shape, 1.3, J_y, J_z, M, 1.0, 0.0, steps),
                            reference_endpoint(shape, 1.3, J_y, J_z, M, 0.0, 1.0, steps),
                        ]
                    )
                    worst = max(worst, np.max(np.abs(S_M - ref)) / np.max(np.abs(ref)))
        assert worst <= 1e-12

    def test_grid_has_one_row_per_step(self):
        shape = ShapeFunction.piecewise([0.0, 1.0 / 3.0, 1.0], [1.0, 2.0])
        assert len(build_step_grid(shape, 1.0, 1.0, 1.0, 4095)) == 4095
        assert len(build_step_grid(shape, 1.0, 1.0, 1.0, 4096)) == 4096

    def test_batch_size_does_not_change_results(self):
        grid = build_step_grid(PIECEWISE.shape, 1.0, 2.0, 0.5, 1000)
        torques = np.linspace(0.3, 17.0, 13)
        S = propagate(grid, torques)
        for i, M in enumerate(torques):
            np.testing.assert_array_equal(S[i], propagate(grid, np.array([M]))[0])

    def test_scan_memory_does_not_grow_with_probes(self):
        m_star = critical_torque_value(PIECEWISE)
        tracemalloc.start()
        try:
            roots = eigenvalues_in(PIECEWISE, 0.05 * m_star, 2.99 * m_star, probes=256, steps=4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(roots) == 2
        assert peak < 8 * 2**20


class TestRunLengthKernel:
    """Runs of equal steps are raised to their length by squaring."""

    def test_one_step_panel_and_unequal_runs(self):
        # panels of 1, 1228 and 2867 steps: different count bit patterns
        shape = ShapeFunction.piecewise([0.0, 1.0 / 4096.0, 0.3, 1.0], [0.7, 2.0, 1.3])
        torques = np.array([0.05, 2.0, 6.5, 11.0])
        worst = 0.0
        for J_y, J_z in ((1.0, 1.0), (2.3, 0.6)):
            grid = build_step_grid(shape, 1.3, J_y, J_z, 4096)
            S = propagate(grid, torques)
            for M, S_M in zip(torques, S):
                ref = np.column_stack(
                    [
                        reference_endpoint(shape, 1.3, J_y, J_z, M, 1.0, 0.0),
                        reference_endpoint(shape, 1.3, J_y, J_z, M, 0.0, 1.0),
                    ]
                )
                worst = max(worst, np.max(np.abs(S_M - ref)) / np.max(np.abs(ref)))
        assert worst <= 1e-12

    def test_run_counts(self):
        # a panel on which F is constant is one run, any other step its own
        grid = build_step_grid(PIECEWISE.shape, 1.0, 1.0, 1.0, 4096)
        assert grid.counts.tolist() == [2048, 2048] and len(grid) == 4096
        flat = rod(ShapeFunction.sampled([2.0, 2.0]))
        assert build_step_grid(flat.shape, 1.0, 1.0, 1.0, 4096).counts.tolist() == [4096]
        assert critical_torque_oracle(flat) == critical_torque_oracle(DOUBLE) == 12.566370614362913
        dip = ShapeFunction.sampled([1.0, 1.0, 1.0, 1.0, 1e-5, 1.0, 1.0, 1.0])
        grid = build_step_grid(dip, 1.0, 1.0, 1.0, 4096)
        assert grid.counts[grid.counts > 1].tolist() == [585] * 5
        assert len(grid) == 7 * 585 and grid.counts.size == len(grid.rows) == 5 + 2 * 585

    def test_piecewise_memory_independent_of_steps(self):
        tracemalloc.start()
        try:
            grid = build_step_grid(PIECEWISE.shape, 1.0, 1.0, 1.0, 2**18)
            propagate(grid, np.array([1.0, 3.0, 5.0, 7.0]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(grid) == 2**18
        assert peak < 64 * 2**10

    def test_sampled_scan_memory(self):
        x = np.linspace(0.0, 1.0, 65)
        spec = rod(ShapeFunction.sampled(1.0 + 0.5 * np.sin(2 * np.pi * x) + 0.3 * x))
        m_star = critical_torque_value(spec)
        tracemalloc.start()
        try:
            roots = eigenvalues_in(spec, 0.05 * m_star, 2.99 * m_star, probes=256, steps=4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(roots) == 2
        assert peak < 8 * 2**20


class TestOracleStressRods:
    @pytest.mark.parametrize(
        "spec",
        [
            RodSpec(
                E=2e11,
                J_ref=1e-8,
                shape=ShapeFunction.piecewise([0.0, 0.6, 1.5, 2.0], [1.0, 2.5, 0.8]),
                law=LAW,
            ),
            rod(ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 1e-8])),
        ],
        ids=["si_scale", "contrast_1e-8"],
    )
    def test_matches_closed_form(self, spec):
        exact = critical_torque_value(spec)
        assert abs(critical_torque_oracle(spec) - exact) <= 1e-10 * exact


class TestTrace:
    def test_equals_twice_sine_over_torque(self):
        # exact solution gives trace S = 2 sin(M phi) / M, and phi = 1 here
        grid = build_step_grid(UNIFORM.shape, 1.0, 1.0, 1.0, 4096)
        for M in (1.0, 2.0, 4.0, 7.0):
            assert trace(grid, M) == pytest.approx(2.0 * math.sin(M) / M, rel=1e-10)

    def test_crossing_directions(self):
        # upward through zero at each eigenvalue k M*, downward half way between
        m_star = critical_torque_value(PIECEWISE)
        grid = build_step_grid(PIECEWISE.shape, 1.0, 1.0, 1.0, 4096)
        for k in (1, 2):
            for zero, upward in ((k * m_star, True), ((k - 0.5) * m_star, False)):
                before = trace(grid, zero * (1.0 - 1e-3))
                after = trace(grid, zero * (1.0 + 1e-3))
                assert (before < 0.0 < after) if upward else (after < 0.0 < before)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestUnresolvedRods:
    """Rods whose soft part 4096 panel-proportional steps cannot follow: a
    trace crossing that is not an eigenvalue must raise, never be returned,
    and no step map may overflow on the way."""

    @pytest.mark.parametrize(
        "shape",
        [
            ShapeFunction.sampled([1.0, 1e-8]),
            ShapeFunction.sampled([1.0, 1.0, 1.0, 1.0, 1e-5, 1.0, 1.0, 1.0]),
            ShapeFunction.sampled([1e-4, 1.0, 1e-4]),
            ShapeFunction.piecewise([0.0, 0.999, 1.0], [1.0, 1e-6]),
            ShapeFunction.piecewise([0.0, 1.0 / 4096.0, 1.0], [1e-8, 1.0]),
        ],
        ids=[
            "sampled_1e-8",
            "sampled_dip_1e-5",
            "sampled_ends_1e-4",
            "narrow_panel_1e-6",
            "one_step_panel_1e-8",
        ],
    )
    def test_right_root_or_error(self, shape):
        spec = rod(shape)
        exact = critical_torque_value(spec)
        try:
            found = critical_torque_oracle(spec)
        except RootSearchError:
            return
        assert abs(found - exact) <= 1e-6 * exact


class TestIndependence:
    def test_shooting_modules_import_nothing_from_transform(self):
        # the oracle must not take its phase or length from the closed form
        package = Path(twistrod.__file__).parent
        for name in ("oracle.py", "anisotropic.py"):
            tree = ast.parse((package / name).read_text())
            imported = []
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported += [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    imported += [base] + [f"{base}.{alias.name}" for alias in node.names]
            assert not any("transform" in module.split(".") for module in imported), name


class TestCriticalTorqueOracle:
    def test_uniform(self):
        found = critical_torque_oracle(UNIFORM, bracket=(1.0, 10.0))
        assert found == pytest.approx(2.0 * math.pi, rel=1e-8)

    def test_doubled(self):
        found = critical_torque_oracle(DOUBLE, bracket=(1.0, 20.0))
        assert found == pytest.approx(4.0 * math.pi, rel=1e-8)

    def test_piecewise(self):
        found = critical_torque_oracle(PIECEWISE, bracket=(1.0, 20.0))
        assert found == pytest.approx(8.0 * math.pi / 3.0, rel=1e-6)

    def test_default_bracket(self):
        assert critical_torque_oracle(PIECEWISE) == pytest.approx(
            8.0 * math.pi / 3.0, rel=1e-6
        )

    def test_seven_kernel_calls_per_root(self, monkeypatch):
        # the scan's probe matrices serve brentq's first two calls
        calls = []

        def counting(grid, M):
            calls.append(np.array(M, dtype=float))
            return propagate(grid, M)

        monkeypatch.setattr(oracle, "propagate", counting)
        critical_torque_oracle(PIECEWISE)
        probes = np.linspace(*oracle._default_bracket(PIECEWISE), DEFAULT_PROBES + 1)
        refined = [float(m[0]) for m in calls if m.size == 1]
        assert len(calls) == 7
        assert len(refined) == 4
        assert not set(refined) & set(probes.tolist())

    def test_no_root_reports_endpoints(self):
        with pytest.raises(RootSearchError) as err:
            critical_torque_oracle(UNIFORM, bracket=(1.0, 5.0))
        assert "sign change" in str(err.value)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            critical_torque_oracle(UNIFORM, bracket=(-1.0, 5.0))
        with pytest.raises(ValueError):
            critical_torque_oracle(UNIFORM, bracket=(5.0, 1.0))

    def test_random_shapes_match_functional(self):
        rng = Lcg64(43)
        worst = 0.0
        for _ in range(10):
            for shape in (random_piecewise_shape(rng), random_sampled_shape(rng)):
                spec = rod(shape)
                exact = critical_torque_value(spec)
                found = critical_torque_oracle(spec)
                worst = max(worst, abs(found - exact) / exact)
        assert worst <= 1e-6

    def test_smooth_sampled_profile(self):
        grid = np.linspace(0.0, 1.0, 201)
        shape = ShapeFunction.sampled(1.0 + 0.5 * np.sin(2 * np.pi * grid) + 0.3 * grid, 1.0)
        spec = RodSpec(E=1.3, J_ref=0.7, shape=shape, law=LAW)
        exact = critical_torque_value(spec)
        found = critical_torque_oracle(spec)
        assert found == pytest.approx(exact, rel=1e-8)


class TestEigenvalueSequence:
    def test_uniform_rod_first_two(self):
        m_star = 2.0 * math.pi
        roots = eigenvalues_in(UNIFORM, 0.05 * m_star, 2.99 * m_star)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(m_star, rel=1e-8)
        assert roots[1] == pytest.approx(2.0 * m_star, rel=1e-8)

    def test_piecewise_rod_harmonics(self):
        m_star = critical_torque_value(PIECEWISE)
        roots = eigenvalues_in(PIECEWISE, 0.05 * m_star, 2.99 * m_star)
        assert len(roots) == 2
        assert roots[1] == pytest.approx(2.0 * roots[0], rel=1e-8)

    def test_scan_from_zero_torque(self):
        m_star = critical_torque_value(PIECEWISE)
        roots = eigenvalues_in(PIECEWISE, 0.0, 2.99 * m_star)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(m_star, rel=1e-8)
        assert roots[1] == pytest.approx(2.0 * m_star, rel=1e-8)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            eigenvalues_in(UNIFORM, -1.0, 5.0)
        with pytest.raises(ValueError):
            eigenvalues_in(UNIFORM, 5.0, 5.0)


class TestConvergence:
    def test_fourth_order_uniform(self):
        table = convergence_study(UNIFORM, [64, 128, 256, 512])
        errors = [e for _, e in table]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 8.0

    def test_fourth_order_piecewise_aligned(self):
        table = convergence_study(PIECEWISE, [64, 128, 256, 512])
        errors = [e for _, e in table]
        for coarse, fine in zip(errors, errors[1:]):
            assert 8.0 <= coarse / fine <= 32.0

    def test_uniform_error_at_default_steps(self):
        (_, err), = convergence_study(UNIFORM, [4096])
        assert err <= 1e-8
