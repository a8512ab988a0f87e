"""Shooting eigensolver: endpoint matrix, root search, convergence order."""

from __future__ import annotations

import ast
import cmath
import functools
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

import twistrod
from twistrod import oracle
from twistrod.anisotropic import (
    AnisotropicRodSpec,
    AnisotropicSection,
    first_root_anisotropic,
    reduce_to_isotropic,
)
from twistrod.errors import RootSearchError
from twistrod.greenhill import convergence_study, critical_torque_value
from twistrod.oracle import (
    DEFAULT_PROBES,
    DEFAULT_TOL,
    MIN_STEPS,
    StepGrid,
    build_step_grid,
    critical_torque_oracle,
    eigenvalues_in,
    probe_torques,
    propagate,
    shoot,
)
from twistrod.sampling import Lcg64, random_anisotropic_spec, random_piecewise_shape, random_rod_spec
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
    (0, 0), one step at a time on the oracle's step placement: the grid's
    step count per panel, step k of a panel from f0 to f1 starting where
    F = f0 (f1/f0)^(k/c), and F evaluated on the profile (at the step's
    midpoint on a flat panel, whose right end may belong to the next one)."""
    edges, left, right = shape.panels()
    counts = build_step_grid(shape, E, J_y, J_z, steps).counts
    h, f = [], []
    for a, b, f0, f1, c in zip(edges[:-1], edges[1:], left, right, counts):
        fraction = np.arange(c + 1) / c
        if f0 != f1:
            fraction = ((f1 / f0) ** fraction - 1.0) / (f1 / f0 - 1.0)
        x = a + (b - a) * fraction
        s0, h0 = x[:-1], np.diff(x)
        ends = (s0, s0 + 0.5 * h0, np.minimum(s0 + h0, shape.L))
        f.append([shape.evaluate(s0 + 0.5 * h0 if f0 == f1 else end) for end in ends])
        h.append(h0)
    widths = np.concatenate(h).tolist()
    f = [np.concatenate([panel[i] for panel in f]) for i in range(3)]
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


def trace_crossing(grid, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent floats lo < hi with trace S(lo) < 0 <= trace S(hi), bisected
    on the kernel from such a pair."""
    assert trace(grid, lo) < 0.0 <= trace(grid, hi)
    while math.nextafter(lo, hi) < hi:
        mid = lo + 0.5 * (hi - lo)
        lo, hi = (lo, mid) if trace(grid, mid) >= 0.0 else (mid, hi)
    return lo, hi


def crossing_distance(rod_tuple: tuple, root: float) -> float:
    """Distance of ``root`` from the kernel's own upward trace crossing near
    it, bisected to adjacent floats, relative to the root."""
    grid = build_step_grid(*rod_tuple, oracle.DEFAULT_STEPS)
    lo, hi = trace_crossing(grid, root * (1.0 - 1e-9), root * (1.0 + 1e-9))
    return min(abs(root - lo), abs(root - hi)) / root


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
            for steps in (MIN_STEPS, 257, 1000):
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
        assert len(build_step_grid(shape, 1.0, 1.0, 1.0, 4095)) == 2 * 4095
        assert len(build_step_grid(shape, 1.0, 1.0, 1.0, 4096)) == 2 * 4096

    def test_grid_length_is_requested_steps(self):
        rng = Lcg64(53)
        for shape in [random_piecewise_shape(rng) for _ in range(20)] + [
            random_sampled_shape(rng) for _ in range(20)
        ]:
            panels = shape.panel_edges().size - 1
            for steps in (MIN_STEPS, 1003, 4095, 4096, 4097, 4100):
                assert len(build_step_grid(shape, 1.0, 1.0, 1.0, steps)) == panels * steps
        # every panel gets the steps, however narrow
        narrow = ShapeFunction.piecewise([0.0, 1e-9, 2e-9, 1.0], [1.0, 2.0, 3.0])
        assert build_step_grid(narrow, 1.0, 1.0, 1.0, 100).counts.tolist() == [100, 100, 100]
        many = ShapeFunction.piecewise(np.linspace(0.0, 1.0, 41), np.arange(1.0, 41.0))
        assert len(build_step_grid(many, 1.0, 1.0, 1.0, MIN_STEPS)) == 40 * MIN_STEPS

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
            roots = eigenvalues_in(PIECEWISE, 0.05 * m_star, 2.99 * m_star, steps=4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(roots) == 2
        assert peak < 8 * 2**20


def longdouble_rows(shape: ShapeFunction, E: float, J_y: float, J_z: float, steps: int) -> list:
    """Rows (a1, b1, a3, b3, p2, p4) of each panel's step map in
    np.longdouble.  With J_y = J_z = 1 the grid's rows (a1, a3, p2, p4)
    are the products of h and g = 1/(E F) alone (oracle docstring); these
    are divided by the powers of J_z and J_y of gz = g / J_z and gy = g /
    J_y, and b1, b3 by those of a1, a3 with y and z exchanged.  Nothing
    here uses B22 = (J_z/J_y) B11."""
    a1, a3, p2, p4, _ = build_step_grid(shape, E, 1.0, 1.0, steps).poly.astype(np.longdouble)
    z, y = 1 / np.longdouble(J_z), 1 / np.longdouble(J_y)
    return [a1 * z, a1 * y, a3 * z * z * y, a3 * y * y * z, p2 * z * y, p4 * (z * y) ** 2]


def grid_rows(grid: StepGrid) -> list:
    """The six rows of a one-rod ``grid`` in np.longdouble: b1 = k a1 and
    b3 = k a3 from its rows (a1, a3, p2, p4, k)."""
    a1, a3, p2, p4, k = grid.poly.astype(np.longdouble)
    return [a1, k * a1, a3, k * a3, p2, p4]


def longdouble_endpoint(rows: list, counts: np.ndarray, M) -> np.ndarray:
    """Endpoint matrices at the torques ``M`` in np.longdouble: each
    panel's augmented step map [[A, B], [0, I]], formed from its six
    ``rows`` (:func:`longdouble_rows`) as the oracle docstring writes it,
    raised to its count by repeated squaring and composed in panel order."""
    a1, b1, a3, b3, p2, p4 = rows
    m = np.asarray(M, dtype=np.longdouble)[:, None]
    B11, B22 = a1 - m * m * a3, b1 - m * m * b3
    B12 = m * (p2 - m * m * p4)
    B21 = -B12
    one, zero = np.ones_like(B11), np.zeros_like(B11)
    rows = [
        [1 - m * B12, m * B11, B11, B12],
        [-m * B22, 1 + m * B21, B21, B22],
        [zero, zero, one, zero],
        [zero, zero, zero, one],
    ]
    step = np.moveaxis(np.array(rows), (0, 1), (-2, -1))
    power = np.broadcast_to(np.eye(4, dtype=np.longdouble), step.shape).copy()
    counts = counts.copy()
    while counts.any():
        odd = counts % 2 == 1
        power[:, odd] = step[:, odd] @ power[:, odd]
        step = step @ step
        counts //= 2
    total = power[:, 0]
    for panel in range(1, power.shape[1]):
        total = power[:, panel] @ total
    return total[:, :2, 2:]


def kernel_error(grid: StepGrid, M, rows: list) -> float:
    """Largest difference of ``propagate`` from the long-double reference
    of the step maps ``rows``, relative to max |S| at each torque."""
    reference = longdouble_endpoint(rows, grid.counts, M)
    error = np.abs(propagate(grid, np.asarray(M, dtype=float)) - reference)
    return float(np.max(error.max(axis=(1, 2)) / np.abs(reference).max(axis=(1, 2))))


class TestClosedFormPowers:
    """Each panel's map is raised to its count in closed form."""

    def test_matches_longdouble_powers(self):
        # squaring in double was up to 1e-11 off on these grids.  At 16 steps
        # per panel the maps grow to norm 1e27 by 13 M*; at M = 0 every
        # panel's N is zero (A = I)
        worst = 0.0
        for seed in range(10):
            rng = Lcg64(seed)
            shapes = [random_piecewise_shape(rng), random_sampled_shape(rng)]
            shapes += [ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 1e-8]), ShapeFunction.sampled([1.0, 1e-8])]
            for shape in shapes:
                for J_y, J_z in ((1.0, 1.0), (16.0, 1.0), (0.3, 2.7)):
                    m_star = critical_torque_value(RodSpec(1.0, math.sqrt(J_y * J_z), shape, LAW))
                    for steps, factors in (
                        (MIN_STEPS, [0.0, 0.37, 1.3, 9.0, 13.0]),
                        (4096, [0.0, 0.37, 1.3, 3.1]),
                        (2**18, [0.0, 1e-3, 0.37, 1.3]),
                    ):
                        grid = build_step_grid(shape, 1.0, J_y, J_z, steps)
                        rows = longdouble_rows(shape, 1.0, J_y, J_z, steps)
                        worst = max(worst, kernel_error(grid, m_star * np.array(factors), rows))
        assert worst <= 1e-12

    def test_degenerate_maps(self):
        # rows (a1, a3, p2, p4, k).  Panel 0: B11 = (1 - M**2) / 4 vanishes
        # at M = 1 with B12 = 0.3, so omega = 0 and N = -0.3 I.  Panel 3:
        # the same at M = 1 with B12 = 1.5, so A = -I / 2, as on a uniform
        # step where B11 = 0.  Panel 1: B11 = 1 - M**2 / 4 and B12 =
        # M (1/2 - M**2 / 8) vanish together at M = 2, so N = 0 and A = I.
        # At M = 0, N = 0 on every panel and S is the sum of B, c diag(a1,
        # k a1) per panel.
        poly = np.array([
            [0.25, 1.0, 1.0, 0.5],
            [0.25, 0.25, 0.01, 0.5],
            [0.4, 0.5, 0.3, 2.0],
            [0.1, 0.125, 0.002, 0.5],
            [2.0, 0.5, 0.75, 1.0],
        ])
        grid = StepGrid(poly, np.array([3, 5, 7, 4]))
        assert kernel_error(grid, [0.0, 1e-3, 0.5, 1.0, 1.5, 2.0], grid_rows(grid)) <= 1e-12
        np.testing.assert_array_equal(propagate(grid, [0.0])[0], [[14.75, 0.0], [0.0, 11.25]])


class TestRunLengthKernel:
    """Each panel's steps, all alike, raised to their count at once."""

    def test_one_step_panel_and_unequal_runs(self):
        # a panel 1/4096 of the span wide between wider ones, 4096 steps each
        # (unequal counts: TestClosedFormPowers::test_degenerate_maps)
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
        # every panel is one run of the steps asked for
        grid = build_step_grid(PIECEWISE.shape, 1.0, 1.0, 1.0, 4096)
        assert grid.counts.tolist() == [4096, 4096] and len(grid) == 2 * 4096
        flat = rod(ShapeFunction.sampled([2.0, 2.0]))
        assert build_step_grid(flat.shape, 1.0, 1.0, 1.0, 4096).counts.tolist() == [4096]
        root = critical_torque_oracle(flat)
        assert root == critical_torque_oracle(DOUBLE)
        assert crossing_distance((flat.shape, 1.0, 1.0, 1.0), root) <= 4e-15
        dip = ShapeFunction.sampled([1.0, 1.0, 1.0, 1.0, 1e-5, 1.0, 1.0, 1.0])
        grid = build_step_grid(dip, 1.0, 1.0, 1.0, 4096)
        assert grid.counts.tolist() == [4096] * 7
        assert len(grid) == 7 * 4096 and grid.poly.shape == (5, 7)

    def test_piecewise_memory_independent_of_steps(self):
        tracemalloc.start()
        try:
            grid = build_step_grid(PIECEWISE.shape, 1.0, 1.0, 1.0, 2**18)
            propagate(grid, np.array([1.0, 3.0, 5.0, 7.0]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(grid) == 2 * 2**18
        assert peak < 64 * 2**10

    def test_sampled_scan_memory(self):
        x = np.linspace(0.0, 1.0, 65)
        spec = rod(ShapeFunction.sampled(1.0 + 0.5 * np.sin(2 * np.pi * x) + 0.3 * x))
        m_star = critical_torque_value(spec)
        tracemalloc.start()
        try:
            roots = eigenvalues_in(spec, 0.05 * m_star, 2.99 * m_star, steps=4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(roots) == 2
        # the one call shoots 65 probes and 3 torques per root (1.7 MB);
        # 256 probes and 8 torques per root took 6.0 MB
        assert peak < 3 * 2**20


def random_sampled_rods() -> list[RodSpec]:
    """120 sampled rods of 2-39 nodes, log-uniform values down to contrasts
    1e-6, 1e-8 and 1e-3 (numpy seeds 5, 6 and 7, 40 rods each)."""
    rods = []
    for seed, lo in ((5, 1e-6), (6, 1e-8), (7, 1e-3)):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            values = np.exp(rng.uniform(np.log(lo), 0.0, rng.integers(2, 40)))
            rods.append(rod(ShapeFunction.sampled(values)))
    return rods


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

    def test_sampled_rods_and_narrow_soft_panel(self):
        # steps shared by width put 4 of 4096 in the soft panel of the last rod
        # and missed its root by 1.15%, and the sampled rods' by up to 2.7e-2
        soft = rod(ShapeFunction.piecewise([0.0, 0.999, 1.0], [1.0, 1e-6]))
        worst = 0.0
        for spec in random_sampled_rods() + [soft]:
            exact = critical_torque_value(spec)
            worst = max(worst, abs(critical_torque_oracle(spec) - exact) / exact)
        assert worst <= 1e-7

    def test_multi_panel_rods_at_the_default_steps(self):
        # every panel gets DEFAULT_STEPS steps: 4096 shared out among the
        # panels by phase missed these roots by up to 3.2e-8, shared evenly
        # by 1.5e-8
        rng = np.random.default_rng(24)
        shapes = [ShapeFunction.piecewise([0.0, 0.3, 0.5, 1.0], [1.0, 1e-8, 0.5])]
        for _ in range(41):
            lo = 10.0 ** rng.uniform(-8.0, -1.0)
            values = np.exp(rng.uniform(np.log(lo), 0.0, rng.integers(3, 34)))
            values[rng.integers(values.size)] = lo
            shapes.append(ShapeFunction.sampled(values))
        roots = oracle.first_roots([(shape, 1.0, 1.0, 1.0) for shape in shapes])
        for shape, root in zip(shapes, roots):
            exact = critical_torque_value(rod(shape))
            assert abs(root - exact) <= 1e-11 * exact


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


def recorded(f):
    """``f`` with the list of points it is called at."""
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


# (f, a, b): flat and steep crossings, steps, roots at an end, values whose
# products underflow or overflow
BRENT_CASES = [
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 3.0, -1.0, 4.0),
    (lambda x: math.sin(x) - 0.3, 2.0, -0.5),
    (lambda x: (x - 0.7) ** 9, -0.4, 2.5),
    (lambda x: x**20 - 0.5, 0.1, 1.7),
    (lambda x: math.atan(1e6 * (x - 0.2)), -1.0, 3.0),
    (lambda x: math.tanh(50.0 * (x - 0.6)) + 1e-3, -1.0, 2.0),
    (lambda x: math.copysign(1.0, x - 1.0 / 3.0), -1.0, 2.0),
    (lambda x: math.floor(8.0 * x) - 3.5, 0.0, 1.0),
    (lambda x: (x - 0.3) * (x - 0.31) * (x - 0.32), 0.0, 1.0),
    (lambda x: 1e-300 * (x - 0.4), -1.0, 2.0),
    (lambda x: 1e-310 * (x - 0.45), 2.0, -1.0),
    (lambda x: 1e300 * (x - 0.4), -1.0, 2.0),
    (lambda x: x - 0.25, 0.25, 1.0),
    (lambda x: x * x - 1.0, 0.0, 1.0),
]
BRENT_TOLERANCES = [(1e-12, 8.9e-16), (2e-300, 8.9e-16), (1e-6, 1e-3), (1e-15, 0.1)]


class TestBrentq:
    """The package's Brent iteration against scipy's as a witness."""

    @pytest.mark.parametrize("case", range(len(BRENT_CASES)))
    def test_same_float_as_scipy(self, case):
        f, a, b = BRENT_CASES[case]
        for xtol, rtol in BRENT_TOLERANCES:
            mine, mine_points = recorded(f)
            theirs, their_points = recorded(f)
            root, info = scipy_brentq(
                theirs, a, b, xtol=xtol, rtol=rtol, full_output=True, disp=False
            )
            if info.converged:
                assert oracle.brentq(mine, a, b, xtol, rtol) == root
            else:
                with pytest.raises(RootSearchError):
                    oracle.brentq(mine, a, b, xtol, rtol)
            assert mine_points == their_points

    def test_same_float_as_scipy_on_the_trace(self):
        rng = Lcg64(59)
        shapes = [random_piecewise_shape(rng) for _ in range(6)]
        shapes += [random_sampled_shape(rng) for _ in range(6)]
        for shape in shapes:
            spec = rod(shape)
            grid = build_step_grid(shape, spec.E, spec.J_ref, spec.J_ref, 4096)
            ms = probe_torques(shape, spec.E, spec.J_ref, spec.J_ref, None)
            S = propagate(grid, ms)
            t = S[:, 0, 0] + S[:, 1, 1]
            i = int(np.flatnonzero((t[:-1] < 0.0) & (t[1:] >= 0.0))[0]) + 1
            a, b = float(ms[i - 1]), float(ms[i])
            f = functools.partial(trace, grid)
            expected = scipy_brentq(f, a, b, xtol=DEFAULT_TOL * b, rtol=8.9e-16)
            assert oracle.brentq(f, a, b, DEFAULT_TOL * b, 8.9e-16) == expected

    @pytest.mark.parametrize("case", range(len(BRENT_CASES)))
    def test_returns_an_evaluated_point(self, case):
        f, a, b = BRENT_CASES[case]
        for xtol, rtol in BRENT_TOLERANCES:
            g, points = recorded(f)
            try:
                root = oracle.brentq(g, a, b, xtol, rtol)
            except RootSearchError:  # (x - 0.7)**9 at the two tight tolerances
                continue
            assert root in points

    def test_same_sign_ends_raise(self):
        with pytest.raises(ValueError, match="differ in sign"):
            oracle.brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 8.9e-16)
        with pytest.raises(ValueError):
            oracle.brentq(lambda x: -1e-310, 0.0, 1.0, 1e-12, 8.9e-16)

    def test_nonconvergence_raises(self):
        # a sign step 1e-200 from zero in a bracket of 1e300: bisection needs
        # about 1650 halvings, the iteration stops at BRENT_ITERATIONS
        def step(x):
            return math.copysign(1.0, x - 1e-200)

        g, points = recorded(step)
        with pytest.raises(RootSearchError, match="did not converge"):
            oracle.brentq(g, -1e300, 1e300, 1e-300, 8.9e-16)
        assert len(points) == 2 + oracle.BRENT_ITERATIONS
        info = scipy_brentq(
            step, -1e300, 1e300, xtol=1e-300, rtol=8.9e-16, full_output=True, disp=False
        )[1]
        assert not info.converged and info.function_calls == len(points)

    def test_takes_over_when_the_interpolated_zero_is_off(self, monkeypatch):
        # a cubic phase, 2 pi + d**3 / 100 + d / 1000 with d = M - 5.3, is
        # too flat near its zero for the inverse interpolant of the probes:
        # brentq places the root on the phase alone, and a triple zero of
        # the trace confirms it
        def cubic_phase(grid, M):
            d = np.asarray(M, dtype=float) - 5.3
            return 2.0 * math.pi + 1e-2 * d**3 + 1e-3 * d

        def cubic_trace(grid, M):
            half = 0.5 * (np.asarray(M, dtype=float) - 5.3) ** 3
            zero = np.zeros_like(half)
            return np.stack([np.stack([half, zero], -1), np.stack([zero, half], -1)], -2)

        brackets = []
        brentq = oracle.brentq

        def recording(f, a, b, **tolerances):
            brackets.append((a, b))
            return brentq(f, a, b, **tolerances)

        monkeypatch.setattr(oracle, "brentq", recording)
        monkeypatch.setattr(oracle, "_phase", cubic_phase)
        monkeypatch.setattr(oracle, "propagate", cubic_trace)
        root = critical_torque_oracle(UNIFORM, bracket=(1.0, 9.0))
        assert brackets == [(5.25, 5.375)]  # the probe interval where the phase passes 2 pi
        assert abs(root - 5.3) <= 1e-10 * 5.375  # tol times the probe above the zero

    def test_nan_raises(self):
        with pytest.raises(RootSearchError, match="nan"):
            oracle.brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-12, 8.9e-16)


def unconfirmable_kernel(grid, M):
    """Endpoint matrices whose trace, M - 5, crosses zero upward at M = 5,
    where det S = 1 + (M - 5)**2 / 4 is not small: no eigenvalue."""
    half_trace = 0.5 * (np.asarray(M, dtype=float) - 5.0)
    ones = np.ones_like(half_trace)
    return np.stack([np.stack([half_trace, -ones], -1), np.stack([ones, half_trace], -1)], -2)


def sign_keeping_kernel(grid, M):
    """Endpoint matrices [[h, h], [h, h]], h = (M - 5) / 2: det S = 0
    everywhere, and trace S crosses zero upward at M = 5 only."""
    half_trace = 0.5 * (np.asarray(M, dtype=float) - 5.0)
    return np.stack([np.stack([half_trace, half_trace], -1)] * 2, -2)


def extra_crossing_kernel(grid, M):
    """The rod's endpoint matrices, negated for 2 < M < 3: det S is
    unchanged, and trace S gains an upward crossing at M = 3."""
    M = np.asarray(M, dtype=float)
    return propagate(grid, M) * np.where(np.abs(M - 2.5) < 0.5, -1.0, 1.0)[..., None, None]


# Rods whose soft part 4096 steps shared out by width could not follow
HARD_SHAPES = [
    ShapeFunction.sampled([1.0, 1e-8]),
    ShapeFunction.sampled([1.0, 1.0, 1.0, 1.0, 1e-5, 1.0, 1.0, 1.0]),
    ShapeFunction.sampled([1e-4, 1.0, 1e-4]),
    ShapeFunction.piecewise([0.0, 0.999, 1.0], [1.0, 1e-6]),
    ShapeFunction.piecewise([0.0, 1.0 / 4096.0, 1.0], [1e-8, 1.0]),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestUnresolvedRods:
    """Rods whose soft part 4096 steps shared out by width could not follow:
    geometric steps shared by phase resolve them, and no step map may
    overflow on the way."""

    @pytest.mark.parametrize(
        "shape",
        HARD_SHAPES,
        ids=[
            "sampled_1e-8",
            "sampled_dip_1e-5",
            "sampled_ends_1e-4",
            "narrow_panel_1e-6",
            "one_step_panel_1e-8",
        ],
    )
    def test_right_root_or_error(self, shape):
        # the name predates geometric steps: an error now fails it, and the
        # error path is test_crossing_that_is_no_eigenvalue_raises
        spec = rod(shape)
        exact = critical_torque_value(spec)
        assert abs(critical_torque_oracle(spec) - exact) <= 1e-7 * exact

    def test_crossing_that_is_no_eigenvalue_raises(self, monkeypatch):
        # a trace crossing where det S is large must raise, never be returned
        monkeypatch.setattr(oracle, "propagate", unconfirmable_kernel)
        with pytest.raises(RootSearchError, match="not an eigenvalue"):
            critical_torque_oracle(UNIFORM)

    def test_root_where_the_trace_keeps_its_sign_raises(self, monkeypatch):
        # det S = 0 at the phase zero 2 pi, and the probes' one upward
        # crossing, at 5, matches the one root: only the trace's sign
        # across 2 pi +- e/2 tells it is no crossing
        monkeypatch.setattr(oracle, "propagate", sign_keeping_kernel)
        with pytest.raises(RootSearchError, match="not from minus to plus"):
            critical_torque_oracle(UNIFORM, bracket=(1.0, 9.0))

    def test_extra_upward_crossing_raises(self, monkeypatch):
        # the root at 2 pi is confirmed, but the probes 1/8 apart hold a
        # second upward crossing, at 3, that the phase does not place
        monkeypatch.setattr(oracle, "propagate", extra_crossing_kernel)
        with pytest.raises(RootSearchError, match="^2 upward trace crossings .* places 1 roots"):
            critical_torque_oracle(UNIFORM, bracket=(1.0, 9.0))


def imported_modules(path: Path) -> list[str]:
    """Every module name an import statement of ``path`` mentions."""
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return imported


class TestIndependence:
    def test_shooting_modules_import_nothing_from_transform(self):
        # the oracle must not take its phase or length from the closed form
        package = Path(twistrod.__file__).parent
        for name in ("oracle.py", "anisotropic.py"):
            imported = imported_modules(package / name)
            assert not any("transform" in module.split(".") for module in imported), name

    def test_oracle_imports_no_closed_form(self):
        # the closed form lives in greenhill and transform; convergence_study,
        # which measures the oracle against it, sits in greenhill
        imported = imported_modules(Path(twistrod.__file__).parent / "oracle.py")
        closed_form = {"greenhill", "transform"}
        assert not [module for module in imported if closed_form & set(module.split("."))]

    def test_only_shape_reads_kind(self):
        # every other module works from the panel table, ShapeFunction.panels
        paths = sorted(Path(twistrod.__file__).parent.glob("*.py"))
        assert len(paths) >= 10
        for path in paths:
            if path.name == "shape.py":
                continue
            tree = ast.parse(path.read_text())
            reads = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "kind"]
            assert not reads, f"{path.name} reads .kind on lines {reads}"

    def test_default_search_reads_no_closed_form(self, monkeypatch):
        spec = rod(ShapeFunction.sampled([1.0, 0.3, 2.0, 0.7]))
        aspec = AnisotropicRodSpec(1.3, AnisotropicSection(2.0, 0.5), PIECEWISE.shape, LAW)
        exact = critical_torque_value(spec)
        exact_aniso = critical_torque_value(reduce_to_isotropic(aspec))

        def closed_form(*args, **kwargs):
            raise AssertionError("the closed form was read")

        monkeypatch.setattr(twistrod.greenhill, "critical_torque_value", closed_form)
        assert abs(critical_torque_oracle(spec) - exact) <= 1e-10 * exact
        assert abs(first_root_anisotropic(aspec) - exact_aniso) <= 1e-10 * exact_aniso

    def test_package_imports_no_scipy(self):
        # numpy is the package's one dependency; scipy is a test witness only
        paths = sorted(Path(twistrod.__file__).parent.glob("*.py"))
        assert len(paths) >= 10
        for path in paths:
            imported = imported_modules(path)
            assert not any(module.split(".")[0] == "scipy" for module in imported), path.name


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

    def test_one_kernel_call_per_root(self, monkeypatch):
        # the phase places the root before the one call, which shoots the
        # probes through the first above the root, then r - e/2, r and
        # r + e/2, e = (tol + RTOL) times that probe
        calls = []

        def counting(grid, M):
            calls.append(np.array(M, dtype=float).ravel())
            return propagate(grid, M)

        monkeypatch.setattr(oracle, "propagate", counting)
        root = critical_torque_oracle(PIECEWISE)
        probes = probe_torques(PIECEWISE.shape, 1.0, 1.0, 1.0, None)
        above = int(np.searchsorted(probes, root))
        e = (DEFAULT_TOL + oracle.RTOL) * probes[above]
        (shot,) = calls
        assert probes[above - 1] < root <= probes[above]
        assert shot.tolist() == probes[: above + 1].tolist() + [root - e / 2, root, root + e / 2]
        calls.clear()
        rng = Lcg64(2024)
        for _ in range(50):
            critical_torque_oracle(random_rod_spec(rng))
        stress = random_sampled_rods() + [rod(shape) for shape in HARD_SHAPES]
        for spec in stress:
            critical_torque_oracle(spec)
        assert len(calls) == 50 + len(stress)

    def test_scan_the_phase_does_not_aim(self, monkeypatch):
        # no multiple of 2 pi over the probes: one call shoots them all, and
        # nothing else
        calls = []

        def counting(grid, M):
            calls.append(np.size(M))
            return propagate(grid, M)

        monkeypatch.setattr(oracle, "propagate", counting)
        with pytest.raises(RootSearchError, match="sign change"):
            critical_torque_oracle(UNIFORM, bracket=(1.0, 5.0))
        assert calls == [DEFAULT_PROBES + 1]

    @pytest.mark.parametrize(
        "shape",
        [ShapeFunction.constant(1.0, 1.0), ShapeFunction.sampled([1.0, 1.0]),
         ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 1.0])],
        ids=["constant", "sampled", "piecewise"],
    )
    def test_root_just_above_the_pass(self, shape):
        # at 2**16 steps the unit rod's trace crosses within roundoff above
        # the probe where the phase passes 2 pi: the root placed at or below
        # that probe is confirmed by the torque e/2 above it
        root = critical_torque_oracle(rod(shape), steps=2**16)
        assert abs(root - 2.0 * math.pi) <= 1e-15 * 2.0 * math.pi

    def test_bracket_of_adjacent_floats(self):
        # at tol 1e-15 a bracket of trace values closed to two adjacent
        # floats on these rods (an empty request to the kernel once): the
        # phase zero needs no bracket, and it lies at the crossing
        rng = Lcg64(2024)
        specs = [random_rod_spec(rng) for _ in range(44)]
        for spec in (specs[24], specs[28], specs[43]):
            root = critical_torque_oracle(spec, tol=1e-15)
            assert crossing_distance((spec.shape, spec.E, spec.J_ref, spec.J_ref), root) <= 2e-15
        m_star = critical_torque_value(specs[3])
        roots = eigenvalues_in(specs[3], 0.0, 9.5 * m_star, tol=1e-15)
        assert len(roots) == 9
        for k, root in enumerate(roots, 1):
            assert root == pytest.approx(k * m_star, rel=1e-9)

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


class TestRootAccuracy:
    def test_first_roots_at_the_trace_crossing(self):
        # the root is the kernel's own upward trace crossing to roundoff, on
        # rods of every kind (the flat rod's was 4.6e-14 off when the last
        # batch came from interpolated traces)
        rng = Lcg64(2024)
        rods = [(s.shape, s.E, s.J_ref, s.J_ref) for s in (random_rod_spec(rng) for _ in range(10))]
        rng = Lcg64(2026)
        anisotropic = [random_anisotropic_spec(rng) for _ in range(10)]
        rods += [(a.shape, a.E, a.section.Jy, a.section.Jz) for a in anisotropic]
        rng = Lcg64(43)
        rods += [(random_sampled_shape(rng), 1.3, 0.7, 0.7) for _ in range(10)]
        rods += [(s.shape, 1.0, 1.0, 1.0) for s in random_sampled_rods()[::10]]
        rods += [(shape, 1.0, 1.0, 1.0) for shape in HARD_SHAPES + [ShapeFunction.sampled([2.0, 2.0])]]
        for rod_tuple, root in zip(rods, oracle.first_roots(rods)):
            assert crossing_distance(rod_tuple, root) <= 4e-15


class TestLockstep:
    """Rods searched together, each stage run once for all of them."""

    @staticmethod
    def rods() -> list[tuple]:
        # 1-8 panels
        rods = []
        for seed in (15, 24, 61, 62):
            rng = Lcg64(seed)
            rods += [(random_piecewise_shape(rng), 1.0, 1.0, 1.0), (random_sampled_shape(rng), 1.0, 1.0, 1.0)]
            rods.append((random_piecewise_shape(rng), 1.3, 16.0 * rng.uniform(), 1.0))
        rods.append((ShapeFunction.sampled([1.0, 1.0, 1.0, 1.0, 1e-5, 1.0, 1.0, 1.0]), 1.0, 1.0, 1.0))
        rods.append((ShapeFunction.piecewise([0.0, 1.0 / 4096.0, 1.0], [1e-8, 1.0]), 2e11, 1e-8, 4e-8))
        # one panel beside 9, 40 and 200, and probe rows of 3 to 60 probes:
        # stiffness contrast down to 1e-8 and J_y / J_z = 16
        rng = np.random.default_rng(35)
        rods += [(ShapeFunction.constant(1.0), 1.0, 1.0, 1.0), (ShapeFunction.sampled([1.0, 2.0]), 1.0, 16.0, 1.0)]
        for nodes, lo in ((10, 1e-3), (41, 1e-8), (201, 1e-2)):
            rods.append((ShapeFunction.sampled(np.exp(rng.uniform(np.log(lo), 0.0, nodes))), 1.0, 1.0, 16.0))
        rods.append((ShapeFunction.piecewise(np.linspace(0.0, 1.0, 10), [1.0, 1e-8] * 4 + [1.0]), 1.0, 1.0, 1.0))
        rods.append((ShapeFunction.constant(1e-8, 2.0), 1.0, 1.0, 1.0))
        return rods

    def test_batched_roots_equal_single_roots(self, monkeypatch):
        brackets = []
        brentq = oracle.brentq

        def recording(f, a, b, **tolerances):
            brackets.append((a, b))
            return brentq(f, a, b, **tolerances)

        monkeypatch.setattr(oracle, "brentq", recording)
        rods = self.rods()
        single = []
        for shape, E, J_y, J_z in rods:
            aspec = AnisotropicRodSpec(E, AnisotropicSection(J_y, J_z), shape, LAW)
            single.append(first_root_anisotropic(aspec, tol=1e-15))
        fallbacks = sorted(brackets)
        brackets.clear()
        assert oracle.first_roots(rods, tol=1e-15) == single
        # the same brentq safeguards on the phase batched as alone, however
        # many (none now)
        assert sorted(brackets) == fallbacks

    def test_probe_rows_differ(self):
        # the rods' probe rows and panel rows are as uneven as the docstring says
        rods = self.rods()
        probes = [probe_torques(*rod, None).size for rod in rods]
        assert min(probes) == 3 and max(probes) >= 60
        assert {1, 9, 40, 200} <= {rod[0].panels()[1].size for rod in rods}

    def test_scan_ends_at_the_rods_own_last_probe(self, monkeypatch):
        # a phase that passes 2 pi at M = 20 only: the unit rod's three
        # probes end at 2 pi 1.4, so it has no root alone, and batched with a
        # rod probed far longer it must not take one from past its own probes
        monkeypatch.setattr(oracle, "_phase", lambda grid, M: 2.0 * math.pi * np.asarray(M) / 20.0)
        short = (ShapeFunction.constant(1.0), 1.0, 1.0, 1.0)
        long = (ShapeFunction.constant(1.0), 1.0, 16.0, 1.0)
        assert probe_torques(*short, None)[-1] < 20.0 < probe_torques(*long, None)[-1]
        with pytest.raises(RootSearchError) as alone:
            oracle.first_roots([short])
        with pytest.raises(RootSearchError) as batched:
            oracle.first_roots([short, long])
        assert str(batched.value) == str(alone.value)

    def test_one_pass_per_stage(self, monkeypatch):
        # the 100 rods of verify --n 50: one grid build, one phase call on
        # the probes and one kernel call for all of them
        calls = {"_step_grid": 0, "_phase": 0, "propagate": 0}
        for name in calls:
            original = getattr(oracle, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(oracle, name, counting)
        rng = Lcg64(2024)
        rods = [(s.shape, s.E, s.J_ref, s.J_ref) for s in (random_rod_spec(rng) for _ in range(50))]
        rng = Lcg64(2026)
        rods += [(a.shape, a.E, a.section.Jy, a.section.Jz) for a in (random_anisotropic_spec(rng) for _ in range(50))]
        assert len(oracle.first_roots(rods)) == 100
        assert calls == {"_step_grid": 1, "_phase": 1, "propagate": 1}

    def test_failing_rod_raises_its_own_error(self):
        # at 16 steps per panel these two find a trace crossing that is no eigenvalue
        good = self.rods()[:3]
        bad = [(ShapeFunction.sampled([1.0, 1e-8]), 1.0, 1.0, 1.0)]
        bad.append((ShapeFunction.sampled([1.0, 1e-8, 1.0]), 1.0, 1.0, 1.0))
        errors = []
        for shape, E, J_y, J_z in bad:
            with pytest.raises(RootSearchError) as alone:
                critical_torque_oracle(RodSpec(E, J_y, shape, LAW), steps=MIN_STEPS)
            errors.append(str(alone.value))
        assert errors[0] != errors[1]
        for rods, expected in ((good + bad, errors[0]), (bad[::-1] + good, errors[1]), (good + bad[1:], errors[1])):
            with pytest.raises(RootSearchError) as batched:
                oracle.first_roots(rods, steps=MIN_STEPS)
            assert str(batched.value) == expected


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

    def test_one_kernel_call(self, monkeypatch):
        # the phase places every root of the scan, and the one call shoots
        # the probes and three torques around each root.  Up to 200.5 M*
        # the 64 probes are 3.1 M* apart, so an interval holds several
        # roots, and only the torques around each show its crossing
        calls = []

        def counting(grid, M):
            calls.append(np.size(M))
            return propagate(grid, M)

        monkeypatch.setattr(oracle, "propagate", counting)
        rng = Lcg64(2024)
        specs = [random_rod_spec(rng) for _ in range(4)]
        cases = [(PIECEWISE, 0.05, 2.99, 4096, 1e-8), (specs[3], 0.0, 9.5, 4096, 1e-8),
                 (specs[0], 0.0, 200.5, 2**20, 1e-12)]
        for spec, lo, hi, steps, rel in cases:
            m_star = critical_torque_value(spec)
            calls.clear()
            roots = eigenvalues_in(spec, lo * m_star, hi * m_star, steps=steps)
            assert len(calls) == 1 and len(roots) == int(hi)
            for k, root in enumerate(roots, 1):
                assert root == pytest.approx(k * m_star, rel=rel)

    def test_several_roots_per_probe_interval(self, monkeypatch):
        # 64 probes 15.6 M* apart: the phase passes about 16 multiples of
        # 2 pi in each interval, and each is a root
        calls = []

        def counting(grid, M):
            calls.append(np.size(M))
            return propagate(grid, M)

        monkeypatch.setattr(oracle, "propagate", counting)
        spec = random_rod_spec(Lcg64(2024))
        m_star = critical_torque_value(spec)
        start = time.perf_counter()
        roots = eigenvalues_in(spec, 0.0, 1000.5 * m_star, steps=2**20)
        elapsed = time.perf_counter() - start
        assert len(calls) == 1 and len(roots) == 1000
        for k, root in enumerate(roots, 1):
            assert abs(root - k * m_star) <= 1e-12 * k * m_star
        assert elapsed < 1.0

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
