"""Shooting eigensolver: endpoint matrix, root search, convergence order."""

from __future__ import annotations

import ast
import cmath
import functools
import math
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
from twistrod.greenhill import critical_torque_value
from twistrod.oracle import (
    DEFAULT_PROBES,
    DEFAULT_TOL,
    MIN_STEPS,
    StepGrid,
    build_step_grid,
    convergence_study,
    critical_torque_oracle,
    eigenvalues_in,
    probe_torques,
    propagate,
    shoot,
)
from twistrod.sampling import Lcg64, random_piecewise_shape, random_rod_spec
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

    def test_grid_length_is_requested_steps(self):
        rng = Lcg64(53)
        for shape in [random_piecewise_shape(rng) for _ in range(20)] + [
            random_sampled_shape(rng) for _ in range(20)
        ]:
            panels = shape.panel_edges().size - 1
            for steps in (MIN_STEPS, 1003, 4095, 4096, 4097, 4100):
                steps = max(steps, panels)
                assert len(build_step_grid(shape, 1.0, 1.0, 1.0, steps)) == steps
        # panels whose share is below one step get one, the others share the rest
        narrow = ShapeFunction.piecewise([0.0, 1e-9, 2e-9, 1.0], [1.0, 2.0, 3.0])
        assert build_step_grid(narrow, 1.0, 1.0, 1.0, 100).counts.tolist() == [1, 1, 98]
        many = ShapeFunction.piecewise(np.linspace(0.0, 1.0, 41), np.arange(1.0, 41.0))
        assert len(build_step_grid(many, 1.0, 1.0, 1.0, MIN_STEPS)) == 40

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


def longdouble_endpoint(grid: StepGrid, M) -> np.ndarray:
    """Endpoint matrices of a one-rod ``grid`` at the torques ``M`` in
    np.longdouble: each panel's augmented step map [[A, B], [0, I]], formed
    from the grid's coefficients as the oracle docstring writes it, raised
    to its count by repeated squaring and composed in panel order."""
    (a1, b1), (a3, b3), (p2, q2), (p4, q4) = grid.poly.astype(np.longdouble)
    m = np.asarray(M, dtype=np.longdouble)[:, None]
    B11, B22 = a1 - m * m * a3, b1 - m * m * b3
    B12, B21 = m * (p2 - m * m * p4), -m * (q2 - m * m * q4)
    one, zero = np.ones_like(B11), np.zeros_like(B11)
    rows = [
        [1 - m * B12, m * B11, B11, B12],
        [-m * B22, 1 + m * B21, B21, B22],
        [zero, zero, one, zero],
        [zero, zero, zero, one],
    ]
    step = np.moveaxis(np.array(rows), (0, 1), (-2, -1))
    power = np.broadcast_to(np.eye(4, dtype=np.longdouble), step.shape).copy()
    counts = grid.counts.copy()
    while counts.any():
        odd = counts % 2 == 1
        power[:, odd] = step[:, odd] @ power[:, odd]
        step = step @ step
        counts //= 2
    total = power[:, 0]
    for panel in range(1, grid.counts.size):
        total = power[:, panel] @ total
    return total[:, :2, 2:]


def kernel_error(grid: StepGrid, M) -> float:
    """Largest difference of ``propagate`` from the long-double reference,
    relative to max |S| at each torque."""
    reference = longdouble_endpoint(grid, M)
    error = np.abs(propagate(grid, np.asarray(M, dtype=float)) - reference)
    return float(np.max(error.max(axis=(1, 2)) / np.abs(reference).max(axis=(1, 2))))


class TestClosedFormPowers:
    """Each panel's map is raised to its count in closed form."""

    def test_matches_longdouble_powers(self):
        # squaring in double was up to 1e-11 off on these grids
        worst = 0.0
        for seed in range(10):
            rng = Lcg64(seed)
            shapes = [random_piecewise_shape(rng), random_sampled_shape(rng)]
            shapes += [ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 1e-8]), ShapeFunction.sampled([1.0, 1e-8])]
            for shape in shapes:
                for J_y, J_z in ((1.0, 1.0), (16.0, 1.0)):
                    m_star = critical_torque_value(RodSpec(1.0, math.sqrt(J_y * J_z), shape, LAW))
                    for steps, factors in (
                        (MIN_STEPS, [0.0, 0.37, 1.3, 97.0, 103.0]),
                        (4096, [0.0, 0.37, 1.3, 3.1]),
                        (2**18, [0.0, 1e-3, 0.37, 1.3]),
                    ):
                        grid = build_step_grid(shape, 1.0, J_y, J_z, steps)
                        worst = max(worst, kernel_error(grid, m_star * np.array(factors)))
        assert worst <= 1e-12

    def test_real_spectrum_and_zero_torque(self):
        # coefficients no rod has.  Panel 0: B11 B22 < 0, so N has the real
        # eigenvalues +-M sqrt(2) (omega**2 < 0).  Panel 1: B22 = 0, a
        # nilpotent N (omega = 0 and det N = 0).  Panel 3: a double eigenvalue
        # 1/2 of A at M = 1, real ones of opposite signs at M = 1.5 and of
        # one sign at M = 2.  At M = 0, N = 0 and S is the sum of B.
        poly = np.zeros((4, 2, 4))
        poly[0] = [[1.0, 0.3, 1.0, 0.25], [-2.0, 0.0, 1.0, 0.25]]
        poly[2] = [[0.0, 0.0, 0.4, 0.25], [0.0, 0.0, 0.1, 0.75]]
        grid = StepGrid(poly, np.array([3, 1000, 7, 5]))
        assert kernel_error(grid, [0.0, 1e-3, 0.5, 1.0, 1.5, 2.0]) <= 1e-12
        np.testing.assert_array_equal(propagate(grid, [0.0])[0], [[311.25, 0.0], [0.0, 2.25]])


class TestRunLengthKernel:
    """Each panel's steps, all alike, raised to their count at once."""

    def test_one_step_panel_and_unequal_runs(self):
        # panels of 2, 891 and 3203 steps: different count bit patterns
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
        # every panel is one run; steps go by share of the phase plus share
        # of |log(f1/f0)|: 2/3 and 1/3 of them here, where F is 1 and 2
        grid = build_step_grid(PIECEWISE.shape, 1.0, 1.0, 1.0, 4096)
        assert grid.counts.tolist() == [2731, 1365] and len(grid) == 4096
        flat = rod(ShapeFunction.sampled([2.0, 2.0]))
        assert build_step_grid(flat.shape, 1.0, 1.0, 1.0, 4096).counts.tolist() == [4096]
        assert critical_torque_oracle(flat) == critical_torque_oracle(DOUBLE) == 12.566370614359172
        dip = ShapeFunction.sampled([1.0, 1.0, 1.0, 1.0, 1e-5, 1.0, 1.0, 1.0])
        grid = build_step_grid(dip, 1.0, 1.0, 1.0, 4096)
        assert grid.counts.tolist() == [73, 73, 73, 1866, 1865, 73, 73]
        assert len(grid) == 4096 and grid.poly.shape == (4, 2, 7)

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
            roots = eigenvalues_in(spec, 0.05 * m_star, 2.99 * m_star, steps=4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(roots) == 2
        assert peak < 8 * 2**20


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
            ms = probe_torques(shape, spec.E, spec.J_ref, spec.J_ref, None, DEFAULT_PROBES)
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

    def test_takes_over_when_a_batch_fails_to_halve_the_bracket(self, monkeypatch):
        # a triple zero of the trace defeats the interpolated batches
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
        monkeypatch.setattr(oracle, "propagate", cubic_trace)
        root = critical_torque_oracle(UNIFORM, bracket=(1.0, 9.0))
        assert len(brackets) == 1 and brackets[0][0] < 5.3 < brackets[0][1]
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestUnresolvedRods:
    """Rods whose soft part 4096 steps shared out by width could not follow:
    geometric steps shared by phase resolve them, and no step map may
    overflow on the way."""

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
        monkeypatch.setattr(oracle, "critical_torque_value", closed_form)
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

    def test_four_kernel_calls_per_root(self, monkeypatch):
        # one scan call, then batches of at most 8 new torques
        calls = []

        def counting(grid, M):
            calls.append(np.array(M, dtype=float).ravel())
            return propagate(grid, M)

        monkeypatch.setattr(oracle, "propagate", counting)
        critical_torque_oracle(PIECEWISE)
        refined = np.concatenate(calls[1:]).tolist()
        assert len(calls) <= 4
        assert max(m.size for m in calls[1:]) <= 8
        assert not set(refined) & set(calls[0].tolist())
        calls.clear()
        rng = Lcg64(2024)
        for _ in range(50):
            critical_torque_oracle(random_rod_spec(rng))
        assert len(calls) <= 4 * 50

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


class TestLockstep:
    """Rods searched together, one kernel call per round for all of them."""

    @staticmethod
    def rods() -> list[tuple]:
        # 1-8 panels; Lcg64(15) and Lcg64(24) hold rods that fall back to
        # brentq at tol 1e-15
        rods = []
        for seed in (15, 24, 61, 62):
            rng = Lcg64(seed)
            rods += [(random_piecewise_shape(rng), 1.0, 1.0, 1.0), (random_sampled_shape(rng), 1.0, 1.0, 1.0)]
            rods.append((random_piecewise_shape(rng), 1.3, 16.0 * rng.uniform(), 1.0))
        rods.append((ShapeFunction.sampled([1.0, 1.0, 1.0, 1.0, 1e-5, 1.0, 1.0, 1.0]), 1.0, 1.0, 1.0))
        rods.append((ShapeFunction.piecewise([0.0, 1.0 / 4096.0, 1.0], [1e-8, 1.0]), 2e11, 1e-8, 4e-8))
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
        assert fallbacks and sorted(brackets) == fallbacks

    def test_failing_rod_raises_its_own_error(self):
        # at 16 steps these two find a trace crossing that is no eigenvalue
        good = self.rods()[:3]
        bad = [(ShapeFunction.sampled([1.0, 1e-8]), 1.0, 1.0, 1.0)]
        bad.append((ShapeFunction.sampled([1.0, 1e-8, 1.0, 1e-8, 1.0]), 1.0, 1.0, 1.0))
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
