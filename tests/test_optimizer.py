"""Fixed-volume torque maximization: ascent, brute force, optimality."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistrod.cli import main
from twistrod.isoperimetric import upper_bound
from twistrod.optimizer import (
    GAP_CONVERGED,
    OptimizationProblem,
    OptimizerIterate,
    _equal_edges,
    brute_force_segments,
    objective,
    optimize,
)
from twistrod.sampling import Lcg64, law_for_exponent, random_areas
from twistrod.shape import AreaProfile, CrossSectionLaw, RodSpec, ShapeFunction, area_profile

LAW1 = CrossSectionLaw(1, 1.0)
NONFINITE = [math.nan, math.inf]
# The reference search builds a profile per allocation, up to 780 of them
BRUTE_FORCE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def reference_brute_force(V, L, law, E, k, grid):
    """The exhaustive search as nested loops over validated profiles."""
    h = L / k
    edges = np.linspace(0.0, L, k + 1)
    fractions = (np.arange(grid) + 0.5) / grid
    if k == 2:
        allocs = [(t1 * V, (1.0 - t1) * V) for t1 in fractions]
    else:
        allocs = [
            (t1 * V, t2 * V, (1.0 - t1 - t2) * V)
            for t1 in fractions
            for t2 in fractions
            if t1 + t2 < 1.0
        ]
    best_value, best = -math.inf, None
    for alloc in allocs:
        value = objective(AreaProfile.piecewise(edges, np.asarray(alloc) / h), E, law)
        if value > best_value:
            best_value, best = value, np.asarray(alloc) / h
    return best


def reference_optimize(problem, max_iters=1000, tol=1e-10):
    """The projected ascent as one loop that takes the full trial step and
    forms every iterate's volume and gap from that iterate's own areas.
    Returns the iterates as ``(areas, M_star, volume_residual, gap)``
    tuples, ``converged`` and ``final_gap``."""
    k = problem.areas.size
    n = problem.law.n
    h = problem.L / k
    mean = problem.V_target / problem.L
    widths = np.diff(np.linspace(0.0, problem.L, k + 1))

    def rescale(a):
        return a * (problem.V_target / (h * float(np.sum(a))))

    def score(a):
        compliance = np.sum(widths * a ** (-problem.law.n), axis=-1)
        return float(2.0 * math.pi * problem.E * problem.law.alpha / compliance)

    def record(a, m):
        volume = float(np.sum(widths * a))
        profile_mean = volume / problem.L
        return (
            a.copy(),
            m,
            abs(volume - problem.V_target) / problem.V_target,
            float(np.max(np.abs(a - profile_mean)) / profile_mean),
        )

    areas = rescale(problem.areas.copy())
    current = score(areas)
    iterates = [record(areas, current)]

    for _ in range(max_iters):
        grad = (np.min(areas) / areas) ** (n + 1)  # n h A**(-n-1) over its largest entry
        candidate = rescale(areas + mean / (n + 1) * grad)
        value = score(candidate)
        if (value - current) / current < tol:  # a loss included
            break
        areas, current = candidate, value
        iterates.append(record(areas, current))

    final_gap = iterates[-1][3]
    return iterates, final_gap <= 1e-3, final_gap


def assert_trace_matches_reference(trace, problem, **kwargs):
    """Every iterate of ``trace`` carries the reference loop's floats, bit for bit."""
    expected, converged, final_gap = reference_optimize(problem, **kwargs)
    assert len(trace.iterates) == len(expected)
    for it, (areas, m_star, residual, gap) in zip(trace.iterates, expected):
        assert it.areas.tobytes() == areas.tobytes()
        assert type(it.M_star) is float and it.M_star == m_star
        assert type(it.volume_residual) is float and it.volume_residual == residual
        assert type(it.gap) is float and it.gap == gap
    assert trace.converged is converged
    assert trace.final_gap == final_gap


@pytest.fixture
def piecewise_count(monkeypatch):
    """Count ``ShapeFunction.piecewise`` constructions from here on."""
    calls = []
    original = ShapeFunction.piecewise

    def counting(cls, breakpoints, values):
        calls.append(1)
        return original(breakpoints, values)

    monkeypatch.setattr(ShapeFunction, "piecewise", classmethod(counting))
    return calls


class TestObjective:
    def test_constant_area_attains_bound(self):
        rng = Lcg64(73)
        for n in (1, 2, 3):
            law = law_for_exponent(n)
            for _ in range(5):
                V = rng.log_uniform(0.5, 4.0)
                L = rng.log_uniform(0.5, 4.0)
                E = rng.log_uniform(0.5, 4.0)
                prof = AreaProfile.constant(V / L, L)
                assert objective(prof, E, law) == pytest.approx(
                    upper_bound(E, law, V, L), rel=1e-12
                )

    def test_two_segment_hand_value(self):
        # compliance = 0.5/1 + 0.5/3 = 2/3, so the torque is 3 pi
        prof = AreaProfile.piecewise([0.0, 0.5, 1.0], [1.0, 3.0])
        assert objective(prof, 1.0, LAW1) == pytest.approx(3.0 * math.pi, rel=1e-13)

    def test_homogeneous_in_area(self):
        prof = AreaProfile.piecewise([0.0, 0.5, 1.0], [1.0, 3.0])
        lam = 1.7
        scaled = AreaProfile.piecewise([0.0, 0.5, 1.0], [lam, 3.0 * lam])
        for n in (1, 2, 3):
            law = law_for_exponent(n)
            assert objective(scaled, 1.0, law) == pytest.approx(
                lam**n * objective(prof, 1.0, law), rel=1e-12
            )

    def test_degenerate_area_cannot_be_built(self):
        # a zero or negative panel area never reaches the objective
        for areas in ([0.0], [1.0, 0.0], [1.0, -2.0], [-1.0]):
            with pytest.raises(ValueError):
                AreaProfile.piecewise(np.linspace(0.0, 1.0, len(areas) + 1), areas)

    def test_rejects_profile_without_panel_values(self):
        shape = ShapeFunction.sampled([1.0, 2.0], 1.0)
        prof = area_profile(RodSpec(E=1.0, J_ref=1.0, shape=shape, law=LAW1))
        with pytest.raises(ValueError):
            objective(prof, 1.0, LAW1)


class TestLagrangeGap:
    """The gap sup |A - V/L| / (V/L), ``AreaProfile.max_relative_deviation``."""

    def test_constant_is_zero(self):
        assert AreaProfile.constant(3.3, 2.0).max_relative_deviation() == 0.0

    def test_two_segment_value(self):
        prof = AreaProfile.piecewise([0.0, 0.5, 1.0], [1.0, 3.0])
        assert prof.max_relative_deviation() == pytest.approx(0.5, rel=1e-12)

    def test_equal_segments_zero(self):
        prof = AreaProfile.piecewise([0.0, 0.5, 1.0], [2.0, 2.0])
        assert prof.max_relative_deviation() == 0.0


class TestProblemValidation:
    def test_from_areas_rescales_to_volume(self):
        prob = OptimizationProblem.from_areas([1.0, 3.0], 2.0, 1.0, LAW1, 1.0)
        assert prob.areas.tolist() == [1.0, 3.0]
        assert 0.5 * float(np.sum(prob.areas)) == pytest.approx(2.0, rel=1e-14)

    def test_rejects_volume_mismatch(self):
        with pytest.raises(ValueError):
            OptimizationProblem(V_target=3.0, L=1.0, law=LAW1, E=1.0, areas=[1.0, 3.0])

    def test_volume_tolerance_from_both_sides(self):
        # a start within VOLUME_TOL = 1e-10 of the target volume passes
        OptimizationProblem(V_target=2.0 * (1.0 + 5e-11), L=1.0, law=LAW1, E=1.0, areas=[1.0, 3.0])
        with pytest.raises(ValueError, match="misses target"):
            OptimizationProblem(
                V_target=2.0 * (1.0 + 2e-10), L=1.0, law=LAW1, E=1.0, areas=[1.0, 3.0]
            )

    def test_rejects_nonpositive_areas(self):
        with pytest.raises(ValueError):
            OptimizationProblem.from_areas([1.0, -1.0], 2.0, 1.0, LAW1, 1.0)

    @pytest.mark.parametrize(
        "areas, message",
        [
            ([1.0, math.nan], "finite, got nan"),
            ([math.nan, -1.0], "finite, got nan"),
            ([1.0, math.inf], "finite, got inf"),
            ([math.inf] * 3, "finite, got inf"),
            ([1.0, 1e308, 1e308], "sum of the panel areas overflows"),
            ([1.0, -math.inf], "positive"),
        ],
    )
    def test_rejects_nonfinite_areas_up_front(self, areas, message):
        # named before any arithmetic, so no RuntimeWarning comes first
        with pytest.raises(ValueError, match=message):
            OptimizationProblem.from_areas(areas, 2.0, 1.0, LAW1, 1.0)

    def test_largest_finite_sum_is_accepted(self):
        prob = OptimizationProblem.from_areas([1e308, 7e307], 2.0, 1.0, LAW1, 1.0)
        assert 0.5 * float(np.sum(prob.areas)) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("areas", [[], np.zeros(0), 2.0, [[1.0, 3.0]]])
    def test_rejects_areas_that_are_no_vector(self, areas):
        with pytest.raises(ValueError, match="non-empty vector"):
            OptimizationProblem.from_areas(areas, 2.0, 1.0, LAW1, 1.0)

    @pytest.mark.parametrize(
        "areas, message",
        [
            ([1.0, math.nan], "profile values must be finite"),
            ([math.inf, 1.0], "profile values must be finite"),
            ([0.0, 2.0], r"strictly positive \(min 0 vs max 2\)"),
            ([-1.0, 5.0], "strictly positive"),
            ([[1.0, 3.0]], "non-empty vector"),
            ([], "non-empty vector"),
        ],
    )
    def test_direct_construction_checks_the_start(self, areas, message):
        with pytest.raises(ValueError, match=message):
            OptimizationProblem(V_target=2.0, L=1.0, law=LAW1, E=1.0, areas=areas)

    def test_contrast_floor_from_both_sides(self):
        # the smallest area must exceed MIN_RELATIVE_STIFFNESS = 1e-9 of the largest
        OptimizationProblem.from_areas([1.0, 1.01e-9], 2.0, 1.0, LAW1, 1.0)
        with pytest.raises(ValueError, match="strictly positive"):
            OptimizationProblem.from_areas([1.0, 0.99e-9], 2.0, 1.0, LAW1, 1.0)

    @pytest.mark.parametrize(
        "areas, V, L, message",
        [
            ([1e-10, 1e-10], 1e300, 1.0, r"target volume 1e\+300 cannot be reached"),  # overflows
            ([1.0, 1.0], 1e-320, 1e10, "target volume 1e-320 cannot be reached"),  # underflows
            ([1.0, 1.0], 5e-324, 1e-200, "volume must be positive and finite, got 0.0"),
            ([1.0, 1.0, 1.0], 1.7976931348623157e308, 3.0, "volume must be positive and finite, got inf"),
            # panels of a subnormal width L / k are unequal, or do not increase
            ([1.0] * 3, 1e-320, 1e-320, "panels must have equal length"),
            ([1.0, 1.0], 5e-324, 5e-324, "breakpoints must be strictly increasing"),
            ([1e300, 1e300], 1e300, 1e-10, r"target volume 1e\+300 cannot be reached"),  # areas overflow
        ],
    )
    def test_rescale_past_the_floats_is_rejected(self, areas, V, L, message):
        # no RuntimeWarning on the way, which tier-1 turns into an error
        with pytest.raises(ValueError, match=message):
            OptimizationProblem.from_areas(areas, V, L, LAW1, 1.0)

    @pytest.mark.parametrize("key", ["V_target", "L", "E"])
    @pytest.mark.parametrize("bad", NONFINITE)
    def test_rejects_nonfinite_parameters(self, key, bad):
        params = {"V_target": 2.0, "L": 1.0, "E": 1.0}
        params[key] = bad
        with pytest.raises(ValueError, match=key):
            OptimizationProblem(law=LAW1, areas=[1.0, 3.0], **params)
        with pytest.raises(ValueError):
            OptimizationProblem.from_areas([1.0, 3.0], law=LAW1, **params)


class TestPanelEdges:
    """The equal-width panel edges of a problem (those the ascent and the
    problem's checks use) and of a brute-force winner are
    ``np.linspace(0.0, L, k + 1)``, byte for byte."""

    LENGTHS = [10.0**e for e in range(-6, 7)] + [
        Lcg64(1201 + i).log_uniform(1e-6, 1e6) for i in range(12)
    ]

    @pytest.mark.parametrize("L", LENGTHS)
    def test_problem_edges_are_linspace(self, L):
        for k in range(1, 201):
            prob = OptimizationProblem.from_areas([1.0] * k, L, L, LAW1, 1.0)
            edges = _equal_edges(prob.L, prob.areas.size)
            assert edges.tobytes() == np.linspace(0.0, L, k + 1).tobytes()

    @pytest.mark.parametrize("L", LENGTHS)
    def test_brute_force_edges_are_linspace(self, L):
        for k in (2, 3):
            best = brute_force_segments(L, L, LAW1, 1.0, k, 5)
            assert best.panel_edges.tobytes() == np.linspace(0.0, L, k + 1).tobytes()


class TestOptimize:
    def test_two_segments_converge_to_constant(self):
        prob = OptimizationProblem.from_areas([1.0, 3.0], 2.0, 1.0, LAW1, 1.0)
        trace = optimize(prob)
        assert trace.converged
        assert trace.final_gap <= 1e-3
        bound = upper_bound(1.0, LAW1, 2.0, 1.0)  # = 4 pi
        assert bound == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert trace.final.M_star / bound >= 1.0 - 1e-6
        np.testing.assert_allclose(trace.final.areas, 2.0, rtol=2e-3)

    def test_constant_init_stops_immediately(self):
        prob = OptimizationProblem.from_areas([2.0, 2.0], 2.0, 1.0, LAW1, 1.0)
        trace = optimize(prob)
        assert len(trace.iterates) == 1  # only the starting point
        assert trace.converged
        assert trace.final_gap == 0.0

    def test_random_eight_segment_inits(self):
        rng = Lcg64(79)
        for case in range(3):
            law = law_for_exponent(1 + case % 3)
            prob = OptimizationProblem.from_areas(
                random_areas(rng, 8), 2.0, 1.0, law, 1.0
            )
            trace = optimize(prob)
            assert trace.converged
            assert trace.final_gap <= 1e-3
            bound = upper_bound(1.0, law, 2.0, 1.0)
            assert trace.final.M_star / bound >= 1.0 - 1e-6

    def test_monotone_ascent_and_volume_conservation(self):
        rng = Lcg64(83)
        prob = OptimizationProblem.from_areas(
            random_areas(rng, 6), 3.0, 2.0, law_for_exponent(2), 1.5
        )
        trace = optimize(prob)
        values = [it.M_star for it in trace.iterates]
        for prev, nxt in zip(values, values[1:]):
            assert nxt >= prev * (1.0 - 1e-12)
        for it in trace.iterates:
            assert it.volume_residual <= 1e-10

    def test_rejects_negative_max_iters(self):
        prob = OptimizationProblem.from_areas([1.0, 3.0], 2.0, 1.0, LAW1, 1.0)
        with pytest.raises(ValueError, match="max_iters"):
            optimize(prob, max_iters=-1)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -5e-324])
    def test_rejects_nan_or_negative_tol(self, tol):
        # a NaN gain test never stops the ascent, a negative tol accepts losses
        prob = OptimizationProblem.from_areas([1.0, 3.0], 2.0, 1.0, LAW1, 1.0)
        with pytest.raises(ValueError, match="tol must be at least 0"):
            optimize(prob, tol=tol)

    def test_zero_tol_stops_at_the_first_loss(self):
        prob = OptimizationProblem.from_areas([1.0, 3.0], 2.0, 1.0, LAW1, 1.0)
        values = [it.M_star for it in optimize(prob, tol=0.0).iterates]
        assert all(nxt >= prev for prev, nxt in zip(values, values[1:]))

    def test_json_lines(self):
        prob = OptimizationProblem.from_areas([1.0, 3.0], 2.0, 1.0, LAW1, 1.0)
        trace = optimize(prob)
        lines = trace.to_json_lines().split("\n")
        assert len(lines) == len(trace.iterates)
        first = json.loads(lines[0])
        assert set(first) == {"iteration", "M_star", "gap", "volume_residual"}
        assert first["iteration"] == 0

    def test_overflowing_start_torque_is_rejected(self):
        prob = OptimizationProblem.from_areas([1.0, 2.0, 3.0], 1.0, 1.0, LAW1, 1e308)
        with pytest.raises(ValueError, match="torque of the starting profile"):
            optimize(prob)

    def test_overflowing_constant_section_torque_is_rejected(self):
        # the start's torque is finite, but the ascent would climb to inf
        prob = OptimizationProblem.from_areas([0.01, 19.99], 10.0, 1.0, LAW1, 2e307)
        with pytest.raises(ValueError, match="torque of the constant section"):
            optimize(prob)


def power_counting_areas(areas, powers):
    """A read-only stand-in for the start ``areas`` that, with every array
    computed from it, appends to ``powers`` at each ``np.power`` call."""

    class Areas(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            if ufunc is np.power:
                powers.append(1)
            plain = [x.view(np.ndarray) if isinstance(x, Areas) else x for x in inputs]
            if out is not None:
                kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
            result = getattr(ufunc, method)(*plain, **kwargs)
            if out is not None:
                return out[0]
            return result.view(Areas) if isinstance(result, np.ndarray) else result

    # a view of a read-only array is read-only: the problem stores it, uncopied
    plain = areas.copy()
    plain.setflags(write=False)
    return plain.view(Areas)


class TestConvergenceRate:
    """The first trial moves the steepest panel by mean/(n+1), which cancels
    the start's deviation to first order, so the ascent takes a handful of
    steps; a trial within the roundoff floor ends it."""

    def mix(self):
        """Benchmark-like starts: 10 per segment count 4, 16, 64 and law n = 1-3."""
        rng = Lcg64(1931)
        for _ in range(10):
            for n in (1, 2, 3):
                for k in (4, 16, 64):
                    V, L, E = (rng.log_uniform(0.5, 2.0) for _ in range(3))
                    law = law_for_exponent(n)
                    yield OptimizationProblem.from_areas(random_areas(rng, k), V, L, law, E)

    def test_seeded_mix_converges_in_few_steps(self):
        steps = []
        for prob in self.mix():
            trace = optimize(prob)
            steps.append(len(trace.iterates) - 1)
            assert trace.converged and trace.final_gap <= GAP_CONVERGED
            bound = upper_bound(prob.E, prob.law, prob.V_target, prob.L)
            assert trace.final.M_star <= bound * (1.0 + 1e-10)
        assert len(steps) == 90
        assert max(steps) <= 12
        assert sum(steps) / len(steps) <= 8.0

    def test_seeded_mix_matches_reference(self):
        for prob in self.mix():
            assert_trace_matches_reference(optimize(prob), prob)

    @pytest.mark.parametrize("k", [1, 4, 64])
    def test_constant_start_ends_after_one_trial(self, k):
        prob = OptimizationProblem.from_areas([2.0] * k, 2.0, 1.0, law_for_exponent(3), 1.0)
        iterates, converged, _ = reference_optimize(prob)
        assert len(iterates) == 1 and converged
        # the program's own count: each trial raises its candidate to -n once
        powers = []
        counted = OptimizationProblem(
            prob.V_target, prob.L, prob.law, prob.E, power_counting_areas(prob.areas, powers)
        )
        assert counted.areas.__class__ is not np.ndarray  # kept, not copied
        assert len(optimize(counted).iterates) == 1
        assert len(powers) == 3  # the start's torque, one gradient, one trial


class TestBruteForce:
    def test_two_segments_finds_constant(self):
        best = brute_force_segments(2.0, 1.0, LAW1, 1.0, 2, 101)
        np.testing.assert_allclose(best.panel_values, [2.0, 2.0], rtol=1e-12)

    def test_three_segments_near_constant(self):
        best = brute_force_segments(2.0, 1.0, law_for_exponent(2), 1.0, 3, 101)
        # the barycenter is not a grid point for k = 3; stay within one cell
        assert np.max(np.abs(best.panel_values * (1.0 / 3.0) - 2.0 / 3.0)) <= 2.0 / 101

    def test_single_grid_point_is_constant_split(self):
        best = brute_force_segments(2.0, 1.0, LAW1, 1.0, 2, 1)
        np.testing.assert_allclose(best.panel_values, [2.0, 2.0], rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            brute_force_segments(2.0, 1.0, LAW1, 1.0, 4, 11)
        with pytest.raises(ValueError):
            brute_force_segments(2.0, 1.0, LAW1, 1.0, 2, 500)

    def test_three_segments_need_two_grid_points(self):
        # one midpoint fraction per axis is 1/2 + 1/2: no allocation remains
        with pytest.raises(ValueError, match="grid_points"):
            brute_force_segments(2.0, 1.0, LAW1, 1.0, 3, 1)
        assert brute_force_segments(2.0, 1.0, LAW1, 1.0, 3, 2).panel_values.size == 3

    @pytest.mark.parametrize("index", [0, 1, 3])
    @pytest.mark.parametrize("bad", NONFINITE)
    def test_rejects_nonfinite_parameters(self, index, bad):
        args = [2.0, 1.0, LAW1, 1.0, 2, 11]
        args[index] = bad
        with pytest.raises(ValueError, match="finite"):
            brute_force_segments(*args)

    def test_rejects_allocation_that_underflows(self):
        # the smallest fraction of the least subnormal volume rounds to 0
        with pytest.raises(ValueError, match="smallest candidate panel area"):
            brute_force_segments(5e-324, 1.0, LAW1, 1.0, 2, 200)

    def test_tie_goes_to_first_allocation(self):
        # allocations (1, 3) and (3, 1) have exactly equal compliance
        best = brute_force_segments(2.0, 1.0, LAW1, 1.0, 2, 2)
        assert best.panel_values.tolist() == [1.0, 3.0]

    def test_ascent_beats_or_matches_brute_force(self):
        for k in (2, 3):
            law = law_for_exponent(k)  # n = 2 and 3 here
            best = brute_force_segments(1.5, 1.0, law, 1.0, k, 51)
            brute_value = objective(best, 1.0, law)
            prob = OptimizationProblem.from_areas(
                best.panel_values, 1.5, 1.0, law, 1.0
            )
            trace = optimize(prob)
            assert trace.final.M_star >= brute_value * (1.0 - 1e-8)
            assert trace.final_gap <= 1e-3


class TestRawAreaScoring:
    """The ascent and the exhaustive search score raw area vectors; a
    validated profile is built only for the brute-force result."""

    def test_profile_constructions(self, piecewise_count):
        prob = OptimizationProblem.from_areas(
            random_areas(Lcg64(89), 16), 2.0, 1.0, law_for_exponent(2), 1.0
        )
        piecewise_count.clear()
        trace = optimize(prob)
        assert len(trace.iterates) > 2
        assert len(piecewise_count) == 0
        brute_force_segments(2.0, 1.0, LAW1, 1.0, 3, 17)
        assert len(piecewise_count) == 1

    @pytest.mark.parametrize("k, grids", [(2, [1, 2, 7, 50, 121, 200]), (3, [2, 3, 17, 40])])
    def test_brute_force_matches_reference_loops(self, k, grids):
        rng = Lcg64(97)
        for grid in grids:
            for n in (1, 2, 3):
                law = law_for_exponent(n)
                V = rng.log_uniform(0.5, 4.0)
                L = rng.log_uniform(0.5, 4.0)
                E = rng.log_uniform(0.5, 4.0)
                best = brute_force_segments(V, L, law, E, k, grid)
                expected = reference_brute_force(V, L, law, E, k, grid)
                assert best.panel_values.tobytes() == expected.tobytes()

    @BRUTE_FORCE_SETTINGS
    @given(
        st.one_of(
            st.tuples(st.just(2), st.integers(1, 200)),
            st.tuples(st.just(3), st.integers(2, 40)),
        ),
        st.integers(1, 3),
        st.tuples(*(st.floats(-6.0, 6.0).map(lambda e: 10.0**e) for _ in range(3))),
    )
    def test_brute_force_matches_reference_loops_over_decades(self, k_grid, n, scales):
        # V, L and E over twelve decades, where a reordered ``alloc / h``
        # or ``t * V`` would round differently
        (k, grid), (V, L, E) = k_grid, scales
        law = law_for_exponent(n)
        best = brute_force_segments(V, L, law, E, k, grid)
        expected = reference_brute_force(V, L, law, E, k, grid)
        assert best.panel_values.tobytes() == expected.tobytes()

    def test_iterates_match_validated_profiles(self):
        rng = Lcg64(101)
        for case in range(6):
            k = (4, 16, 64)[case % 3]
            law = law_for_exponent(1 + case % 3)
            V, L, E = 1.5, 0.8, 2.5
            prob = OptimizationProblem.from_areas(random_areas(rng, k), V, L, law, E)
            edges = np.linspace(0.0, L, k + 1)
            for it in optimize(prob).iterates:
                prof = AreaProfile.piecewise(edges, it.areas)
                assert it.M_star == objective(prof, E, law)
                assert it.volume_residual == abs(prof.volume - V) / V
                assert it.gap == prof.max_relative_deviation()


class TestStackedIterates:
    """The ascent keeps accepted areas and torques and forms volumes and
    gaps once from the stacked iterates; the traces are the reference
    loop's, byte for byte."""

    @pytest.mark.parametrize("k", [1, 2, 4, 16, 64])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_starts_match_reference(self, k, n):
        rng = Lcg64(1000 * k + n)
        law = law_for_exponent(n)
        for _ in range(4):
            V, L, E = (rng.log_uniform(0.2, 5.0) for _ in range(3))
            prob = OptimizationProblem.from_areas(random_areas(rng, k), V, L, law, E)
            assert_trace_matches_reference(optimize(prob), prob)

    @pytest.mark.parametrize("max_iters", [0, 1])
    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_truncated_runs_match_reference(self, max_iters, k):
        prob = OptimizationProblem.from_areas(
            random_areas(Lcg64(7 + k), k), 1.3, 0.7, law_for_exponent(2), 1.9
        )
        trace = optimize(prob, max_iters=max_iters)
        assert len(trace.iterates) <= max_iters + 1
        assert_trace_matches_reference(trace, prob, max_iters=max_iters)

    @pytest.mark.parametrize("k", [1, 2, 16])
    def test_constant_start_matches_reference(self, k):
        prob = OptimizationProblem.from_areas([1.0] * k, 2.0, 1.0, law_for_exponent(3), 1.0)
        trace = optimize(prob)
        assert_trace_matches_reference(trace, prob)
        assert trace.final_gap == 0.0

    def test_loose_tolerance_matches_reference(self):
        prob = OptimizationProblem.from_areas(
            random_areas(Lcg64(31), 8), 2.0, 1.0, law_for_exponent(1), 1.0
        )
        assert_trace_matches_reference(optimize(prob, tol=1e-3), prob, tol=1e-3)

    def test_cli_output_matches_reference(self, tmp_path, capsys):
        doc = {"V": 1.7, "L": 1.2, "E": 0.9, "law": {"n": 2, "alpha": 0.25}}
        spec = tmp_path / "prob.json"
        spec.write_text(json.dumps(doc))
        assert main(["optimize", "--spec", str(spec), "--segments", "12", "--seed", "7"]) == 0
        out = capsys.readouterr().out

        law = CrossSectionLaw(2, 0.25)
        prob = OptimizationProblem.from_areas(random_areas(Lcg64(7), 12), 1.7, 1.2, law, 0.9)
        iterates, converged, final_gap = reference_optimize(prob)
        lines = [
            json.dumps({"iteration": i, "M_star": m, "gap": g, "volume_residual": r})
            for i, (_, m, r, g) in enumerate(iterates)
        ]
        summary = {
            "converged": converged,
            "iterations": len(iterates) - 1,
            "final_gap": final_gap,
            "final_M_star": iterates[-1][1],
            "M_bound": upper_bound(0.9, law, 1.7, 1.2),
        }
        assert out == "\n".join(lines) + "\n" + json.dumps(summary) + "\n"


class TestIterateValues:
    def trace(self):
        prob = OptimizationProblem.from_areas([1.0, 3.0, 2.0], 2.0, 1.0, LAW1, 1.0)
        return optimize(prob)

    def test_equal_runs_compare_and_hash_equal(self):
        first, second = self.trace().iterates, self.trace().iterates
        assert first[0].areas is not second[0].areas
        assert first == second
        assert [hash(it) for it in first] == [hash(it) for it in second]
        assert len(set(first) | set(second)) == len(first)

    def test_distinct_iterates_differ(self):
        iterates = self.trace().iterates
        assert iterates[0] != iterates[-1]
        assert iterates[0] != iterates[0].M_star
        moved = OptimizerIterate(
            iterates[0].areas, iterates[0].M_star, iterates[0].volume_residual, 1.0
        )
        assert moved != iterates[0]

    def test_areas_are_read_only(self):
        for it in self.trace().iterates:
            with pytest.raises(ValueError):
                it.areas[0] = 1.0
        assert not it.areas.flags.writeable

    def test_iterates_share_the_stacked_areas(self):
        # no copy per iterate: every row views one read-only array
        iterates = self.trace().iterates
        shared = iterates[0].areas.base
        assert shared is not None and not shared.flags.writeable
        assert all(it.areas.base is shared for it in iterates)

    def test_read_only_view_of_writable_array_is_copied(self):
        areas = np.array([1.0, 2.0])
        view = areas[:]
        view.setflags(write=False)
        it = OptimizerIterate(view, 1.0, 0.0, 0.5)
        before = hash(it)
        areas[0] = 5.0
        assert it.areas.tolist() == [1.0, 2.0] and hash(it) == before

    def test_constructor_freezes_a_copy(self):
        areas = np.array([1.0, 2.0])
        it = OptimizerIterate(areas, 1.0, 0.0, 0.5)
        areas[0] = 5.0
        assert it.areas.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            it.areas[1] = 0.0
        assert it == OptimizerIterate([1.0, 2.0], 1.0, 0.0, 0.5)


class TestIteratesOfRows:
    def test_rows_equal_constructed_iterates(self):
        stacked = np.array([[1.0, 2.0], [1.5, 1.5]])
        stacked.setflags(write=False)
        rows = OptimizerIterate._of_rows(stacked, [1.0, 2.0], [0.0, 1e-16], [0.5, 0.0])
        assert rows == tuple(map(OptimizerIterate, stacked, [1.0, 2.0], [0.0, 1e-16], [0.5, 0.0]))
        assert all(it.areas.base is stacked for it in rows)

    def test_writable_stack_is_copied_once(self):
        stacked = np.array([[1.0, 2.0], [1.5, 1.5]])
        rows = OptimizerIterate._of_rows(stacked, [1.0, 2.0], [0.0, 0.0], [0.5, 0.0])
        stacked[0, 0] = 5.0
        assert rows[0].areas.tolist() == [1.0, 2.0]
        assert rows[0].areas.base is rows[1].areas.base is not stacked
        with pytest.raises(ValueError):
            rows[1].areas[0] = 0.0
