"""Profile representations, the section law, and the quadrature engine."""

from __future__ import annotations

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from twistrod.errors import QuadratureError
from twistrod.isoperimetric import split_identity_residuals
from twistrod.sampling import Lcg64, random_piecewise_shape
from twistrod.shape import (
    G10_WEIGHTS,
    GK_NODES,
    K21_WEIGHTS,
    AreaProfile,
    CrossSectionLaw,
    RodSpec,
    ShapeFunction,
    area_profile,
    integrate,
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
        with pytest.raises(ValueError, match="two breakpoints"):
            ShapeFunction.piecewise([0.0], [])  # a single breakpoint

    @pytest.mark.parametrize("bp", [[0.0, math.nan, 1.0], [0.0, 0.25, math.nan, 1.0]])
    def test_nan_breakpoint_is_not_increasing(self, bp):
        with pytest.raises(ValueError, match="strictly increasing"):
            ShapeFunction.piecewise(bp, [1.0] * (len(bp) - 1))

    def test_edges_near_the_largest_double(self):
        # the midpoint probe halves each edge before adding: no overflow
        # warning, and no false 'coordinate outside [0, L]'
        piecewise = ShapeFunction.piecewise([0.0, 1e308, 1.7e308], [1.0, 2.0])
        sampled = ShapeFunction.sampled([1.0, 2.0, 3.0], 1.7e308)
        assert piecewise(1.5e308) == 2.0 and sampled(1.7e308) == 3.0

    def test_rejects_short_sampled(self):
        with pytest.raises(ValueError):
            ShapeFunction.sampled([1.0], 1.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ShapeFunction.sampled([1.0, math.nan], 1.0), "finite"),
            (lambda: ShapeFunction.piecewise([0.0, 1.0], [math.inf]), "finite"),
            (lambda: ShapeFunction("spline", 1.0, np.array([1.0])), "unknown shape kind"),
            (lambda: ShapeFunction("constant", 1.0, np.array([1.0, 2.0])), "exactly one value"),
        ],
        ids=["nan", "inf", "unknown-kind", "constant-two-values"],
    )
    def test_rejects_malformed_fields(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_sampled_keeps_its_own_values(self):
        v = np.array([1.0, 2.0, 3.0])
        shape = ShapeFunction.sampled(v)
        v[0] = -5.0
        assert shape.evaluate(0.0) == 1.0
        with pytest.raises(ValueError):
            shape.values[0] = -5.0

    def test_piecewise_keeps_its_own_arrays(self):
        bp = np.array([0.0, 0.5, 1.0])
        vals = np.array([1.0, 2.0])
        shape = ShapeFunction.piecewise(bp, vals)
        bp[1] = 2.0  # would make the validated breakpoints non-monotone
        vals[0] = -5.0
        np.testing.assert_array_equal(shape.breakpoints, [0.0, 0.5, 1.0])
        assert shape.evaluate(0.25) == 1.0
        assert shape.evaluate(0.75) == 2.0
        for arr in (shape.breakpoints, shape.values, shape.panel_edges()):
            with pytest.raises(ValueError):
                arr[0] = 7.0


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

    def test_sampled_from_nearer_node(self):
        # near the small node the offset is taken from it, so F keeps its
        # relative precision: F = 1e-8 + (1 - 1e-8) (1 - xi) to ~1 ulp
        shape = ShapeFunction.sampled([1.0, 1e-8], 1.0)
        for xi in (1.0 - 1e-12, 1.0 - 1e-9, 1.0 - 1e-8, 0.999, 0.6):
            f1 = Fraction(1e-8)
            exact = f1 + (1 - f1) * (Fraction(1.0) - Fraction(xi))
            assert shape.evaluate(xi) == pytest.approx(float(exact), rel=4e-16, abs=0.0)
        assert shape.evaluate(1.0) == 1e-8 and shape.evaluate(0.0) == 1.0

    def test_panel_table(self):
        edges, left, right = ShapeFunction.sampled([1.0, 3.0, 2.0], 2.0).panels()
        np.testing.assert_array_equal(edges, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(left, [1.0, 3.0])
        np.testing.assert_array_equal(right, [3.0, 2.0])
        edges, left, right = PIECEWISE_12.panels()
        np.testing.assert_array_equal(edges, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(left, right)
        edges, left, right = ShapeFunction.constant(2.0, 3.0).panels()
        assert edges.tolist() == [0.0, 3.0] and left.tolist() == right.tolist() == [2.0]
        for arr in (edges, left, right):
            with pytest.raises(ValueError):
                arr[0] = 7.0

    @pytest.mark.parametrize(
        "shape",
        [
            ShapeFunction.constant(2.0, 3.0),
            PIECEWISE_12,
            ShapeFunction.sampled([1.0, 3.0, 2.0], 2.0),
            ShapeFunction.sampled([1.0, 3.0, 2.0], 2.0).scaled(0.5),
            PIECEWISE_12.scaled(3.0),
        ],
        ids=lambda s: s.kind,
    )
    def test_panel_table_is_built_once(self, shape):
        table = shape.panels()
        assert type(table) is tuple and len(table) == 3
        assert all(shape.panels() is table for _ in range(3))
        assert shape.panel_edges() is table[0]
        for arr in table:
            assert not arr.flags.writeable

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            PIECEWISE_12.evaluate(-0.1)
        with pytest.raises(ValueError):
            PIECEWISE_12.evaluate(np.array([0.25, math.nan]))
        with pytest.raises(ValueError):
            PIECEWISE_12.evaluate(1.1)

    def test_vectorized(self):
        out = PIECEWISE_12.evaluate(np.array([0.25, 0.75]))
        np.testing.assert_allclose(out, [1.0, 2.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_flat_panels_return_segment_values(self, seed):
        # piecewise and constant profiles look F up, exactly, in half-open
        # panels; L belongs to the last panel
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 40))
        edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, k - 1)), [3.0]])
        values = np.exp(rng.uniform(-18.0, 2.0, k))
        for shape in (ShapeFunction.piecewise(edges, values), ShapeFunction.constant(values[0], 3.0)):
            bounds, vals = shape.panel_edges(), shape.values
            x = rng.uniform(0.0, 3.0, 200)
            expected = vals[np.searchsorted(bounds, x, side="right") - 1]
            at_bounds = np.append(vals, vals[-1])
            for points, want in ((x, expected), (bounds, at_bounds)):
                got = shape.evaluate(points)
                assert got.dtype == float and got.tobytes() == want.tobytes()
                assert [shape.evaluate(p) for p in points.tolist()] == want.tolist()
                assert all(type(shape.evaluate(p)) is float for p in points[:3].tolist())

    def test_sampled_equal_neighbours_still_interpolate(self):
        shape = ShapeFunction.sampled([1.0, 2.0, 2.0, 4.0], 3.0)
        assert shape.evaluate([0.25, 0.5, 1.5, 2.5, 3.0]).tolist() == [1.25, 1.5, 2.0, 3.0, 4.0]
        flat = ShapeFunction.sampled([2.0, 2.0, 2.0], 1.0)
        assert flat.evaluate(np.linspace(0.0, 1.0, 9)).tolist() == [2.0] * 9

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ShapeFunction.constant(2.0, 3.0),
            lambda: ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 2.0]),
            lambda: ShapeFunction.sampled([1.0, 3.0, 2.0], 2.0),
            lambda: ShapeFunction(kind="sampled", L=1.0, values=np.array([1.0, 2.0])),
            lambda: ShapeFunction.from_dict({"kind": "piecewise", "breakpoints": [0, 1], "values": [2]}),
            lambda: AreaProfile.piecewise([0.0, 0.5, 1.0], [1.0, 2.0]),
            lambda: AreaProfile.constant(2.0, 1.0),
        ],
    )
    def test_each_construction_evaluates_once(self, build, monkeypatch):
        # validation probes the panel midpoints through one evaluate call
        calls = []
        original = ShapeFunction.evaluate

        def counting(self, xi):
            calls.append(1)
            return original(self, xi)

        monkeypatch.setattr(ShapeFunction, "evaluate", counting)
        build()
        assert len(calls) == 1
        PIECEWISE_12.scaled(2.0)
        assert len(calls) == 2


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

    def test_roundoff_floor_from_both_sides(self):
        # K21 and G10 agree on t**2 to roundoff, so every error estimate is
        # the floor, 50 eps = 1.1e-14 of the integral: a budget above it
        # converges at once, one below it can never be met
        assert integrate(lambda t: t * t, 0.0, 1.0, tol=2e-14) == pytest.approx(1.0 / 3.0, rel=1e-15)
        with pytest.raises(QuadratureError, match="did not converge"):
            integrate(lambda t: t * t, 0.0, 1.0, tol=1e-15)

    def test_nonfinite_estimate_raises(self):
        with pytest.raises(QuadratureError), np.errstate(invalid="ignore"):
            integrate(lambda t: np.where(t > 0.5, np.inf, 1.0), 0.0, 1.0)

    def test_rule_exactness(self):
        # K21 integrates polynomials up to degree 31 exactly, G10 up to
        # degree 19, and neither one degree beyond: this pins the constants.
        def error(weights, degree):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            return abs(GK_NODES**degree @ weights - exact)

        assert max(error(K21_WEIGHTS, d) for d in range(32)) < 1e-15
        assert max(error(G10_WEIGHTS, d) for d in range(20)) < 1e-15
        assert error(K21_WEIGHTS, 32) > 1e-13
        assert error(G10_WEIGHTS, 20) > 1e-7
        assert K21_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-15)
        assert np.count_nonzero(G10_WEIGHTS) == 10

    def test_degree_19_panel_converges_at_once(self):
        # both rules are exact, so the first estimate already meets tol
        calls = []

        def f(t):
            calls.append(t.shape)
            return 3.0 * t**19 - t**4 + 2.0

        a, b = 0.5, 2.0
        exact = 3.0 * (b**20 - a**20) / 20 - (b**5 - a**5) / 5 + 2.0 * (b - a)
        assert integrate(f, a, b) == pytest.approx(exact, rel=1e-14)
        assert calls == [(1, 21)]

    def test_piecewise_constant_128_panels_in_one_call(self):
        rng = Lcg64(17)
        widths = np.array([rng.log_uniform(0.1, 1.0) for _ in range(128)])
        bp = np.concatenate([[0.0], np.cumsum(widths)])
        shape = ShapeFunction.piecewise(bp, [rng.log_uniform(0.25, 4.0) for _ in range(128)])
        calls = []

        def f(t):
            calls.append(t.shape)
            return 1.0 / shape.evaluate(t)

        val = integrate(f, 0.0, shape.L, breakpoints=shape.panel_edges())
        assert calls == [(128, 21)]
        assert val == pytest.approx(math.fsum(widths / shape.values), rel=1e-14)

    # -- stacked integrands: each component is its own call, bit for bit --

    @staticmethod
    def counted(f):
        calls = []

        def wrapped(t):
            calls.append(t.shape)
            return f(t)

        return wrapped, calls

    def test_piecewise_constant_stack_matches_solo_calls(self):
        shape = random_piecewise_shape(Lcg64(29))
        bp = shape.panel_edges()
        parts = (shape.evaluate, lambda t: 1.0 / shape.evaluate(t), lambda t: shape.evaluate(t) ** 2.5)
        stack, calls = self.counted(lambda t: np.stack([h(t) for h in parts]))
        got = integrate(stack, 0.0, shape.L, breakpoints=bp)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert calls == [(bp.size - 1, 21)]
        assert got.tolist() == [integrate(h, 0.0, shape.L, breakpoints=bp) for h in parts]

    def test_stack_components_refine_alone(self):
        # A converges at once (linear panels), A**-3 and a kinked integrand
        # need different numbers of further rounds
        shape = ShapeFunction.sampled([1.0, 0.3, 2.0, 0.05, 1.0], 2.0)
        bp = shape.panel_edges()
        kink = 0.7 * math.pi / 3.0
        parts = (
            shape.evaluate,
            lambda t: shape.evaluate(t) ** -3.0,
            lambda t: np.abs(t - kink) * shape.evaluate(t),
        )
        want, solo_rounds = [], []
        for h in parts:
            solo, calls = self.counted(h)
            want.append(integrate(solo, 0.0, shape.L, tol=1e-12, breakpoints=bp))
            solo_rounds.append(len(calls))
        assert solo_rounds[0] == 1 and len(set(solo_rounds)) == 3
        stack, calls = self.counted(lambda t: [h(t) for h in parts])
        got = integrate(stack, 0.0, shape.L, tol=1e-12, breakpoints=bp)
        assert got.tolist() == want
        # one shared first round, then each component's own further rounds
        assert len(calls) == 1 + sum(r - 1 for r in solo_rounds)

    def test_stack_with_scalar_component(self):
        parts = (lambda t: 2.5, lambda t: t * t, np.cos)
        got = integrate(lambda t: tuple(h(t) for h in parts), -0.5, 1.5)
        assert got.tolist() == [integrate(h, -0.5, 1.5) for h in parts]
        assert got[0] == pytest.approx(5.0, rel=1e-15)

    def test_stack_raises_for_first_failing_component(self):
        def spike(t):
            return np.abs(t - 1 / math.pi) ** -0.99

        def blowup(t):
            return np.where(t > 0.5, np.inf, 1.0)

        with np.errstate(invalid="ignore"):
            for stack, failing in (
                (lambda t: (t, spike(t), blowup(t)), spike),
                (lambda t: (t, blowup(t), spike(t)), blowup),
            ):
                with pytest.raises(QuadratureError) as solo:
                    integrate(failing, 0.0, 1.0, tol=1e-13)
                with pytest.raises(QuadratureError) as err:
                    integrate(stack, 0.0, 1.0, tol=1e-13)
                assert str(err.value) == str(solo.value).replace("]", "] (stack component 1)", 1)
                assert repr(err.value.best_estimate) == repr(solo.value.best_estimate)

    def test_empty_interval(self):
        # a == b: f is called once on an empty node array, so a stack
        # returns zeros of its size and a single integrand returns 0.0
        stack, calls = self.counted(lambda t: (t, 1.0, t * t))
        got = integrate(stack, 1.5, 1.5, breakpoints=[0.0, 1.5, 2.0])
        assert isinstance(got, np.ndarray) and got.tolist() == [0.0, 0.0, 0.0]
        assert calls == [(0, 21)]
        solo = integrate(lambda t: 1.0, 2.0, 2.0)
        assert isinstance(solo, float) and solo == 0.0

    def test_agrees_with_scipy_quad(self):
        # scipy's adaptive quad is an independent witness on smooth integrands
        rng = Lcg64(23)
        for _ in range(20):
            a, b, c = rng.log_uniform(0.2, 5.0), rng.log_uniform(0.5, 20.0), rng.log_uniform(0.1, 3.0)
            lo, hi = -rng.log_uniform(0.1, 2.0), rng.log_uniform(0.1, 3.0)
            for f in (
                lambda t: np.exp(a * t) * np.cos(b * t) + 3.0,
                lambda t: 1.0 / (1.0 + c * t * t),
                lambda t: np.sqrt(1.0 + a * (t - lo)) * np.sin(c * t) ** 2,
            ):
                want = quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                assert integrate(f, lo, hi) == pytest.approx(want, rel=1e-10)

    def test_import_leaves_scipy_integrate_unloaded(self):
        # no scipy module at all: the package and its CLI need numpy only
        code = (
            "import sys, twistrod, twistrod.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestSectionLaw:
    def test_valid_exponents_only(self):
        for n in (1, 2, 3):
            CrossSectionLaw(n, 1.0)
        for n in (0, 4, -1, True, False):
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

    def test_piecewise_constructor_keeps_its_own_areas(self):
        areas = np.array([1.0, 3.0])
        prof = AreaProfile.piecewise([0.0, 0.5, 1.0], areas)
        areas[0] = -1.0
        np.testing.assert_array_equal(prof.panel_values, [1.0, 3.0])
        with pytest.raises(ValueError):
            prof.panel_values[0] = -1.0

    def test_flat_sampled_profile_carries_panel_values(self):
        # F is constant on every panel, so the areas are per-panel values
        law = CrossSectionLaw(2, 1.0)
        sampled = area_profile(
            RodSpec(E=1.0, J_ref=1.0, shape=ShapeFunction.sampled([4.0, 4.0, 4.0], 1.0), law=law)
        )
        np.testing.assert_array_equal(sampled.panel_values, [2.0, 2.0])
        assert area_profile(
            RodSpec(E=1.0, J_ref=1.0, shape=ShapeFunction.sampled([4.0, 5.0], 1.0), law=law)
        ).panel_values is None

    def test_sampled_deviation_at_panel_ends(self):
        # A = 1 + xi peaks at the far end: (2 - 1.5) / 1.5
        shape = ShapeFunction.sampled([1.0, 1.5, 2.0], 1.0)
        prof = area_profile(RodSpec(E=1.0, J_ref=1.0, shape=shape, law=CrossSectionLaw(1, 1.0)))
        assert prof.max_relative_deviation() == pytest.approx(1.0 / 3.0, rel=1e-12)


@st.composite
def area_profiles(draw) -> AreaProfile:
    """Area profiles of every kind, contrast down to 1e-8, any of the laws."""
    kind = draw(st.sampled_from(["constant", "piecewise", "sampled"]))
    L = 10.0 ** draw(st.floats(-3.0, 3.0))
    count = 1 if kind == "constant" else draw(st.integers(1 if kind == "piecewise" else 2, 12))
    scale = 10.0 ** draw(st.floats(-4.0, 4.0))
    values = [scale * 10.0 ** draw(st.floats(-8.0, 0.0)) for _ in range(count)]
    if kind == "constant":
        shape = ShapeFunction.constant(values[0], L)
    elif kind == "sampled":
        shape = ShapeFunction.sampled(values, L)
    else:
        cuts = sorted(draw(st.sets(st.floats(0.01, 0.99), min_size=count - 1, max_size=count - 1)))
        shape = ShapeFunction.piecewise([0.0] + [L * c for c in cuts] + [L], values)
    law = CrossSectionLaw(draw(st.integers(1, 3)), 10.0 ** draw(st.floats(-4.0, 1.0)))
    spec = RodSpec(E=1.0, J_ref=10.0 ** draw(st.floats(-10.0, 0.0)), shape=shape, law=law)
    return area_profile(spec)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(area_profiles())
def test_max_relative_deviation_is_the_area_at_the_edges(profile):
    # the panel table's left values and last right value are F at the
    # edges, so the deviation equals the evaluate-at-edges formula exactly
    a = profile.law.area(np.asarray(profile.shape.evaluate(profile.panel_edges)) * profile.J_ref)
    mean = profile.volume / profile.L
    assert profile.max_relative_deviation() == float(np.max(np.abs(a - mean)) / mean)


def panel_power_integral(w: float, f0: float, f1: float, p: float) -> float:
    """integral of F**p over a panel of width w where F runs linearly from
    f0 to f1, in logs so that nearly flat panels stay exact."""
    if f0 == f1:
        return w * f0**p
    lr = math.log1p((f1 - f0) / f0)
    return w * f0**p * math.expm1((p + 1.0) * lr) / ((p + 1.0) * math.expm1(lr))


def exact_volume(spec: RodSpec) -> float:
    """Closed-form panel sum of integral (F * J_ref / alpha)**(1/n)."""
    shape, n = spec.shape, spec.law.n
    scale = (spec.J_ref / spec.law.alpha) ** (1.0 / n)
    edges = shape.panel_edges()
    widths = np.diff(edges)
    if shape.kind == "sampled":
        pairs = zip(shape.values[:-1], shape.values[1:])
    else:
        pairs = ((v, v) for v in np.broadcast_to(shape.values, widths.shape))
    return scale * math.fsum(
        panel_power_integral(w, f0, f1, 1.0 / n) for w, (f0, f1) in zip(widths, pairs)
    )


class TestStressRods:
    """Extreme stiffness contrast and SI-scale magnitudes through the
    quadrature engine, against closed-form panel sums."""

    SHAPES = (
        ShapeFunction.sampled([1.0, 1.0001e-8, 1.0], 2.0),
        ShapeFunction.sampled([1.0, 1e-8], 1.0),
        ShapeFunction.sampled([1e-8, 1.0, 1e-8, 0.5], 3.0),
        ShapeFunction.piecewise([0.0, 0.3, 1.0], [1.0, 1e-8]),
        ShapeFunction.piecewise([0.0, 1e-3, 0.5, 2.0], [1e-8, 1.0, 0.3]),
        ShapeFunction.constant(1e-8, 4.0),
        # at the 1e-9 floor the split identities need F from the nearer node
        ShapeFunction.sampled([1.0, 1.01e-9], 1000.0),
    )

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.kind)
    def test_volume_matches_panel_sum(self, shape):
        for n in (1, 2, 3):
            for E, J_ref, alpha in ((1.0, 1.0, 1.0), (2e11, 1e-8, 1.0 / (4.0 * math.pi))):
                spec = RodSpec(E=E, J_ref=J_ref, shape=shape, law=CrossSectionLaw(n, alpha))
                profile = area_profile(spec)
                assert profile.volume == pytest.approx(exact_volume(spec), rel=1e-12)
                assert max(split_identity_residuals(profile)) <= 1e-10


class TestValueSemantics:
    SHAPES = (
        lambda: ShapeFunction.constant(2.0, 3.0),
        lambda: ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 2.0]),
        lambda: ShapeFunction.sampled([1.0, 2.0, 1.5], 2.0),
    )

    def test_equal_profiles_compare_and_hash_equal(self):
        for make in self.SHAPES:
            a, b = make(), make()
            assert a is not b and a.values is not b.values
            assert a == b and not a != b
            assert hash(a) == hash(b)
            assert ShapeFunction.from_dict(a.to_dict()) == a

    def test_any_field_difference_is_unequal(self):
        base = ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 2.0])
        for other in (
            ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 2.5]),
            ShapeFunction.piecewise([0.0, 0.4, 1.0], [1.0, 2.0]),
            ShapeFunction.piecewise([0.0, 0.5, 2.0], [1.0, 2.0]),
            ShapeFunction.sampled([1.0, 2.0], 1.0),
        ):
            assert base != other
        assert ShapeFunction.constant(2.0, 1.0) != ShapeFunction.piecewise([0.0, 1.0], [2.0])
        assert ShapeFunction.sampled([1.0, 2.0], 1.0) != ShapeFunction.sampled([1.0, 2.0], 2.0)
        assert base != "piecewise" and base != None  # noqa: E711

    def test_usable_as_dict_key(self):
        table = {make(): i for i, make in enumerate(self.SHAPES)}
        assert len(table) == 3
        for i, make in enumerate(self.SHAPES):
            assert table[make()] == i
        assert ShapeFunction.sampled([1.0, 2.0, 1.5], 1.0) not in table
        law = CrossSectionLaw(1, 1.0)
        specs = {RodSpec(E=1.0, J_ref=1.0, shape=make(), law=law) for make in self.SHAPES * 2}
        assert len(specs) == 3


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
        with pytest.raises(ValueError, match="'L'"):
            ShapeFunction.from_dict({"kind": "sampled", "values": [1.0, 2.0]})
        with pytest.raises(ValueError):
            CrossSectionLaw.from_dict({"n": 2})

    def test_piecewise_length_must_match_breakpoints(self):
        d = {"kind": "piecewise", "L": 5.0, "breakpoints": [0.0, 0.5, 1.0], "values": [1.0, 2.0]}
        with pytest.raises(ValueError, match="'L'"):
            ShapeFunction.from_dict(d)
        with pytest.raises(ValueError, match="'L'"):
            ShapeFunction.from_dict({**d, "L": float("nan")})
        expected = ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 2.0])
        assert ShapeFunction.from_dict({**d, "L": 1.0}) == expected
        del d["L"]
        assert ShapeFunction.from_dict(d) == expected
