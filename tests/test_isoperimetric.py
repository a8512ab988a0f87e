"""Hölder machinery, the torque bound, and its equality case."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from twistrod.greenhill import critical_torque_value
import twistrod.isoperimetric as iso
from twistrod.isoperimetric import (
    HolderInstance,
    holder_check,
    holder_conjugate,
    holder_exponents_for_law,
    law_split_instance,
    proportionality_gap,
    split_identity_residuals,
    upper_bound,
    verify_bound,
)
from twistrod.sampling import Lcg64, law_for_exponent, random_piecewise_shape
from twistrod.shape import (
    AreaProfile,
    CrossSectionLaw,
    RodSpec,
    ShapeFunction,
    area_profile,
    integrate,
)


class TestConjugate:
    def test_self_conjugate(self):
        assert holder_conjugate(2.0) == 2.0

    def test_law_pair(self):
        assert holder_conjugate(1.5) == pytest.approx(3.0, rel=1e-15)

    def test_limit_cases(self):
        assert holder_conjugate(1.0) == math.inf
        assert holder_conjugate(math.inf) == 1.0

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            holder_conjugate(0.5)


class TestLawExponents:
    def test_all_exponents(self):
        assert holder_exponents_for_law(1) == pytest.approx((0.5, 2.0, 2.0))
        assert holder_exponents_for_law(2) == pytest.approx((2.0 / 3.0, 1.5, 3.0))
        assert holder_exponents_for_law(3) == pytest.approx((0.75, 4.0 / 3.0, 4.0))

    def test_pairs_are_conjugate(self):
        for n in (1, 2, 3):
            _, p, q = holder_exponents_for_law(n)
            assert holder_conjugate(p) == pytest.approx(q, rel=1e-14)

    def test_rejects_other_exponents(self):
        with pytest.raises(ValueError):
            holder_exponents_for_law(4)


class TestHolderCheck:
    def test_constant_equality(self):
        inst = HolderInstance(f=lambda t: 1.0, g=lambda t: 1.0, p=2.0, q=2.0, L=1.0)
        lhs, rhs, holds = holder_check(inst)
        assert lhs == pytest.approx(1.0, rel=1e-12)
        assert rhs == pytest.approx(1.0, rel=1e-12)
        assert holds

    def test_ramp_against_constant(self):
        # lhs = 1/2, rhs = sqrt(1/3)
        inst = HolderInstance(f=lambda t: t, g=lambda t: 1.0, p=2.0, q=2.0, L=1.0)
        lhs, rhs, holds = holder_check(inst)
        assert lhs == pytest.approx(0.5, rel=1e-12)
        assert rhs == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
        assert holds

    def test_ramp_equality(self):
        # f = g = t with p = q = 2: both sides equal 1/3
        inst = HolderInstance(f=lambda t: t, g=lambda t: t, p=2.0, q=2.0, L=1.0)
        lhs, rhs, holds = holder_check(inst)
        assert lhs == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert rhs == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert holds

    def test_infinite_exponent(self):
        inst = HolderInstance(f=lambda t: t, g=lambda t: 2.0 - t, p=1.0, q=math.inf, L=1.0)
        lhs, rhs, holds = holder_check(inst)
        assert lhs == pytest.approx(integrate_ramp_product(), rel=1e-10)
        assert rhs == pytest.approx(0.5 * 2.0, rel=1e-10)
        assert holds
        # the same pair with the infinite exponent on f: sup f times integral g
        inst = HolderInstance(f=lambda t: 2.0 - t, g=lambda t: t, p=math.inf, q=1.0, L=1.0)
        lhs, rhs, holds = holder_check(inst)
        assert lhs == pytest.approx(integrate_ramp_product(), rel=1e-10)
        assert rhs == pytest.approx(2.0 * 0.5, rel=1e-10)
        assert holds

    def test_rejects_non_conjugate(self):
        with pytest.raises(ValueError):
            HolderInstance(f=lambda t: 1.0, g=lambda t: 1.0, p=2.0, q=2.5, L=1.0)

    def test_rejects_negative_functions(self):
        with pytest.raises(ValueError):
            HolderInstance(f=lambda t: t - 0.5, g=lambda t: 1.0, p=2.0, q=2.0, L=1.0)

    def test_conjugate_tolerance_from_both_sides(self):
        # |1/p + 1/q - 1| just below CONJUGATE_TOL = 1e-12 passes, just above fails
        HolderInstance(f=lambda t: 1.0, g=lambda t: 1.0, p=2.0, q=1.0 / (0.5 + 5e-13), L=1.0)
        with pytest.raises(ValueError, match="not conjugate"):
            HolderInstance(f=lambda t: 1.0, g=lambda t: 1.0, p=2.0, q=1.0 / (0.5 + 2e-12), L=1.0)


def integrate_ramp_product() -> float:
    # integral of t (2 - t) over [0, 1] = 1 - 1/3
    return 1.0 - 1.0 / 3.0


class TestProportionalityGap:
    def test_zero_for_proportional(self):
        inst = HolderInstance(f=lambda t: 2.0 * t, g=lambda t: 3.0 * t, p=2.0, q=2.0, L=1.0)
        assert proportionality_gap(inst) <= 1e-12

    def test_positive_for_non_proportional(self):
        inst = HolderInstance(f=lambda t: t, g=lambda t: 1.0, p=2.0, q=2.0, L=1.0)
        assert proportionality_gap(inst) > 0.5

    def test_equality_iff_proportional_mixed_suite(self):
        # equality cases make f**p and g**q proportional:
        # scalar multiples at p = q = 2, and f = t**(2b), g = t**b at
        # (p, q) = (3/2, 3) where both powers become t**(3b)
        cases = []
        for a in (0.2, 0.7, 1.3, 2.0, 3.1):
            cases.append((lambda t, a=a: a * t, lambda t, a=a: t, 2.0, 2.0, True))
            cases.append((lambda t, a=a: t ** (2.0 * a), lambda t, a=a: t**a, 1.5, 3.0, True))
            cases.append((lambda t, a=a: a + t, lambda t, a=a: 1.0 + a * t, 2.0, 2.0, a == 1.0))
            cases.append((lambda t, a=a: t**a, lambda t, a=a: 1.0 + t, 1.5, 3.0, False))
        assert len(cases) == 20
        for f, g, p, q, proportional in cases:
            inst = HolderInstance(f=f, g=g, p=p, q=q, L=1.0)
            lhs, rhs, holds = holder_check(inst)
            assert holds
            equality = abs(rhs - lhs) <= 1e-10 * rhs
            assert equality == (proportionality_gap(inst) <= 1e-10)
            assert equality == proportional


class TestUpperBound:
    def test_unit_linear_law(self):
        law = CrossSectionLaw(1, 1.0)
        assert upper_bound(1.0, law, 1.0, 1.0) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_circle_law(self):
        law = CrossSectionLaw.solid_circle()
        assert upper_bound(1.0, law, 2.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_rejects_nonpositive(self):
        law = CrossSectionLaw(1, 1.0)
        for bad in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)]:
            with pytest.raises(ValueError):
                upper_bound(bad[0], law, bad[1], bad[2])

    def test_equality_case_pins_exponents(self):
        # constant-section rods must achieve the bound exactly, for every law
        rng = Lcg64(47)
        for n in (1, 2, 3):
            for _ in range(10):
                E = rng.log_uniform(0.5, 4.0)
                V = rng.log_uniform(0.5, 4.0)
                L = rng.log_uniform(0.5, 4.0)
                alpha = rng.log_uniform(0.1, 2.0)
                law = CrossSectionLaw(n, alpha)
                area = V / L
                stiffness = alpha * area**n  # with J_ref = 1
                spec = RodSpec(
                    E=E, J_ref=1.0, shape=ShapeFunction.constant(stiffness, L), law=law
                )
                assert critical_torque_value(spec) == pytest.approx(
                    upper_bound(E, law, V, L), rel=1e-12
                )

    def test_finite_where_its_factors_overflow(self):
        # V**n and L**(n+1) overflow a float here, (V/L)**n / L does not
        law = CrossSectionLaw(2, 1.0)
        assert upper_bound(1.0, law, 1e200, 1e200) == 2.0 * math.pi / 1e200
        assert upper_bound(1.0, law, 1e300, 1e-300) == math.inf

    def test_monotone_in_volume_and_length(self):
        law = CrossSectionLaw(2, 0.3)
        vs = np.linspace(0.5, 3.0, 7)
        bounds = [upper_bound(1.0, law, v, 1.0) for v in vs]
        assert np.all(np.diff(bounds) > 0)
        ls = np.linspace(0.5, 3.0, 7)
        bounds = [upper_bound(1.0, law, 1.0, l) for l in ls]
        assert np.all(np.diff(bounds) < 0)


class TestVerifyBound:
    def test_constant_section_equality(self):
        spec = RodSpec(
            E=1.0, J_ref=1.0, shape=ShapeFunction.constant(1.0, 1.0), law=CrossSectionLaw(1, 1.0)
        )
        report = verify_bound(spec)
        assert report.ratio == pytest.approx(1.0, abs=1e-10)
        assert report.equality_gap <= 1e-10

    def test_piecewise_hand_values(self):
        spec = RodSpec(
            E=1.0,
            J_ref=1.0,
            shape=ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 2.0]),
            law=CrossSectionLaw(1, 1.0),
        )
        report = verify_bound(spec)
        assert report.M_star == pytest.approx(8.0 * math.pi / 3.0, rel=1e-13)
        assert report.M_bound == pytest.approx(3.0 * math.pi, rel=1e-13)
        assert report.ratio == pytest.approx(8.0 / 9.0, rel=1e-12)

    def test_random_shapes_never_exceed_bound(self):
        rng = Lcg64(53)
        for case in range(100):
            spec = RodSpec(
                E=1.0,
                J_ref=1.0,
                shape=random_piecewise_shape(rng),
                law=law_for_exponent(1 + case % 3),
            )
            report = verify_bound(spec)
            assert report.ratio <= 1.0 + 1e-10

    def test_ratio_one_iff_constant(self):
        rng = Lcg64(59)
        specs = [
            RodSpec(E=1.0, J_ref=1.0, shape=ShapeFunction.constant(1.7, 2.0), law=law_for_exponent(2)),
            RodSpec(E=1.0, J_ref=1.0, shape=random_piecewise_shape(rng), law=law_for_exponent(2)),
        ]
        for spec in specs:
            report = verify_bound(spec)
            near_equality = abs(report.ratio - 1.0) <= 1e-9
            constant_section = report.equality_gap <= 1e-9
            assert near_equality == constant_section

    def test_json_field_names(self):
        spec = RodSpec(
            E=1.0, J_ref=1.0, shape=ShapeFunction.constant(1.0, 1.0), law=CrossSectionLaw(1, 1.0)
        )
        payload = json.loads(verify_bound(spec).to_json())
        assert set(payload) == {"M_star", "M_bound", "ratio", "equality_gap"}


def reference_split_identity_residuals(profile, n, theta=None):
    """The split identities integrated through the ``HolderInstance`` of
    ``law_split_instance``."""
    inst = law_split_instance(profile, n, theta)
    bp = profile.panel_edges
    f_p = integrate(lambda t: inst.f(t) ** inst.p, 0.0, profile.L, breakpoints=bp)
    g_q = integrate(lambda t: inst.g(t) ** inst.q, 0.0, profile.L, breakpoints=bp)
    f_g = integrate(lambda t: inst.f(t) * inst.g(t), 0.0, profile.L, breakpoints=bp)
    inv_n = integrate(
        lambda t: np.asarray(profile.area(t)) ** (-float(n)), 0.0, profile.L, breakpoints=bp
    )
    return (
        abs(f_p - profile.volume) / profile.volume,
        abs(g_q - inv_n) / inv_n,
        abs(f_g - profile.L) / profile.L,
    )


def reference_holder_check(inst):
    """``holder_check`` with one ``integrate`` call per integral."""

    def integral(h):
        return integrate(h, 0.0, inst.L, breakpoints=inst.breakpoints)

    lhs = integral(lambda t: inst.f(t) * inst.g(t))
    if math.isinf(inst.q):
        _, g = inst._sample(inst._probe_grid(2049))
        rhs = integral(inst.f) * float(np.max(g))
    elif math.isinf(inst.p):
        f, _ = inst._sample(inst._probe_grid(2049))
        rhs = float(np.max(f)) * integral(inst.g)
    else:
        fp = integral(lambda t: inst.f(t) ** inst.p)
        gq = integral(lambda t: inst.g(t) ** inst.q)
        rhs = fp ** (1.0 / inst.p) * gq ** (1.0 / inst.q)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-12)


def reference_proportionality_gap(inst):
    """``proportionality_gap`` with one ``integrate`` call per integral."""
    f, g = inst._sample(inst._probe_grid(2049))
    bp = inst.breakpoints
    fp_int = integrate(lambda t: inst.f(t) ** inst.p, 0.0, inst.L, breakpoints=bp)
    gq_int = integrate(lambda t: inst.g(t) ** inst.q, 0.0, inst.L, breakpoints=bp)
    return float(np.max(np.abs(f**inst.p * (inst.L / fp_int) - g**inst.q * (inst.L / gq_int))))


def holder_instances():
    """Instances of every exponent kind: scalar and array factors, smooth
    and kinked, and the law splits of piecewise and sampled profiles."""
    insts = [
        HolderInstance(f=lambda t: 1.0, g=lambda t: 2.0, p=2.0, q=2.0, L=1.0),
        HolderInstance(f=lambda t: t, g=lambda t: 1.0, p=2.0, q=2.0, L=1.0),
        HolderInstance(f=lambda t: t, g=lambda t: 2.0 - t, p=1.0, q=math.inf, L=1.0),
        HolderInstance(f=lambda t: 2.0 - t, g=lambda t: t, p=math.inf, q=1.0, L=1.0),
        HolderInstance(
            f=lambda t: np.abs(t - 0.3) + 0.1, g=np.exp, p=1.5, q=3.0, L=1.2, breakpoints=[0.0, 0.5, 1.2]
        ),
    ]
    rng = Lcg64(83)
    for n in (1, 2, 3):
        for shape in (random_piecewise_shape(rng), ShapeFunction.sampled([1.0, 0.2, 3.0, 0.7], 1.7)):
            spec = RodSpec(E=1.0, J_ref=1.0, shape=shape, law=law_for_exponent(n))
            insts.append(law_split_instance(area_profile(spec), n))
    return insts


class TestOnePassPerInstance:
    def test_holder_check_matches_separate_calls_bit_for_bit(self):
        for inst in holder_instances():
            assert holder_check(inst) == reference_holder_check(inst)

    def test_proportionality_gap_matches_separate_calls_bit_for_bit(self):
        for inst in holder_instances():
            if not (math.isinf(inst.p) or math.isinf(inst.q)):
                assert proportionality_gap(inst) == reference_proportionality_gap(inst)

    def test_f_and_g_sampled_once_per_node_array(self):
        for p, q in ((1.5, 3.0), (1.0, math.inf), (math.inf, 1.0)):
            seen = {"f": [], "g": []}

            def f(t):
                seen["f"].append(t)
                return 1.0 + np.abs(t - 0.3)

            def g(t):
                seen["g"].append(t)
                return np.exp(-t)

            inst = HolderInstance(f=f, g=g, p=p, q=q, L=1.5, breakpoints=[0.0, 0.4, 1.5])
            checks = [holder_check]
            if not (math.isinf(p) or math.isinf(q)):
                checks.append(proportionality_gap)
            for check in checks:
                seen["f"].clear()
                seen["g"].clear()
                check(inst)
                # the probe grid and at least one refinement round of the kink
                assert len(seen["f"]) >= 3
                assert len({id(t) for t in seen["f"]}) == len(seen["f"])
                assert len(seen["g"]) == len(seen["f"])
                assert all(a is b for a, b in zip(seen["f"], seen["g"]))


class TestSplitIdentities:
    def test_one_pass_and_one_area_call_per_round(self, monkeypatch):
        passes, rounds, areas = [], [], []
        original_area = AreaProfile.area

        def counting_integrate(f, *args, **kwargs):
            def counted(t):
                rounds.append(t.shape)
                return f(t)

            passes.append(f)
            return integrate(counted, *args, **kwargs)

        def counting_area(profile, xi):
            areas.append(np.shape(xi))
            return original_area(profile, xi)

        piecewise = area_profile(
            RodSpec(E=1.0, J_ref=1.0, shape=random_piecewise_shape(Lcg64(89)), law=law_for_exponent(2))
        )
        sampled = area_profile(
            RodSpec(
                E=1.0, J_ref=1.0, shape=ShapeFunction.sampled([1.0, 0.2, 3.0, 0.7], 1.7), law=law_for_exponent(3)
            )
        )
        monkeypatch.setattr(iso, "integrate", counting_integrate)
        monkeypatch.setattr(AreaProfile, "area", counting_area)
        # a piecewise rod converges in the first round: one pass, one area
        split_identity_residuals(piecewise, 2)
        assert (len(passes), len(rounds), len(areas)) == (1, 1, 1)
        # a sampled rod refines some identities: still one pass, and one
        # area evaluation per round
        passes.clear(), rounds.clear(), areas.clear()
        split_identity_residuals(sampled, 3)
        assert len(passes) == 1 and len(rounds) > 1
        assert areas == rounds

    def test_residuals_match_split_instance_bit_for_bit(self, monkeypatch):
        rng = Lcg64(2024)
        profiles = []
        for case in range(24):
            n = 1 + case % 3
            if case % 4 == 3:
                values = [rng.log_uniform(0.2, 5.0) for _ in range(2 + case % 7)]
                shape = ShapeFunction.sampled(values, rng.log_uniform(0.5, 2.0))
            else:
                shape = random_piecewise_shape(rng)
            spec = RodSpec(E=1.0, J_ref=1.0, shape=shape, law=law_for_exponent(n))
            profiles.append((area_profile(spec), n))
        expected = [
            (reference_split_identity_residuals(profile, n, theta), theta)
            for profile, n in profiles
            for theta in (None, 1.0 / (n + 1.0))
        ]
        built = []
        monkeypatch.setattr(iso.HolderInstance, "__post_init__", lambda inst: built.append(inst))
        got = [
            split_identity_residuals(profile, n, theta)
            for profile, n in profiles
            for theta in (None, 1.0 / (n + 1.0))
        ]
        assert got == [residuals for residuals, _ in expected]
        assert built == []

    def test_residuals_small_on_random_shapes(self):
        rng = Lcg64(61)
        for case in range(15):
            n = 1 + case % 3
            spec = RodSpec(
                E=1.0, J_ref=1.0, shape=random_piecewise_shape(rng), law=law_for_exponent(n)
            )
            residuals = split_identity_residuals(area_profile(spec), n)
            assert max(residuals) <= 1e-10

    def test_wrong_split_breaks_identities(self):
        # the 1/(n+1) split satisfies the identities only at n = 1
        rng = Lcg64(67)
        spec = RodSpec(
            E=1.0, J_ref=1.0, shape=random_piecewise_shape(rng), law=law_for_exponent(2)
        )
        residuals = split_identity_residuals(area_profile(spec), 2, theta=1.0 / 3.0)
        assert max(residuals) > 1e-3

    def test_split_instance_is_valid_holder_instance(self):
        rng = Lcg64(71)
        spec = RodSpec(
            E=1.0, J_ref=1.0, shape=random_piecewise_shape(rng), law=law_for_exponent(3)
        )
        inst = law_split_instance(area_profile(spec), 3)
        lhs, rhs, holds = holder_check(inst)
        assert holds
        assert lhs == pytest.approx(spec.shape.L, rel=1e-10)
