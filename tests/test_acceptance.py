"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line with the measured figure once its
assertions hold, so a verbose run doubles as the acceptance report.
"""

from __future__ import annotations

import math
import time

import numpy as np

from twistrod.anisotropic import (
    AnisotropicRodSpec,
    AnisotropicSection,
    first_root_anisotropic,
    reduce_to_isotropic,
)
from twistrod.greenhill import critical_torque, critical_torque_value
from twistrod.isoperimetric import (
    HolderInstance,
    holder_check,
    proportionality_gap,
    split_identity_residuals,
    upper_bound,
    verify_bound,
)
from twistrod.optimizer import (
    OptimizationProblem,
    brute_force_segments,
    optimize,
)
from twistrod.oracle import convergence_study, critical_torque_oracle
from twistrod.sampling import Lcg64, law_for_exponent, random_areas, random_piecewise_shape
from twistrod.shape import CrossSectionLaw, RodSpec, ShapeFunction, area_profile


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_1_exact_constant_case():
    """Uniform unit rod: closed form exact, oracle within 1e-8, under 1 s."""
    start = time.perf_counter()
    spec = RodSpec(
        E=1.0,
        J_ref=1.0,
        shape=ShapeFunction.constant(1.0, 1.0),
        law=CrossSectionLaw(1, 1.0),
    )
    exact = critical_torque(spec).M_crit
    closed_err = abs(exact - 2.0 * math.pi) / (2.0 * math.pi)
    assert closed_err <= 1e-12

    found = critical_torque_oracle(spec, steps=4096)
    oracle_err = abs(found - 2.0 * math.pi) / (2.0 * math.pi)
    assert oracle_err <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"closed-form err {closed_err:.1e}, oracle err {oracle_err:.1e}, {elapsed:.2f} s")


def test_criterion_2_functional_vs_oracle_random_shapes():
    """50 seeded random piecewise shapes: functional vs shooting <= 1e-6."""
    start = time.perf_counter()
    rng = Lcg64(1002)
    worst = 0.0
    for _ in range(50):
        spec = RodSpec(
            E=1.0,
            J_ref=1.0,
            shape=random_piecewise_shape(rng),
            law=CrossSectionLaw(1, 1.0),
        )
        exact = critical_torque_value(spec)
        found = critical_torque_oracle(spec, steps=4096)
        worst = max(worst, abs(found - exact) / exact)
    assert worst <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"max disagreement {worst:.2e} over 50 shapes, {elapsed:.1f} s")


def test_criterion_3_convergence_order():
    """Oracle error drops by at least 8x per step doubling (nominal 16x)."""
    spec = RodSpec(
        E=1.0,
        J_ref=1.0,
        shape=ShapeFunction.constant(1.0, 1.0),
        law=CrossSectionLaw(1, 1.0),
    )
    table = convergence_study(spec, [64, 128, 256, 512])
    errors = [err for _, err in table]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(r >= 8.0 for r in ratios)
    report(3, f"errors {['%.2e' % e for e in errors]}, ratios {['%.1f' % r for r in ratios]}")


def test_criterion_4_isoperimetric_inequality():
    """Bound holds on 1000 shapes; equality on constants; identities hold."""
    rng = Lcg64(1004)
    worst_ratio = -math.inf
    for case in range(1000):
        spec = RodSpec(
            E=1.0,
            J_ref=1.0,
            shape=random_piecewise_shape(rng),
            law=law_for_exponent(1 + case % 3),
        )
        ratio = verify_bound(spec).ratio
        worst_ratio = max(worst_ratio, ratio)
        assert ratio <= 1.0 + 1e-10

    worst_equality = 0.0
    for n in (1, 2, 3):
        value = rng.log_uniform(0.5, 4.0)
        spec = RodSpec(
            E=1.0,
            J_ref=1.0,
            shape=ShapeFunction.constant(value, rng.log_uniform(0.5, 4.0)),
            law=law_for_exponent(n),
        )
        worst_equality = max(worst_equality, abs(verify_bound(spec).ratio - 1.0))
    assert worst_equality <= 1e-10

    worst_identity = 0.0
    for case in range(100):
        n = 1 + case % 3
        spec = RodSpec(
            E=1.0, J_ref=1.0, shape=random_piecewise_shape(rng), law=law_for_exponent(n)
        )
        worst_identity = max(
            worst_identity, max(split_identity_residuals(area_profile(spec), n))
        )
    assert worst_identity <= 1e-10

    # recorded discrepancy: the uncorrected 1/(n+1) split violates the same
    # identities for n > 1, so the equality case above is the arbiter
    spec = RodSpec(
        E=1.0, J_ref=1.0, shape=random_piecewise_shape(rng), law=law_for_exponent(2)
    )
    uncorrected = max(split_identity_residuals(area_profile(spec), 2, theta=1.0 / 3.0))
    assert uncorrected > 1e-3

    report(
        4,
        f"max ratio {worst_ratio:.12f}, equality gap {worst_equality:.1e}, "
        f"identity residual {worst_identity:.1e}, uncorrected split residual {uncorrected:.1e}",
    )


def test_criterion_5_constant_section_is_optimal():
    """Brute force and projected ascent both land on the constant section."""
    start = time.perf_counter()
    V, L, E = 2.0, 1.0, 1.0

    # exhaustive check on 2- and 3-panel volume splits, 101 points per axis
    for n in (1, 2, 3):
        law = law_for_exponent(n)
        for k in (2, 3):
            best = brute_force_segments(V, L, law, E, k, 101)
            split = best.panel_values * (L / k)  # per-panel volumes
            assert np.max(np.abs(split - V / k)) <= V / 101

    # ascent from 10 seeded random 8-panel starting points
    rng = Lcg64(1005)
    worst_gap = 0.0
    worst_ratio = math.inf
    for case in range(10):
        law = law_for_exponent(1 + case % 3)
        problem = OptimizationProblem.from_areas(random_areas(rng, 8), V, L, law, E)
        trace = optimize(problem)
        bound = upper_bound(E, law, V, L)
        worst_gap = max(worst_gap, trace.final_gap)
        worst_ratio = min(worst_ratio, trace.final.M_star / bound)
    assert worst_gap <= 1e-3
    assert worst_ratio >= 1.0 - 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        5,
        f"brute-force argmax constant for n in 1..3, ascent gap <= {worst_gap:.1e}, "
        f"torque/bound >= {worst_ratio:.9f}, {elapsed:.1f} s",
    )


def test_criterion_6_anisotropic_reduction():
    """Unreduced shooting matches the geometric-mean reduction."""
    rng = Lcg64(1006)
    worst = 0.0
    for _ in range(20):
        spec = AnisotropicRodSpec(
            E=1.0,
            section=AnisotropicSection(
                Jy=rng.log_uniform(0.25, 4.0), Jz=rng.log_uniform(0.25, 4.0)
            ),
            shape=random_piecewise_shape(rng),
            law=CrossSectionLaw(2, 1.0 / (4.0 * math.pi)),
        )
        reduced = critical_torque_value(reduce_to_isotropic(spec))
        found = first_root_anisotropic(spec, steps=2048)
        worst = max(worst, abs(found - reduced) / reduced)
    assert worst <= 1e-6

    # invariance in the inertia ratio at fixed product Jy * Jz = 1
    roots = []
    for k in (0.1, 1.0 / math.sqrt(10.0), 1.0, math.sqrt(10.0), 10.0):
        spec = AnisotropicRodSpec(
            E=1.0,
            section=AnisotropicSection(Jy=math.sqrt(k), Jz=1.0 / math.sqrt(k)),
            shape=ShapeFunction.constant(1.0, 1.0),
            law=CrossSectionLaw(2, 1.0 / (4.0 * math.pi)),
        )
        roots.append(first_root_anisotropic(spec, steps=2048))
    spread = (max(roots) - min(roots)) / min(roots)
    assert spread <= 1e-6
    assert max(abs(r - 2.0 * math.pi) / (2.0 * math.pi) for r in roots) <= 1e-6

    report(6, f"reduction disagreement {worst:.2e} over 20 cases, ratio-sweep spread {spread:.2e}")


def test_criterion_7_holder_equality_detection():
    """Equality flagged exactly for proportional power pairs, 20 cases."""
    cases = []
    for a in (0.2, 0.7, 1.3, 2.0, 3.1):
        cases.append((lambda t, a=a: a * t, lambda t, a=a: t, 2.0, 2.0, True))
        cases.append((lambda t, a=a: t ** (2.0 * a), lambda t, a=a: t**a, 1.5, 3.0, True))
        cases.append((lambda t, a=a: a + t, lambda t, a=a: 1.0 + a * t, 2.0, 2.0, False))
        cases.append((lambda t, a=a: t**a, lambda t, a=a: 1.0 + t, 1.5, 3.0, False))
    assert len(cases) == 20

    detections = 0
    for f, g, p, q, proportional in cases:
        inst = HolderInstance(f=f, g=g, p=p, q=q, L=1.0)
        lhs, rhs, holds = holder_check(inst)
        assert holds
        equality = abs(rhs - lhs) <= 1e-10 * rhs
        assert equality == proportional
        assert equality == (proportionality_gap(inst) <= 1e-10)
        detections += equality
    report(7, f"{detections}/20 equality cases detected, no false positives")


def test_criterion_8_mode_residual():
    """Modes satisfy the once-integrated balance to 1e-6 at 4096 samples."""
    specs = {
        "constant": RodSpec(
            E=1.0,
            J_ref=1.0,
            shape=ShapeFunction.constant(1.0, 1.0),
            law=CrossSectionLaw(1, 1.0),
        ),
        "piecewise": RodSpec(
            E=1.0,
            J_ref=1.0,
            shape=ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 2.0]),
            law=CrossSectionLaw(1, 1.0),
        ),
    }
    worst_residual = 0.0
    worst_boundary = 0.0
    for spec in specs.values():
        result = critical_torque(spec, mode_grid_size=4096)
        mode, M = result.mode, result.M_crit
        EJ = spec.E * spec.J_ref
        h = mode.x[1] - mode.x[0]
        dy = (mode.y[2:] - mode.y[:-2]) / (2.0 * h)
        dz = (mode.z[2:] - mode.z[:-2]) / (2.0 * h)
        ry = EJ * dy - (M * mode.z[1:-1] + mode.c1)
        rz = EJ * dz - (-M * mode.y[1:-1] + mode.c2)
        amp = float(np.max(mode.amplitude()))
        residual = max(float(np.max(np.abs(ry))), float(np.max(np.abs(rz)))) / (M * amp)
        boundary = max(
            abs(mode.y[0]), abs(mode.z[0]), abs(mode.y[-1]), abs(mode.z[-1])
        ) / amp
        worst_residual = max(worst_residual, residual)
        worst_boundary = max(worst_boundary, boundary)
    assert worst_residual <= 1e-6
    assert worst_boundary <= 1e-9
    report(8, f"balance residual {worst_residual:.2e}, boundary values {worst_boundary:.1e}")
