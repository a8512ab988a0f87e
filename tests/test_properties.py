"""Properties that the paper implies, over every profile kind (hypothesis).

Rods draw their kind (constant, unequal-width piecewise or sampled), a
stiffness contrast down to 1e-8, a span L from 1e-3 to 1e3 and a modulus
up to 1e11, for the closed-form torque, the volume and the bound.  The
shooting oracle runs on fewer rods (:func:`shot_rods`), of equal- or
unequal-width piecewise or sampled profiles; it also checks that
refining a profile (splitting a piecewise panel, inserting a sampled
rod's midpoints) changes neither the closed forms nor the root.  The
fixed-volume ascent starts from panel areas of the same contrasts.  The
search is derandomized, so every run draws the same rods.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistrod.greenhill import critical_torque_value
from twistrod.isoperimetric import upper_bound, verify_bound
from twistrod.optimizer import OptimizationProblem, _torque, optimize
from twistrod.oracle import critical_torque_oracle
from twistrod.shape import CrossSectionLaw, RodSpec, ShapeFunction, area_profile

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# A root costs a few milliseconds, so the shooting properties draw fewer
ORACLE_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=25)
# A sweep of 3000 rods from these strategies found worst relative errors
# of 7e-16 (scaling), 4e-16 (E), 1e-15 (reversed torque) and 3e-15
# (reversed volume); the volume's own quadrature tolerance is 1e-12.
CLOSED_FORM_TOL = 1e-13
VOLUME_TOL = 1e-12
# Refinement, 60 draws of each case: closed forms, volume and bound ratio
# within 9.4e-16; split piecewise roots within 7.7e-16 and sampled roots
# with their midpoints inserted within 1.6e-12
REFINE_TOL = 1e-13
SPLIT_ROOT_TOL = 1e-12
MIDPOINT_ROOT_TOL = 1e-10
# 150 rods of shot_rods: reversed roots within 1.1e-14 of the root, roots
# within 2.3e-10 of the closed form (the RK4 error at 4096 steps); steps
# shared by width instead of phase fail the second property
REVERSAL_TOL = 1e-9
ORACLE_TOL = 1e-7


def exponent(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def shapes(draw) -> ShapeFunction:
    kind = draw(st.sampled_from(["constant", "piecewise", "sampled"]))
    L = draw(exponent(-3.0, 3.0))
    scale = draw(exponent(-4.0, 4.0))
    if kind == "constant":
        return ShapeFunction.constant(scale, L)
    count = draw(st.integers(1 if kind == "piecewise" else 2, 9))
    contrast = draw(exponent(-8.0, 0.0))
    powers = draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count))
    values = [scale * contrast**p for p in powers]
    if kind == "sampled":
        return ShapeFunction.sampled(values, L)
    widths = draw(st.lists(st.floats(0.05, 1.0), min_size=count, max_size=count))
    edges = [0.0]
    for w in widths:
        edges.append(edges[-1] + w)
    return ShapeFunction.piecewise([L * e / edges[-1] for e in edges], values)


@st.composite
def rods(draw) -> RodSpec:
    return RodSpec(
        E=draw(exponent(-2.0, 11.0)),
        J_ref=draw(exponent(-10.0, 0.0)),
        shape=draw(shapes()),
        law=CrossSectionLaw(draw(st.integers(1, 3)), draw(exponent(-4.0, 1.0))),
    )


def reversed_rod(spec: RodSpec) -> RodSpec:
    """The rod with profile F(L - xi)."""
    d = spec.shape.to_dict()
    d["values"] = d["values"][::-1]
    if "breakpoints" in d:
        d["breakpoints"] = [spec.shape.L - b for b in d["breakpoints"][::-1]]
    return replace(spec, shape=ShapeFunction.from_dict(d))


@PROPERTY_SETTINGS
@given(rods(), exponent(-3.0, 3.0))
def test_torque_is_homogeneous_in_stiffness(spec, lam):
    scaled = replace(spec, shape=spec.shape.scaled(lam))
    assert critical_torque_value(scaled) == pytest.approx(
        lam * critical_torque_value(spec), rel=CLOSED_FORM_TOL
    )


@PROPERTY_SETTINGS
@given(rods(), exponent(-3.0, 3.0))
def test_torque_is_linear_in_modulus(spec, c):
    assert critical_torque_value(replace(spec, E=c * spec.E)) == pytest.approx(
        c * critical_torque_value(spec), rel=CLOSED_FORM_TOL
    )


@PROPERTY_SETTINGS
@given(rods())
def test_reversal_keeps_torque_and_volume(spec):
    flipped = reversed_rod(spec)
    assert critical_torque_value(flipped) == pytest.approx(
        critical_torque_value(spec), rel=CLOSED_FORM_TOL
    )
    assert area_profile(flipped).volume == pytest.approx(
        area_profile(spec).volume, rel=VOLUME_TOL
    )


@PROPERTY_SETTINGS
@given(rods())
def test_bound_holds(spec):
    assert verify_bound(spec).ratio <= 1.0 + 1e-12


@st.composite
def optimization_problems(draw) -> OptimizationProblem:
    """A fixed-volume problem of 1-64 panels whose start spans a contrast
    down to 1e-8, over six decades of V, L and E and any law."""
    count = draw(st.integers(1, 64))
    contrast = draw(exponent(-8.0, 0.0))
    powers = draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count))
    law = CrossSectionLaw(draw(st.integers(1, 3)), draw(exponent(-4.0, 1.0)))
    V, L, E = draw(exponent(-3.0, 3.0)), draw(exponent(-3.0, 3.0)), draw(exponent(-2.0, 11.0))
    return OptimizationProblem.from_areas([contrast**p for p in powers], V, L, law, E)


@PROPERTY_SETTINGS
@given(optimization_problems())
def test_ascent_converges_below_the_bound(problem):
    trace = optimize(problem)
    assert trace.converged
    torques = [it.M_star for it in trace.iterates]
    assert all(later > earlier for earlier, later in zip(torques, torques[1:]))
    bound = upper_bound(problem.E, problem.law, problem.V_target, problem.L)
    assert torques[-1] <= bound * (1.0 + 1e-10)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(
    st.integers(1, 3),
    exponent(-12.0, 0.0),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=64),
)
def test_full_trial_step_never_loses(n, contrast, powers):
    # the ascent's first trial A + reach (A_min/A)**(n+1), rescaled to the
    # volume, scores at least the start's torque up to roundoff, which is
    # why optimize never shortens it
    law = CrossSectionLaw(n, 1.0)
    areas = np.array([contrast**p for p in powers])
    areas *= len(areas) / areas.sum()  # V = L = 1 on equal panels
    widths = np.full(len(areas), 1.0 / len(areas))
    trial = areas + (areas.min() / areas) ** (n + 1) / (n + 1)
    trial *= len(areas) / trial.sum()
    start = _torque(widths, areas, 1.0, law)
    assert _torque(widths, trial, 1.0, law) >= (1.0 - 1e-12) * start


@st.composite
def shot_rods(draw, kinds=("equal", "unequal", "sampled")) -> RodSpec:
    """A rod for the shooting properties: an equal-width piecewise, an
    unequal-width piecewise (widths log-uniform over three decades, so
    that narrow soft panels occur) or a sampled profile of 1-9 panels
    whose values span the drawn contrast, at unit or SI scale (E = 2e11,
    J_ref 1e-9 to 1e-7), of one of ``kinds``.
    The values come from a numpy generator seeded by the draw, so that few
    examples still spread over the kinds and contrasts."""
    kind = draw(st.sampled_from(kinds))
    contrast = draw(st.sampled_from([1e-8, 1e-6, 1e-3, 0.1]))
    si = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = int(rng.integers(2 if kind == "sampled" else 1, 10))
    values = contrast ** rng.uniform(0.0, 1.0, count)
    if count > 1:
        values[rng.permutation(count)[:2]] = contrast, 1.0
    L = rng.uniform(0.5, 5.0) if si else 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "sampled":
        shape = ShapeFunction.sampled(values, L)
    else:
        widths = np.ones(count) if kind == "equal" else 10.0 ** rng.uniform(-3.0, 0.0, count)
        edges = np.concatenate([[0.0], np.cumsum(widths)])
        shape = ShapeFunction.piecewise(L * edges / edges[-1], values)
    E, J = (2e11, 10.0 ** rng.uniform(-9.0, -7.0)) if si else 10.0 ** rng.uniform(-2.0, 2.0, 2)
    return RodSpec(E=E, J_ref=J, shape=shape, law=CrossSectionLaw(2, 1.0 / (4.0 * np.pi)))


@ORACLE_SETTINGS
@given(shot_rods())
def test_reversal_keeps_oracle_root(spec):
    root = critical_torque_oracle(spec)
    assert critical_torque_oracle(reversed_rod(spec)) == pytest.approx(root, rel=REVERSAL_TOL)


@ORACLE_SETTINGS
@given(shot_rods())
def test_oracle_matches_closed_form(spec):
    assert critical_torque_oracle(spec) == pytest.approx(critical_torque_value(spec), rel=ORACLE_TOL)


def assert_refinement_changes_nothing(spec: RodSpec, shape: ShapeFunction, root_tol: float):
    """``shape``, a refinement of the rod's profile, has the rod's closed-form
    torque, volume, bound ratio and, within ``root_tol``, oracle root."""
    refined = replace(spec, shape=shape)
    assert critical_torque_value(refined) == pytest.approx(
        critical_torque_value(spec), rel=REFINE_TOL
    )
    assert area_profile(refined).volume == pytest.approx(area_profile(spec).volume, rel=REFINE_TOL)
    assert verify_bound(refined).ratio == pytest.approx(verify_bound(spec).ratio, rel=REFINE_TOL)
    assert critical_torque_oracle(refined) == pytest.approx(
        critical_torque_oracle(spec), rel=root_tol
    )


@ORACLE_SETTINGS
@given(shot_rods(kinds=("equal", "unequal")), st.integers(0, 8), st.floats(0.01, 0.99))
def test_splitting_a_panel_changes_nothing(spec, panel, fraction):
    edges, values = spec.shape.breakpoints, spec.shape.values
    j = panel % values.size
    cut = edges[j] + fraction * (edges[j + 1] - edges[j])
    split = ShapeFunction.piecewise(np.insert(edges, j + 1, cut), np.insert(values, j, values[j]))
    assert_refinement_changes_nothing(spec, split, SPLIT_ROOT_TOL)


@ORACLE_SETTINGS
@given(shot_rods(kinds=("sampled",)))
def test_sampled_midpoints_change_nothing(spec):
    nodes = spec.shape.values
    fine = np.empty(2 * nodes.size - 1)
    fine[::2], fine[1::2] = nodes, 0.5 * (nodes[:-1] + nodes[1:])
    assert_refinement_changes_nothing(
        spec, ShapeFunction.sampled(fine, spec.shape.L), MIDPOINT_ROOT_TOL
    )


@PROPERTY_SETTINGS
@given(optimization_problems(), st.sampled_from([1e-80, 1e80]))
def test_scaling_the_volume_leaves_the_gaps(problem, factor):
    # the trial step reach * (A_min / A)**(n + 1) is scale-free, so a
    # problem scaled far past the range where n h A**(-n-1) overflows
    # takes the same steps, up to roundoff
    scaled = OptimizationProblem.from_areas(
        problem.init.panel_values, problem.V_target * factor, problem.L, problem.law, problem.E
    )
    gaps = [it.gap for it in optimize(problem).iterates]
    scaled_gaps = [it.gap for it in optimize(scaled).iterates]
    assert len(scaled_gaps) == len(gaps)
    assert np.allclose(scaled_gaps, gaps, rtol=0.0, atol=1e-12)
