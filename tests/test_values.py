"""Value contract of the public frozen records.

Built twice from equal inputs, a record compares equal and hashes
equally, and every array it holds (its own array fields, those of the
records it holds, and an area profile's panel arrays) refuses writes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from twistrod.greenhill import critical_torque
from twistrod.isoperimetric import verify_bound
from twistrod.optimizer import OptimizationProblem, OptimizationTrace, optimize
from twistrod.oracle import shoot
from twistrod.shape import AreaProfile, CrossSectionLaw, RodSpec, ShapeFunction, area_profile
from twistrod.transform import CoordinateMap

LAW = CrossSectionLaw(2, 0.25)


def spec() -> RodSpec:
    return RodSpec(E=2.0, J_ref=0.5, shape=ShapeFunction.piecewise([0.0, 0.3, 1.0], [1.0, 2.0]), law=LAW)


def problem() -> OptimizationProblem:
    return OptimizationProblem.from_areas([1.0, 3.0, 2.0], 2.0, 1.0, LAW, 1.0)


BUILDERS = {
    "ShapeFunction": lambda: ShapeFunction.sampled([1.0, 2.0, 1.5], 2.0),
    "RodSpec": spec,
    "CrossSectionLaw": lambda: CrossSectionLaw(3, 0.5),
    "AreaProfile.piecewise": lambda: AreaProfile.piecewise([0.0, 0.5, 1.0], [1.0, 3.0]),
    "area_profile": lambda: area_profile(spec()),
    "OptimizationProblem": problem,
    "OptimizerIterate": lambda: optimize(problem()).final,
    "OptimizationTrace": lambda: optimize(problem()),
    "ModeShape": lambda: critical_torque(spec(), mode_grid_size=33).mode,
    "BucklingResult": lambda: critical_torque(spec(), mode_grid_size=33),
    "IsoperimetricReport": lambda: verify_bound(spec()),
    "CoordinateMap": lambda: CoordinateMap.build(spec().shape),
    "ShootingResult": lambda: shoot(spec(), 3.0, steps=64),
}
ARRAYLESS = {"CrossSectionLaw", "IsoperimetricReport"}


def arrays_in(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays_in(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from arrays_in(getattr(value, f.name))
        if isinstance(value, AreaProfile):
            yield from arrays_in((value.panel_edges, value.panel_values))


@pytest.mark.parametrize("name", BUILDERS)
def test_equal_inputs_give_equal_frozen_values(name):
    first, second = BUILDERS[name](), BUILDERS[name]()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    arrays = list(arrays_in(first))
    assert bool(arrays) == (name not in ARRAYLESS)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[...] = 0.0


def test_area_profiles_differ_by_any_field():
    base = area_profile(spec())
    for other in (
        area_profile(dataclasses.replace(spec(), J_ref=0.6)),
        area_profile(dataclasses.replace(spec(), law=CrossSectionLaw(2, 0.3))),
        area_profile(dataclasses.replace(spec(), shape=spec().shape.scaled(2.0))),
        dataclasses.replace(base, volume=2.0 * base.volume),
    ):
        assert other != base
    assert AreaProfile.piecewise([0.0, 1.0], [2.0]) == AreaProfile.constant(2.0, 1.0)
    assert AreaProfile.piecewise([0.0, 1.0], [2.0]) != AreaProfile.constant(2.5, 1.0)


def test_direct_construction_validates():
    with pytest.raises(ValueError):
        ShapeFunction("piecewise", 2.0, np.array([1.0, 2.0]), np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        ShapeFunction("sampled", 1.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        ShapeFunction("constant", 1.0, np.array([1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        AreaProfile(ShapeFunction.constant(1.0), 1.0, LAW, volume=0.0)
    # a raw construction still stores read-only copies
    values = np.array([1.0, 2.0])
    shape = ShapeFunction("sampled", 1.0, values)
    values[0] = 5.0
    assert shape == ShapeFunction.sampled([1.0, 2.0])


def test_trace_holds_a_tuple():
    trace = optimize(problem())
    assert isinstance(trace.iterates, tuple)
    relisted = OptimizationTrace(list(trace.iterates))
    assert relisted == trace and hash(relisted) == hash(trace)
