"""One rule for scalar inputs: a parameter that must be positive is
rejected unless it is positive and finite, and an exponent that must be
at least 1 rejects NaN.  Every entry point raises ValueError, never
returns NaN, inf or 0 from a NaN or infinite input."""

from __future__ import annotations

import math

import pytest

from twistrod.anisotropic import mode_to_anisotropic
from twistrod.greenhill import BucklingResult, critical_torque, critical_torque_constant, mode_shape
from twistrod.isoperimetric import HolderInstance, holder_conjugate, proportionality_gap, upper_bound
from twistrod.oracle import shoot
from twistrod.shape import CrossSectionLaw, RodSpec, ShapeFunction

LAW = CrossSectionLaw(2, 0.25)
SPEC = RodSpec(E=2.0, J_ref=0.5, shape=ShapeFunction.piecewise([0.0, 0.3, 1.0], [1.0, 2.0]), law=LAW)
# not positive and finite
BAD = [math.nan, math.inf, -math.inf, 0.0, -1.0]


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("index, name", [(0, "E"), (1, "J"), (2, "l")])
def test_critical_torque_constant(index, name, bad):
    args = [1.0, 1.0, 1.0]
    args[index] = bad
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        critical_torque_constant(*args)


@pytest.mark.parametrize("k", [0, -1, 1.5, math.nan, math.inf])
def test_critical_torque_constant_mode_index(k):
    with pytest.raises(ValueError, match="mode index"):
        critical_torque_constant(1.0, 1.0, 1.0, k)
    assert critical_torque_constant(1.0, 1.0, 1.0, 2.0) == 4.0 * math.pi


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", ["E", "V", "L"])
def test_upper_bound(name, bad):
    args = {"E": 1.0, "V": 1.0, "L": 1.0}
    args[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        upper_bound(args["E"], LAW, args["V"], args["L"])


@pytest.mark.parametrize("bad", BAD)
def test_mode_shape(bad):
    with pytest.raises(ValueError, match="torque must be positive and finite"):
        mode_shape(SPEC, bad)


@pytest.mark.parametrize("bad", BAD)
def test_shoot(bad):
    with pytest.raises(ValueError, match="torque must be positive and finite"):
        shoot(SPEC, bad, steps=64)


@pytest.mark.parametrize("bad", BAD)
def test_mode_to_anisotropic(bad):
    mode = critical_torque(SPEC, mode_grid_size=33).mode
    with pytest.raises(ValueError, match="inertia ratio must be positive and finite"):
        mode_to_anisotropic(mode, bad)


@pytest.mark.parametrize("bad", BAD)
def test_buckling_result(bad):
    mode = critical_torque(SPEC, mode_grid_size=33).mode
    with pytest.raises(ValueError, match="critical torque must be positive and finite"):
        BucklingResult(M_crit=bad, mode_index=1, mode=mode)


@pytest.mark.parametrize("bad", BAD)
def test_shape_scaled(bad):
    with pytest.raises(ValueError, match="scale factor must be positive and finite"):
        SPEC.shape.scaled(bad)


@pytest.mark.parametrize("p", [math.nan, 0.5, -math.inf])
def test_holder_conjugate(p):
    with pytest.raises(ValueError, match="p >= 1"):
        holder_conjugate(p)
    # the ends of the range map to each other
    assert holder_conjugate(1.0) == math.inf and holder_conjugate(math.inf) == 1.0


def holder(**changes) -> HolderInstance:
    fields = {"f": lambda t: 1.0 + t, "g": lambda t: 2.0 - t, "p": 2.0, "q": 2.0, "L": 1.0}
    return HolderInstance(**{**fields, **changes})


@pytest.mark.parametrize(
    "changes, message",
    [
        *[({"L": bad}, "domain length must be positive and finite") for bad in BAD],
        ({"p": math.nan}, "exponents must be >= 1"),
        ({"q": math.nan}, "exponents must be >= 1"),
        ({"p": 0.5, "q": -1.0}, "exponents must be >= 1"),
        ({"p": math.inf, "q": math.inf}, "at most one exponent may be infinite"),
        ({"p": 2.0, "q": 3.0}, "not conjugate"),
    ],
)
def test_holder_instance(changes, message):
    with pytest.raises(ValueError, match=message):
        holder(**changes)
    # one infinite exponent is allowed, with 1 as its conjugate
    assert holder(p=1.0, q=math.inf).q == math.inf


def test_proportionality_gap_rejections():
    with pytest.raises(ValueError, match="finite exponents"):
        proportionality_gap(holder(p=1.0, q=math.inf))
    with pytest.raises(ValueError, match="positive integrals"):
        proportionality_gap(holder(f=lambda t: 0.0 * t))


@pytest.mark.parametrize("values", [[], [1.0, 2.0], None])
def test_constant_shape_descriptor_needs_one_value(values):
    descriptor = {"kind": "constant", "L": 1.0}
    if values is not None:
        descriptor["values"] = values
    with pytest.raises(ValueError, match="exactly one entry"):
        ShapeFunction.from_dict(descriptor)
