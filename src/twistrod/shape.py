"""Stiffness profiles, cross-section law, rod description, and quadrature.

The dimensionless stiffness profile F is defined on the rod span
[0, L].  Bending stiffness along the rod is E * J_ref * F(xi).  The
cross-section law ties the profile to the cross-sectional area through
F * J_ref = alpha_n * A**n with n in {1, 2, 3}.

Every profile kind is a chain of panels on which F is constant or
linear.  ``ShapeFunction.panels`` gives that chain as one table (the
panel edges and F at each panel's left and right end), built once when
the profile is constructed; evaluation, the coordinate map, the
shooting oracle's step grid and the area's extremes all read the table,
and nothing but its construction branches on the kind.

``integrate`` is the package's one quadrature engine: adaptive
Gauss-Kronrod (QUADPACK's G10/K21 pair) run on all panels at once, so
each refinement round costs one call of the integrand on an array of
nodes.  Integrands must therefore accept an ndarray.  An integrand may
return a stack of several quantities over the same panels; the stack
shares the first round's call and rule, and each quantity is then
refined alone, to the same float as its own call.  The engine shares no
code with the closed-form panel integrals in ``transform``, so checks
that compare the two stay independent.

Every type here is a frozen value: each construction path validates,
array fields hold read-only copies, and records compare and hash by
value.  Every optimizer operation builds a profile, so construction
checks with the ufuncs and their reductions (``np.logical_and.reduce``,
``np.minimum.reduce`` and kin) and with slices, not with numpy's
Python-level wrappers.  ``AreaProfile`` is a ``ShapeFunction`` seen
through a cross-section law, so it carries no data of its own but its
volume.
Every operation is a pure function, so everything here is safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import QuadratureError

# Profiles whose minimum falls below this fraction of their maximum are
# rejected: the coordinate map integrand 1/F must stay finite.
MIN_RELATIVE_STIFFNESS = 1e-9

DEFAULT_QUAD_TOL = 1e-10
# The volume is a reported result and gets a tighter budget.  Its
# integrand A ~ F**(1/n) stays well conditioned where F is small, unlike
# the reciprocal powers of the split identities, which at 1e-12 exhaust
# the panel budget within a decade of the 1e-9 stiffness contrast floor.
VOLUME_QUAD_TOL = 1e-12

VALID_KINDS = ("constant", "piecewise", "sampled")


def _frozen_copy(values: Sequence[float]) -> np.ndarray:
    """A read-only float copy, so no caller can change a validated profile."""
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _frozen(value) -> bool:
    """Whether ``value`` is a read-only array that nothing writable shares:
    it and every array down its ``base`` chain, to the owner of the memory,
    are read-only."""
    while isinstance(value, np.ndarray) and not value.flags.writeable:
        if value.base is None:
            return True
        value = value.base
    return False


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    """The names of a dataclass's fields in field order, formed once per class."""
    return tuple(f.name for f in fields(cls))


class _ArrayRecord:
    """Base of frozen dataclasses (``eq=False``) with array fields ``_arrays``:
    stores read-only float copies of those not :func:`_frozen` yet, so a
    read-only view of a writable array is copied too, and compares and
    hashes by value (equal class and fields, arrays by shape and element by
    element).
    """

    _arrays: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in self._arrays:
            value = getattr(self, name)
            if value is not None and not _frozen(value):
                object.__setattr__(self, name, _frozen_copy(value))

    @classmethod
    def _of_rows(cls, *columns) -> tuple:
        """One record per row of ``columns``, the values of every field in
        field order, array fields as stacks of rows.  Each stack is made
        :func:`_frozen` once and its rows are shared, where the constructor
        would check every row; nothing else is validated, so the values must
        be what the constructor would store."""
        names = _field_names(cls)
        columns = [
            c if name not in cls._arrays or _frozen(c) else _frozen_copy(c)
            for name, c in zip(names, columns)
        ]
        records = []
        for row in zip(*columns):
            record = object.__new__(cls)
            record.__dict__.update(zip(names, row))
            records.append(record)
        return tuple(records)

    def _key(self) -> tuple:
        values = (getattr(self, name) for name in _field_names(self.__class__))
        return tuple((v.shape, *v.ravel().tolist()) if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def require_positive(value: float, what: str) -> None:
    """Reject a scalar parameter unless it is positive and finite (NaN fails)."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{what} must be positive and finite, got {value}")


def _number_type(cls: type) -> bool:
    """Whether ``cls`` is the type of a JSON number: int or float, never bool."""
    return issubclass(cls, (int, float)) and not issubclass(cls, bool)


def json_number(value, what: str) -> float:
    """A number read from JSON, as a float.  One rule holds for every number
    of a document: an int or a float, never a bool, that a float can hold; a
    string, ``true``, ``false``, ``null``, a list, an object or an integer
    too large for a float is a ValueError naming ``what``."""
    if _number_type(type(value)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def json_numbers(value, what: str) -> np.ndarray:
    """A list of numbers read from JSON, as a float array: a list whose every
    entry is a number under :func:`json_number`'s rule, else a ValueError
    naming ``what``."""
    if isinstance(value, list) and all(map(_number_type, set(map(type, value)))):
        try:
            return np.array(value, dtype=float)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be a list of numbers, got {value!r}")


def json_whole_number(value, what: str) -> int:
    """A count read from JSON: a number under :func:`json_number`'s rule
    without a fraction, as an int, else a ValueError naming ``what``."""
    if _number_type(type(value)) and json_number(value, what).is_integer():
        return int(value)
    raise ValueError(f"{what} must be a whole number, got {value!r}")


# QUADPACK's 21-point Kronrod rule and its embedded 10-point Gauss rule
# (Piessens et al., 1983, routine QK21): abscissae on [-1, 1] from the
# end towards the centre, Kronrod weights, and the Gauss weights that
# belong to every second abscissa.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

# The rules mirrored onto all 21 nodes, in ascending order; the Gauss
# nodes are every second one.
GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
K21_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
G10_WEIGHTS = np.zeros(21)
G10_WEIGHTS[1::2] = np.concatenate([_WG, _WG[::-1]])

# A panel's error estimate is never taken below this multiple of machine
# epsilon times the panel's integral of |f|, which is roundoff.
ROUNDOFF_FLOOR = 50.0 * np.finfo(float).eps
# Refinement stops with QuadratureError once the panel count exceeds this
# multiple of the starting count.
MAX_PANEL_GROWTH = 200

# The weights of the error estimate K21 - G10, formed once.
_ERROR_WEIGHTS = K21_WEIGHTS - G10_WEIGHTS


def _values(f: Callable, nodes: np.ndarray) -> np.ndarray:
    """``f`` at ``nodes``: an array of the nodes' shape for one integrand,
    or of shape ``(m, *nodes.shape)`` for a stack of ``m``.  ``f`` may return
    a stack as a sequence of components; a scalar, or any return short of
    that shape, is broadcast and copied, so the rule always sums a
    contiguous array (a broadcast view would be summed in another order)."""
    out = f(nodes)
    if isinstance(out, (tuple, list)):  # a stack given as its components
        fx = np.empty((len(out), *nodes.shape))
        for c, part in enumerate(out):
            fx[c] = part
        return fx
    fx = np.asarray(out, dtype=float)
    shape = nodes.shape if fx.ndim <= nodes.ndim else (len(fx), *nodes.shape)
    return fx if fx.shape == shape else np.broadcast_to(fx, shape).copy()


def _gauss_kronrod(f: Callable, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K21 estimate and error bound of every panel [lo_i, hi_i], from one
    call of ``f`` on the (panels, 21) node array: of shape (panels,), or
    (m, panels) for a stack of ``m`` integrands."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fx = _values(f, centre[:, None] + half[:, None] * GK_NODES)
    value = half * (fx @ K21_WEIGHTS)
    error = np.abs(half * (fx @ _ERROR_WEIGHTS))
    floor = ROUNDOFF_FLOOR * half * (np.abs(fx) @ K21_WEIGHTS)
    return value, np.maximum(error, floor)


def integrate(
    f: Callable[[np.ndarray], np.ndarray | float | Sequence],
    a: float,
    b: float,
    tol: float = DEFAULT_QUAD_TOL,
    breakpoints: Sequence[float] | None = None,
) -> float | np.ndarray:
    """Adaptive Gauss-Kronrod quadrature of ``f`` over [a, b] with relative
    tolerance ``tol``.

    ``f`` takes an ndarray of nodes and returns values of the same shape
    (a scalar return is broadcast), or a stack of ``m`` integrands: an
    array of shape ``(m, *nodes.shape)`` or a sequence of ``m`` components,
    each an array of the nodes' shape or a scalar.  A stack returns the
    array of its ``m`` integrals.  The interval is split at
    ``breakpoints`` that fall inside it, so piecewise-constant integrands
    come out exact up to roundoff: no node ever sits on a discontinuity.

    Every panel gets the G10/K21 pair; its error is |K21 - G10|, floored
    at 50 eps times the panel's integral of |f|.  Each round evaluates all
    new panels in one call of ``f``.  When the summed error exceeds
    ``tol * |I|``, the panels with the largest errors are bisected, worst
    first, until the errors left alone fit that budget.

    A stack shares the first round: one call of ``f`` and one application
    of the rule for all its components.  Each component is then judged
    against its own ``tol * |I_c|`` and, if it needs more rounds, refined
    alone (``f`` is called for the whole stack and the other components
    are dropped), so every component is the same float as its own
    ``integrate`` call.  For ``a == b``, ``f`` is called once on an empty
    node array to learn the stack's size, and the result is 0.0 or zeros.

    Raises QuadratureError (carrying the best estimate) when the panel
    count exceeds 200 times the starting count or an estimate is not
    finite; for a stack, from the first such component in order.
    """
    if not a <= b:
        raise ValueError(f"integration bounds must satisfy a <= b, got [{a}, {b}]")

    edges = np.array([a, b], dtype=float)
    if breakpoints is not None:
        bp = np.asarray(breakpoints, dtype=float)
        edges = np.unique(np.concatenate([edges, bp[(bp > a) & (bp < b)]]))
    lo, hi = edges[:-1], edges[1:]
    if a == b:  # no panel; f still tells the stack's size
        lo = hi = lo[:0]
    value, error = _gauss_kronrod(f, lo, hi)
    if value.ndim == 1:
        return _converge(f, tol, lo, hi, value, error, f"[{a}, {b}]")
    return np.array([
        _converge(
            lambda x, c=c: f(x)[c], tol, lo, hi, value[c], error[c],
            f"[{a}, {b}] (stack component {c})",
        )
        for c in range(len(value))
    ])


def _converge(
    f: Callable,
    tol: float,
    lo: np.ndarray,
    hi: np.ndarray,
    value: np.ndarray,
    error: np.ndarray,
    where: str,
) -> float:
    """``integrate``'s refinement of one integrand ``f`` from the panels
    [lo, hi] of its first round and their ``value`` and ``error``; ``where``
    names it in a QuadratureError."""
    max_panels = MAX_PANEL_GROWTH * lo.size
    while True:
        total = float(np.add.reduce(value))
        spent = float(np.add.reduce(error))
        if not (math.isfinite(total) and math.isfinite(spent)):
            raise QuadratureError(f"non-finite quadrature estimate on {where}", best_estimate=total)
        budget = tol * abs(total)
        if spent <= budget:
            return total
        order = np.argsort(error)[::-1]
        left_alone = spent - np.cumsum(error[order])  # non-increasing
        count = min(int(np.count_nonzero(left_alone > budget)) + 1, lo.size)
        if lo.size + count > max_panels:
            raise QuadratureError(
                f"quadrature did not converge on {where} within {max_panels} panels "
                f"(error estimate {spent:.3g})",
                best_estimate=total,
            )
        split = order[:count]
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_value, new_error = _gauss_kronrod(f, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        error = np.concatenate([error[keep], new_error])


@dataclass(frozen=True, eq=False)
class ShapeFunction(_ArrayRecord):
    """Positive stiffness profile F on the rod span [0, L].

    Three representations are supported:

    * ``constant`` -- one value everywhere,
    * ``piecewise`` -- constant on half-open segments [b_i, b_{i+1}),
      the last segment closed,
    * ``sampled`` -- values on a uniform grid, piecewise-linear in
      between.

    Use the classmethod constructors.  Every construction validates
    positivity (min F must exceed 1e-9 of max F), domain length, and
    breakpoint ordering, and stores read-only copies of ``values`` and
    ``breakpoints``.  Profiles compare and hash by value.
    """

    kind: str
    L: float
    values: np.ndarray
    breakpoints: np.ndarray | None = None

    _arrays = ("values", "breakpoints")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: float, L: float = 1.0) -> "ShapeFunction":
        return cls(kind="constant", L=float(L), values=_frozen_copy([float(value)]))

    @classmethod
    def piecewise(
        cls, breakpoints: Sequence[float], values: Sequence[float]
    ) -> "ShapeFunction":
        """Piecewise-constant profile; ``breakpoints`` run from 0 to L and
        bound one more point than there are segment ``values``."""
        bp = _frozen_copy(breakpoints)
        L = float(bp[-1]) if bp.ndim == 1 and bp.size else math.nan
        return cls(kind="piecewise", L=L, values=_frozen_copy(values), breakpoints=bp)

    @classmethod
    def sampled(cls, values: Sequence[float], L: float = 1.0) -> "ShapeFunction":
        """Profile sampled on a uniform grid over [0, L], linear in between."""
        return cls(kind="sampled", L=float(L), values=_frozen_copy(values))

    # -- validation ---------------------------------------------------

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown shape kind {self.kind!r}")
        bp, vals = self.breakpoints, self.values
        if self.kind == "piecewise":
            if bp is None or bp.ndim != 1 or bp.size < 2:
                raise ValueError("piecewise profile needs at least two breakpoints")
            if vals.shape != (bp.size - 1,):
                raise ValueError(
                    f"expected {bp.size - 1} segment values for {bp.size} breakpoints, "
                    f"got {vals.size}"
                )
            if bp[0] != 0.0 or bp[-1] != self.L:
                raise ValueError(f"breakpoints must run from 0 to L, got {bp[0]} to {bp[-1]}")
            if not np.logical_and.reduce(bp[1:] > bp[:-1]):
                raise ValueError("breakpoints must be strictly increasing")
        elif bp is not None:
            raise ValueError(f"a {self.kind} profile takes no breakpoints")
        elif self.kind == "sampled" and (vals.ndim != 1 or vals.size < 2):
            raise ValueError("sampled profile needs at least two grid values")
        elif self.kind == "constant" and vals.shape != (1,):
            raise ValueError("constant profile needs exactly one value")
        require_positive(self.L, "domain length")
        if not np.logical_and.reduce(np.isfinite(vals)):
            raise ValueError("profile values must be finite")
        # the panel table, built once: ``panels`` returns it
        if self.kind == "sampled":
            edges = np.linspace(0.0, self.L, vals.size)
            edges.setflags(write=False)
            table = (edges, vals[:-1], vals[1:])
        elif self.kind == "piecewise":
            table = (bp, vals, vals)
        else:
            table = (_frozen_copy([0.0, self.L]), vals, vals)
        object.__setattr__(self, "_panels", table)
        # Probe segment values / grid nodes and panel midpoints.  F is
        # linear on every panel, so its extremes sit at the values anyway.
        edges = table[0]
        probes = np.concatenate([vals, self.evaluate(0.5 * edges[:-1] + 0.5 * edges[1:])])
        lo, hi = float(np.minimum.reduce(probes)), float(np.maximum.reduce(probes))
        if lo <= 0.0 or lo <= MIN_RELATIVE_STIFFNESS * hi:
            raise ValueError(
                f"profile must be strictly positive (min {lo:g} vs max {hi:g})"
            )

    # -- queries ------------------------------------------------------

    def panels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The panel table ``(edges, left, right)``: the boundaries of the
        maximal smooth panels and F at the left and right end of each.  F is
        linear on every panel (constant where ``left == right``), so the table
        is the whole profile; no other query branches on ``kind``.  The table
        is built once, when the profile is constructed, and every call returns
        that same tuple of read-only arrays."""
        return self._panels

    def evaluate(self, xi: float | np.ndarray) -> float | np.ndarray:
        """F(xi) at a scalar or an array; raises on out-of-domain input.  Panels
        are half-open, the last one closed.  Where the panel table's ``left``
        is its ``right`` (piecewise and constant profiles), F is the panel
        value itself.  Otherwise F is interpolated from the nearer end of its
        panel, the offset measured from that end, so it keeps its relative
        precision next to a small node value."""
        x = np.asarray(xi, dtype=float)
        # the ufuncs' own reductions: ``x.min()`` adds numpy's Python wrapper
        lo = np.minimum.reduce(x, axis=None, initial=0.0)
        hi = np.maximum.reduce(x, axis=None, initial=0.0)
        if not (lo >= 0.0 and hi <= self.L):  # NaN fails too
            raise ValueError(f"coordinate outside [0, {self.L}]")
        edges, left, right = self.panels()
        # the last panel is closed: L falls into it, not past it
        i = edges[:-1].searchsorted(x, side="right") - 1
        if left is right:
            out = left[i]
        else:
            a, b, f0, f1 = edges[i], edges[i + 1], left[i], right[i]
            slope = (f1 - f0) / (b - a)
            da, db = x - a, b - x
            out = np.where(da <= db, f0 + slope * da, f1 - slope * db)
        return float(out) if x.ndim == 0 else out

    __call__ = evaluate

    def panel_edges(self) -> np.ndarray:
        """Boundaries of the maximal smooth panels (used to align quadrature
        and fixed-step integration with any discontinuities or kinks)."""
        return self.panels()[0]

    def scaled(self, factor: float) -> "ShapeFunction":
        """New profile with every value multiplied by ``factor`` > 0."""
        require_positive(factor, "scale factor")
        return replace(self, values=_frozen_copy(self.values * factor))

    # -- JSON descriptor ----------------------------------------------

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "L": self.L, "values": self.values.tolist()}
        if self.kind == "piecewise":
            d["breakpoints"] = self.breakpoints.tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ShapeFunction":
        """Parse the JSON shape descriptor
        {"kind": ..., "L": ..., "values": [...], "breakpoints": [...]}"""
        try:
            kind = d["kind"]
        except (TypeError, KeyError):
            raise ValueError("shape descriptor missing 'kind'") from None
        values = json_numbers(d.get("values", []), "shape 'values'")
        if kind == "constant":
            if values.size != 1:
                raise ValueError("constant shape needs exactly one entry in 'values'")
            return cls.constant(values[0], json_number(d.get("L", 1.0), "shape 'L'"))
        if kind == "piecewise":
            if "breakpoints" not in d:
                raise ValueError("piecewise shape needs 'breakpoints'")
            shape = cls.piecewise(json_numbers(d["breakpoints"], "shape 'breakpoints'"), values)
            if "L" in d and json_number(d["L"], "shape 'L'") != shape.L:
                raise ValueError(f"piecewise shape has 'L' {d['L']!r} but its breakpoints end at {shape.L!r}")
            return shape
        if kind == "sampled":
            if "L" not in d:
                raise ValueError("sampled shape needs 'L'")
            return cls.sampled(values, json_number(d["L"], "shape 'L'"))
        raise ValueError(f"unknown shape kind {kind!r}")


class _PanelStack(NamedTuple):
    """The panel tables of several profiles end to end, for work on many
    profiles in one pass: ``widths``, ``left`` and ``right`` of every panel
    (``sizes[s]`` of them for profile s, in order), and ``rows``, of shape
    (profiles, most panels), the index of panel j of profile s at [s, j],
    its last panel past its own, where ``own`` is false."""

    widths: np.ndarray
    left: np.ndarray
    right: np.ndarray
    sizes: np.ndarray
    rows: np.ndarray
    own: np.ndarray


def _stacked_panels(shapes: Sequence[ShapeFunction]) -> _PanelStack:
    """The panel tables of ``shapes`` end to end (:class:`_PanelStack`)."""
    tables = [shape.panels() for shape in shapes]
    sizes = np.array([left.size for _, left, _ in tables])
    panel = np.arange(np.maximum.reduce(sizes))
    # each shape's last panel, as a column
    last = sizes[:, None] - 1
    return _PanelStack(
        np.concatenate([edges[1:] - edges[:-1] for edges, _, _ in tables]),
        np.concatenate([left for _, left, _ in tables]),
        np.concatenate([right for _, _, right in tables]),
        sizes,
        (np.add.accumulate(sizes) - sizes)[:, None] + np.minimum(panel, last),
        panel <= last,
    )


@dataclass(frozen=True)
class CrossSectionLaw:
    """Power law F * J_ref = alpha * A**n relating stiffness to area.

    The exponent is restricted to n in {1, 2, 3}; ``alpha`` carries units
    length**(4 - 2n) so that A**n * alpha has units of length**4.  For the
    geometrically similar solid circular section n = 2 with
    alpha = 1 / (4 pi).
    """

    n: int
    alpha: float

    def __post_init__(self) -> None:
        if self.n not in (1, 2, 3) or isinstance(self.n, bool):
            raise ValueError(f"section-law exponent must be 1, 2 or 3, got {self.n}")
        require_positive(self.alpha, "section-law coefficient")

    def area(self, stiffness: float | np.ndarray) -> float | np.ndarray:
        """Area (F * J_ref / alpha)**(1/n) of sections whose bending inertia
        F * J_ref is ``stiffness``."""
        return (stiffness / self.alpha) ** (1.0 / self.n)

    @classmethod
    def solid_circle(cls) -> "CrossSectionLaw":
        return cls(n=2, alpha=1.0 / (4.0 * math.pi))

    def to_dict(self) -> dict:
        return {"n": self.n, "alpha": self.alpha}

    @classmethod
    def from_dict(cls, d: dict) -> "CrossSectionLaw":
        try:
            n, alpha = d["n"], d["alpha"]
        except (TypeError, KeyError) as exc:
            raise ValueError(f"law descriptor needs 'n' and 'alpha': {exc}") from None
        return cls(
            n=json_whole_number(n, "section-law exponent"),
            alpha=json_number(alpha, "section-law coefficient"),
        )


# The law of a profile in area units, F = A exactly: one value for every
# ``AreaProfile.piecewise``.
_AREA_UNITS = CrossSectionLaw(1, 1.0)


@dataclass(frozen=True)
class RodSpec:
    """Full rod description: modulus, reference inertia, profile, section law.

    The library is unit-agnostic; the caller must keep E, J_ref, lengths and
    alpha in one consistent system.
    """

    E: float
    J_ref: float
    shape: ShapeFunction
    law: CrossSectionLaw

    def __post_init__(self) -> None:
        require_positive(self.E, "Young's modulus")
        require_positive(self.J_ref, "reference inertia")

    def stiffness(self, xi: float | np.ndarray) -> float | np.ndarray:
        """Bending stiffness E * J_ref * F(xi) along the rod."""
        return self.E * self.J_ref * self.shape.evaluate(xi)


@dataclass(frozen=True)
class AreaProfile:
    """Cross-sectional area A = (F * J_ref / alpha)**(1/n) of a validated
    profile ``shape`` under ``law``, with its integral, the volume.

    ``L`` and ``panel_edges`` are the profile's; ``panel_values`` (read-only)
    is set only when the area is constant on every panel, where it
    exposes the per-panel areas that the optimizer treats as design
    variables.  Profiles compare and hash by value.
    """

    shape: ShapeFunction
    J_ref: float
    law: CrossSectionLaw
    volume: float

    def __post_init__(self) -> None:
        require_positive(self.J_ref, "reference inertia")
        require_positive(self.volume, "volume")

    @classmethod
    def piecewise(cls, breakpoints: Sequence[float], areas: Sequence[float]) -> "AreaProfile":
        """Piecewise-constant profile in area units (n = 1, alpha = J_ref = 1,
        so A = F exactly), with the exact volume sum(w * A)."""
        shape = ShapeFunction.piecewise(breakpoints, areas)
        bp = shape.breakpoints
        volume = float(np.add.reduce((bp[1:] - bp[:-1]) * shape.values))
        return cls(shape=shape, J_ref=1.0, law=_AREA_UNITS, volume=volume)

    @classmethod
    def constant(cls, value: float, L: float) -> "AreaProfile":
        return cls.piecewise([0.0, L], [value])

    def area(self, xi: float | np.ndarray) -> float | np.ndarray:
        """A(xi) at a scalar or an array."""
        return self.law.area(np.asarray(self.shape.evaluate(xi)) * self.J_ref)

    @property
    def L(self) -> float:
        return self.shape.L

    @property
    def panel_edges(self) -> np.ndarray:
        return self.shape.panels()[0]

    @cached_property
    def panel_values(self) -> np.ndarray | None:
        _, left, right = self.shape.panels()
        if left is not right and not np.array_equal(left, right):
            return None
        return _frozen_copy(self.law.area(left * self.J_ref))

    @property
    def mean_area(self) -> float:
        return self.volume / self.L

    def max_relative_deviation(self) -> float:
        """sup |A - mean| / mean, exact from the panel table: the area is
        monotone on every panel, so its extremes sit at the panel edges,
        where F is the table's ``left`` values and the last ``right`` one
        (the same floats ``evaluate`` gives there, at offset 0)."""
        _, left, right = self.shape.panels()
        a = self.law.area(np.concatenate([left, right[-1:]]) * self.J_ref)
        mean = self.mean_area
        return float(np.max(np.abs(a - mean)) / mean)


def area_profile(spec: RodSpec) -> AreaProfile:
    """The area profile of a rod.

    The volume integrates the area, evaluated pointwise from the exact
    stiffness profile (no resampling), with the profile's panels as
    quadrature boundaries, to relative tolerance ``VOLUME_QUAD_TOL``.
    """
    shape, J_ref, law = spec.shape, spec.J_ref, spec.law
    volume = integrate(
        lambda xi: law.area(shape.evaluate(xi) * J_ref),
        0.0, shape.L, tol=VOLUME_QUAD_TOL, breakpoints=shape.panels()[0],
    )
    return AreaProfile(shape=shape, J_ref=J_ref, law=law, volume=volume)
