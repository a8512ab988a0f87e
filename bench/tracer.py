"""In-memory span tracer that wraps twistrod's public functions from outside.

``instrument(tracer)`` replaces each target function in the module
namespaces that hold it (and methods on their classes) with a timing
wrapper, and restores the originals on exit, so the package itself is
never edited.  Two kinds of wrapper exist:

* span targets append one record per call: (id, name, start, end,
  parent id, operation id);
* hot targets (called thousands of times per operation, such as
  ``ShapeFunction.evaluate``) only add to per-name counters, which keeps
  memory flat and the overhead low.

Both kinds push a frame on the call stack, so every wrapper's self time
-- its duration minus the time its wrapped children took -- is exact,
and a span's parent is its nearest recorded ancestor.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from time import perf_counter


def _steps(args, kwargs) -> int:
    """RK4 steps of one ``propagate(grid, ...)`` call: the grid length."""
    return len(args[0] if args else kwargs["grid"])


# (module, attribute, name, hot, work counter).  The module is the one
# namespace patched; "*" patches every twistrod namespace holding the
# same object.  ``brentq`` is scipy's, imported into several modules, so
# only the oracle's binding is wrapped.  ``propagate`` is patched per
# calling namespace so the anisotropic share can be told apart.
TARGETS = [
    ("twistrod.oracle", "propagate", "propagate@oracle", True, _steps),
    ("twistrod.anisotropic", "propagate", "propagate@anisotropic", True, _steps),
    ("*", "twistrod.oracle.build_step_grid", "oracle.build_step_grid", False, None),
    ("twistrod.oracle", "brentq", "oracle.refine", False, None),
    ("*", "twistrod.oracle.critical_torque_oracle", "oracle.critical_torque_oracle", False, None),
    ("*", "twistrod.anisotropic.first_root_anisotropic", "anisotropic.first_root", False, None),
    ("*", "twistrod.shape.integrate", "shape.integrate", False, None),
    ("*", "twistrod.shape.area_profile", "shape.area_profile", False, None),
    ("class", "twistrod.shape.AreaProfile.piecewise", "shape.area_profile", True, None),
    ("class", "twistrod.shape.AreaProfile.max_relative_deviation", "shape.max_relative_deviation", True, None),
    ("class", "twistrod.shape.ShapeFunction.evaluate", "shape.evaluate", True, None),
    ("class", "twistrod.shape.ShapeFunction.__call__", "shape.evaluate", True, None),
    ("class", "twistrod.shape.ShapeFunction.constant", "shape.construct", True, None),
    ("class", "twistrod.shape.ShapeFunction.piecewise", "shape.construct", True, None),
    ("class", "twistrod.shape.ShapeFunction.sampled", "shape.construct", True, None),
    ("*", "twistrod.transform.physical_length", "transform.physical_length", False, None),
    ("class", "twistrod.transform.CoordinateMap.build", "transform.coordinate_map", False, None),
    ("*", "twistrod.greenhill.critical_torque_value", "greenhill.critical_torque_value", False, None),
    ("*", "twistrod.greenhill.mode_shape", "greenhill.mode_shape", False, None),
    ("*", "twistrod.isoperimetric.verify_bound", "isoperimetric.verify_bound", False, None),
    ("*", "twistrod.isoperimetric.split_identity_residuals", "isoperimetric.split_identity", False, None),
    ("*", "twistrod.optimizer.optimize", "optimizer.optimize", False, None),
    ("*", "twistrod.optimizer.brute_force_segments", "optimizer.brute_force", False, None),
    ("*", "twistrod.optimizer.objective", "optimizer.objective", True, None),
    ("twistrod.cli", "main", "cli.main", False, None),
]

MODULES = [
    "twistrod",
    "twistrod.anisotropic",
    "twistrod.cli",
    "twistrod.greenhill",
    "twistrod.isoperimetric",
    "twistrod.optimizer",
    "twistrod.oracle",
    "twistrod.sampling",
    "twistrod.shape",
    "twistrod.transform",
]


class Stat:
    __slots__ = ("calls", "self_s", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.work = 0


class Tracer:
    """Span records and per-name counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.stats: dict[str, Stat] = {}
        self.op = -1
        self._next_id = 0
        # open frames: [time covered by wrapped children, id children report as parent]
        self._stack: list[list] = [[0.0, -1]]

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def call(self, name: str, record: bool, work, fn, args, kwargs):
        parent = self._stack[-1]
        if record:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent[1]
        frame = [0.0, span_id]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            dur = t1 - t0
            parent[0] += dur
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = Stat()
            st.calls += 1
            st.self_s += dur - frame[0]
            if work is not None:
                st.work += work(args, kwargs)
            if record:
                self.spans.append((span_id, name, t0, t1, parent[1], self.op))

    def wrap(self, fn, name: str, record: bool, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, record, work, fn, args, kwargs)

        return wrapper

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": t0, "end": t1, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def _resolve(dotted: str):
    """Module attribute or class attribute named by a dotted path."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:-1]:
            obj = getattr(obj, attr)
        return obj, parts[-1]
    raise LookupError(dotted)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    modules = [importlib.import_module(m) for m in MODULES]
    undo: list[tuple[object, str, object]] = []
    try:
        for where, path, name, hot, work in TARGETS:
            if where == "class":
                owner, attr = _resolve(path)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(tracer.wrap(raw.__func__, name, not hot, work))
                else:
                    new = tracer.wrap(raw, name, not hot, work)
                undo.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            if where == "*":
                home, attr = _resolve(path)
                original = getattr(home, attr)
                holders = [
                    (m, key) for m in modules for key, v in vars(m).items() if v is original
                ]
            else:
                holders = [(importlib.import_module(where), path)]
                original = getattr(*holders[0])
            wrapper = tracer.wrap(original, name, not hot, work)
            for m, key in holders:
                undo.append((m, key, original))
                setattr(m, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
