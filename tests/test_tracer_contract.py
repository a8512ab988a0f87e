"""The benchmark's tracer (``bench/tracer.py``) wraps this package's
functions from outside, by name.  Every name it patches must exist, and
leaving its ``instrument`` block must restore every binding it touched,
so renaming or deleting a traced name fails here rather than in a traced
benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(module_names: list[str]) -> dict:
    """Every attribute of the traced modules and of the classes they define."""
    # importing a submodule binds it in the package: import them all first
    modules = [importlib.import_module(name) for name in module_names]
    out = {}
    for name, module in zip(module_names, modules):
        for key, value in vars(module).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    out[name, key, attr] = raw
    return out


def test_instrument_patches_every_target_and_restores_it():
    tracing = load_tracer()
    before = bindings(tracing.MODULES)
    with tracing.instrument(tracing.Tracer()):
        during = bindings(tracing.MODULES)
    after = bindings(tracing.MODULES)

    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    patched = {key for key, value in before.items() if during[key] is not value}
    # every target replaces at least one binding
    assert len(patched) >= len(tracing.TARGETS)
    for where, path, *_ in tracing.TARGETS:
        if where == "class":
            module, cls, attr = path.rsplit(".", 2)
            assert (module, cls, attr) in patched, path
