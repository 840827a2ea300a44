"""perfbench's traced runs find every layer's entry points by name.

``perfbench/tracer.py`` wraps each target by looking it up with
``vars(owner)[attr]`` in the module that calls it, and extends the LSM's
table of replayable hook implementations with the wrappers.  A rename or
deletion under ``src/`` that drops one of those names breaks the traced
benchmark; these checks catch it in the tier-1 suite.  The tracer is
loaded from its file and only read: nothing is wrapped here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_by_name(tracer):
    targets = tracer._expand_targets()
    assert targets
    missing = []
    for module_name, path, layer in targets:
        assert layer in tracer.LAYERS, (module_name, path, layer)
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []


def test_pure_hook_table_holds_wrapped_hook_names(tracer):
    lsm = importlib.import_module("repro.osim.lsm")
    table = lsm._PURE_HOOK_IMPLS
    assert table
    for name, impls in table.items():
        assert name in tracer._LSM_HOOKS, name
        assert isinstance(impls, tuple), name
        assert vars(lsm.LaminarSecurityModule)[name] in impls, name
