"""The benchmark tracer's layer table names live attributes.

``perfbench/tracing.py`` wraps functions by module path and attribute name
from outside the package, so renaming or deleting one of those names in
``src/`` would otherwise surface only when a traced benchmark run installs
its wrappers.  This resolves every entry the way the tracer does.
"""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_layer_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.LAYERS
    for name, module_path, attr_path, _ in tracing.LAYERS:
        owner, attr = tracing._resolve(module_path, attr_path)
        assert callable(getattr(owner, attr)), (name, module_path, attr_path)
