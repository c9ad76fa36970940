"""The benchmark's trace targets must name live polyhess functions.

``perfbench/workloads.py`` lists the (module, attribute) pairs its span
recorder patches under ``--trace 1``; a rename or deletion in the package
would otherwise only surface when that mode is run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_trace_targets_resolve_to_callables(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    targets = workloads.TRACE_TARGETS
    assert targets
    for modname, attr, _span, _counter in targets:
        fn = getattr(importlib.import_module(modname), attr, None)
        assert callable(fn), f"{modname}.{attr} is not a callable"
