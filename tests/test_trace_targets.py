"""The benchmark tracer in ``perfbench/spans.py`` patches each traced
function at the module attribute its callers look it up by.  A refactor that
drops one of those names (an import such as ``simulator.max_weight_schedule``)
would otherwise fail only a traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_resolves():
    spans = load_spans()
    assert spans.TARGETS
    for module, path, _, _ in spans.TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # Tracer.patched reads owner.__dict__[attr]: a name inherited or
        # resolved some other way cannot be patched in place.
        assert attr in owner.__dict__, f"{module}.{path} is not defined on its owner"
        assert callable(owner.__dict__[attr]), f"{module}.{path} is not callable"
