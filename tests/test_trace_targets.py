"""The benchmark tracer in ``perfbench/spans.py`` patches each traced
function at the module attribute its callers look it up by.  A refactor that
drops one of those names (an import such as ``simulator.max_weight_schedule``)
would otherwise fail only a traced benchmark run.  So would a renamed
``validate`` check, whose slugged name is a per-layer metric of the
benchmark, and a change to how the validate suite calls ``simulator.run``,
which the benchmark wraps to count slots."""

from __future__ import annotations

import importlib
import importlib.util
import json
import re
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


def test_validate_check_names_are_the_benchmark_metrics():
    # perfbench/worker.py maps each check to "validate.<slug>.s" and raises
    # KeyError in a traced run when the two sets differ.
    from switchlab import validate

    bench = json.loads((SPANS.parents[1] / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in bench["per_layer"] if m["name"].startswith("validate.")}
    slugged = {f"validate.{re.sub(r'[^a-z0-9]+', '_', name.lower()).strip('_')}.s"
               for name, _, _ in validate._CHECKS}
    assert len(slugged) == len(validate._CHECKS)
    assert slugged == listed


def test_validate_suite_runs_through_a_one_argument_run(monkeypatch):
    # perfbench/worker.py::analytics_rep swaps simulator.run for a wrapper
    # that takes one argument and counts the slots run; analytics-validate's
    # slots_per_s is that count over wall time.  A second argument would
    # crash a check, and another slot count would move the metric.
    from switchlab import simulator, validate

    original_run, run_slots = simulator.run, []

    def counted_run(cfg):
        st = original_run(cfg)
        run_slots.append(st.warmup_slots + st.measured_slots)
        return st

    monkeypatch.setattr(simulator, "run", counted_run)
    results = validate.run_suite(seed=0, out=lambda line: None)
    assert [r.name for r in results if not r.ok] == []
    assert run_slots == [21_980, 21_980] and sum(run_slots) == 43_960
