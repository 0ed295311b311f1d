"""Span tracing of the package's layers from outside the package.

``Tracer.patched()`` replaces public functions at the names their callers
look them up by (a module attribute, or a method on its class) with wrappers
that record one span per call: name, parent span, start and end in
nanoseconds, and a count taken at the boundary (rows sampled, slots run,
descent sweeps, orderings).  Spans stay in memory until ``write_csv``.
Patches reach only the current process, so traced sweeps run with jobs=1.
"""

from __future__ import annotations

import contextlib
import importlib
from time import perf_counter_ns


def _no_count(args, kwargs, out) -> int:
    return 0


def _rows_sampled(args, kwargs, out) -> int:
    return len(out)


def _slots_run(args, kwargs, out) -> int:
    return out.warmup_slots + out.measured_slots


def _descent_sweeps(args, kwargs, out) -> int:
    return out.sweeps


def _orderings(args, kwargs, out) -> int:
    return len(out.per_ordering)


# (module, attribute path, span name, count at the boundary).  A function
# imported into several modules is patched at each name a caller uses.
TARGETS = [
    ("switchlab.traffic", "ArrivalModel.sample_block", "traffic.sample_block", _rows_sampled),
    ("switchlab.simulator", "hungarian_schedule", "scheduling.hungarian_schedule", _no_count),
    ("switchlab.scheduling", "hungarian_schedule", "scheduling.hungarian_schedule", _no_count),
    ("switchlab.simulator", "max_weight_schedule", "scheduling.max_weight_schedule", _no_count),
    ("switchlab.scheduling", "max_weight_schedule", "scheduling.max_weight_schedule", _no_count),
    ("switchlab.simulator", "project_cone", "wlinalg.project_cone", _descent_sweeps),
    ("switchlab.wlinalg", "project_cone", "wlinalg.project_cone", _descent_sweeps),
    ("switchlab.wlinalg", "project_space", "wlinalg.project_space", _no_count),
    ("switchlab.wlinalg", "solve_dense", "wlinalg.solve_dense", _no_count),
    ("switchlab.analytics", "solve_dense", "wlinalg.solve_dense", _no_count),
    ("switchlab.simulator", "run", "simulator.run", _slots_run),
    ("switchlab.analytics", "zeta_projection", "analytics.zeta_projection", _no_count),
    ("switchlab.analytics", "zeta_gmatrix", "analytics.zeta_gmatrix", _no_count),
    ("switchlab.analytics", "universal_lower_bound", "analytics.universal_lower_bound", _orderings),
    ("switchlab.cli", "run_sweep", "cli.run_sweep", _no_count),
    ("switchlab.cli", "analytic_block", "cli.analytic_block", _no_count),
    ("switchlab.validate", "run_suite", "validate.run_suite", _no_count),
]


class Tracer:
    def __init__(self):
        # Each span is [name, parent index or -1, start_ns, end_ns, count].
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0, 0, 0]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
            span[4] = count(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper in TARGETS; restore the originals on exit."""
        undo = []
        try:
            for module, path, name, count in TARGETS:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                setattr(owner, attr, self.wrap(name, original, count))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed counts.

        Self time is a span's duration minus that of its direct children;
        children of one span never overlap, since the program is
        single-threaded while traced.
        """
        child_ns = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, _, start, end, count), children in zip(self.spans, child_ns):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
            agg["calls"] += 1
            agg["s"] += (end - start) * 1e-9
            agg["self_s"] += (end - start - children) * 1e-9
            agg["count"] += count
        return out

    def write_csv(self, path) -> None:
        lines = ["id,name,parent,start_ns,end_ns,count"]
        lines += [f"{i},{n},{p},{s},{e},{c}" for i, (n, p, s, e, c) in enumerate(self.spans)]
        path.write_text("\n".join(lines) + "\n")
