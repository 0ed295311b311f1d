"""One measurement process of the benchmark; ``run.py`` starts it.

It imports the package and builds the workload's inputs (the set-up), then
prints ``ready``.  With ``--setup-only`` it stops there.  Otherwise it runs
the workload's timed repetitions, checks every output, and prints one JSON
line with the metrics, the operation counts and a report.

Untraced run (``--trace 0``): repetitions as ``switchlab sweep`` does them,
with jobs=2, until ``--seconds`` is used up (at least MIN_REPS).  End-to-end
metrics are medians over the repetitions.

Traced run (``--trace 1``): one untraced repetition with jobs=2 (the
reference sweep.csv and the pool's CPU use), one untraced and one traced
repetition with jobs=1.  The two jobs=1 runs give the tracing overhead; the
traced one gives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import re
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from switchlab import analytics, cli, simulator, validate

import spans
import workloads

MIN_REPS = 3
# Stop starting repetitions after this long, whatever --seconds says, so a
# run on a loaded machine still ends well within its time limit.
MAX_TIMED_S = 120.0
ZETA_CROSS_LIMIT = 1e-9


def _cpu_s(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _process_cpu_s() -> tuple[float, float]:
    """(this process, its reaped children) user + system CPU seconds."""
    return _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux: KiB)."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


@dataclass
class Outcome:
    """What one repetition did and whether its outputs were right."""

    wall: float = 0.0
    cpu: float = 0.0
    slots: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    extra: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def sweep_rep(wl: workloads.Sweep, jobs: int, csv_path: Path, inject: str | None = None) -> Outcome:
    """The steps of ``cmd_sweep``: run_sweep, sweep_rows, write_sweep_csv,
    analytic_block.  Each task must conserve flow and keep <Q+, U> = 0; the
    second check cannot fail with the current engine, which only updates it
    where Q is zero, but it is recorded so that a later engine is held to it."""
    cfg = wl.cfg
    out = Outcome()
    cpu0, kids0 = _process_cpu_s()
    t0 = perf_counter()
    by_eps = cli.run_sweep(cfg, jobs=jobs)
    t_sweep = perf_counter()
    kids_sweep = _process_cpu_s()[1]
    rows = cli.sweep_rows(cfg, by_eps)
    cli.write_sweep_csv(csv_path, rows)
    block = cli.analytic_block(cfg)
    t1 = perf_counter()
    cpu1, kids1 = _process_cpu_s()
    out.wall = t1 - t0
    out.cpu = (cpu1 - cpu0) + (kids1 - kids0)
    out.extra["sweep_s"] = t_sweep - t0
    out.extra["pool_cpu_s"] = kids_sweep - kids0

    if inject == "conservation":
        by_eps[cfg.epsilon_grid[0]][0].conservation_ok = False
    if inject == "digest":
        with csv_path.open("a") as f:
            f.write(f"{perf_counter()}\n")
    for eps, runs in by_eps.items():
        for st in runs:
            out.slots += st.warmup_slots + st.measured_slots
            out.check(st.conservation_ok, f"eps={eps} {st.stream_key}: flow conservation")
            out.check(st.qu_dot_violation == 0.0, f"eps={eps} {st.stream_key}: <Q+,U> != 0")
    out.check(block["cross_error"] <= ZETA_CROSS_LIMIT, f"zeta cross-error {block['cross_error']:.2e}")
    out.digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    smallest = min(cfg.epsilon_grid)
    row = next(r for r in rows if r["epsilon"] == smallest)
    out.extra["ht_ratio"] = row["scaled_weighted_qsum"] / block["ht_limit"]
    return out


def analytics_rep(wl: workloads.AnalyticsValidate) -> Outcome:
    """validate.run_suite, then both zeta routes and ht_limit at large n,
    then analytic_block for the n = 3 configuration."""
    out = Outcome()
    run_slots = []
    original_run = simulator.run

    def counted_run(cfg):  # counts the slots the validate suite simulates
        st = original_run(cfg)
        run_slots.append(st.warmup_slots + st.measured_slots)
        return st

    simulator.run = counted_run
    cpu0 = sum(_process_cpu_s())
    t0 = perf_counter()
    try:
        checks = validate.run_suite(seed=wl.seed, out=lambda line: None)
        zetas = []
        for cost, sigma2 in wl.zeta_inputs:
            rep = analytics.cross_validated_zeta(cost)
            zetas.append((cost.n, rep, analytics.ht_limit(cost, sigma2)))
        block = cli.analytic_block(wl.block_cfg)
    finally:
        simulator.run = original_run
    out.wall = perf_counter() - t0
    out.cpu = sum(_process_cpu_s()) - cpu0
    out.slots = sum(run_slots)

    for r in checks:
        out.check(bool(r.ok), f"validate {r.name}: {r.detail}")
    for n, rep, _ in zetas:
        out.check(rep.cross_error <= ZETA_CROSS_LIMIT, f"n={n} zeta cross-error {rep.cross_error:.2e}")
    out.check(block["cross_error"] <= ZETA_CROSS_LIMIT, f"n=3 zeta cross-error {block['cross_error']:.2e}")
    outputs = {
        "checks": [[r.name, bool(r.ok)] for r in checks],
        "zeta": [[n, rep.projection.zeta.tolist(), limit] for n, rep, limit in zetas],
        "block": {k: block[k] for k in ("zeta_projection", "ht_limit", "lower_bound")},
    }
    out.digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    out.extra["check_s"] = {r.name: r.seconds for r in checks}
    return out


def run_rep(wl, jobs: int, scratch: Path, inject: str | None = None) -> Outcome:
    if isinstance(wl, workloads.Sweep):
        return sweep_rep(wl, jobs, scratch / "sweep.csv", inject)
    return analytics_rep(wl)


# -------- metrics --------


def _slug(check_name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", check_name.lower()).strip("_")


def _per_call(total: float, calls: float, scale: float) -> float:
    return total / calls * scale if calls else 0.0


# Per-layer metric "<span>.<stat>" is STATS[stat] of the span's summary.
STATS = {
    "calls": lambda a: a["calls"],
    "s": lambda a: a["s"],
    "self_s": lambda a: a["self_s"],
    "us_per_call": lambda a: _per_call(a["s"], a["calls"], 1e6),
    "ns_per_slot": lambda a: _per_call(a["s"], a["count"], 1e9),
    "self_ns_per_slot": lambda a: _per_call(a["self_s"], a["count"], 1e9),
    "sweeps_mean": lambda a: _per_call(a["count"], a["calls"], 1.0),
    "orderings": lambda a: a["count"],
}
_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0}


def per_layer_metrics(names: list[str], summary: dict, measured: dict, check_s: dict) -> dict:
    """Every per-layer metric named in BENCHMARK.json.  ``measured`` holds
    the ones not taken from spans; ``check_s`` maps validate check names to
    seconds and must cover exactly the listed validate metrics, or be empty."""
    by_slug = {f"validate.{_slug(k)}.s": v for k, v in check_s.items()}
    listed = {m for m in names if m.startswith("validate.")}
    if by_slug and set(by_slug) != listed:
        raise KeyError(f"validate checks {sorted(by_slug)} do not match BENCHMARK.json {sorted(listed)}")
    out = {}
    for name in names:
        if name in measured:
            out[name] = measured[name]
        elif name in listed:
            out[name] = by_slug.get(name, 0.0)
        else:
            span, stat = name.rsplit(".", 1)
            out[name] = STATS[stat](summary.get(span, _EMPTY))
    return out


def untraced(wl, seconds: float, scratch: Path, inject: str | None) -> tuple[list[Outcome], dict]:
    reps: list[Outcome] = []
    start = perf_counter()
    while True:
        reps.append(run_rep(wl, workloads.JOBS, scratch, inject if len(reps) == 1 else None))
        used = perf_counter() - start
        typical = statistics.median(r.wall for r in reps)
        if len(reps) >= MIN_REPS and (used + typical > seconds or used > MAX_TIMED_S):
            break
    wall = statistics.median(r.wall for r in reps)
    metrics = {
        "wall_s": wall,
        "slots_per_s": reps[0].slots / wall,
        "cpu_s": statistics.median(r.cpu for r in reps),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return reps, metrics


def traced(wl, scratch: Path, names: list[str], spans_path: Path, inject: str | None) -> tuple[list[Outcome], dict]:
    reps: list[Outcome] = []
    measured: dict[str, float] = {}
    if isinstance(wl, workloads.Sweep):
        pool = run_rep(wl, workloads.JOBS, scratch, inject)
        reps.append(pool)
        measured["cli.run_sweep.cpu_util"] = pool.extra["pool_cpu_s"] / (
            workloads.JOBS * pool.extra["sweep_s"]
        )
    else:
        measured["cli.run_sweep.cpu_util"] = 0.0
    base = run_rep(wl, 1, scratch)
    tracer = spans.Tracer()
    with tracer.patched():
        rep = run_rep(wl, 1, scratch)
    reps += [base, rep]
    measured["trace.overhead_frac"] = rep.wall / base.wall - 1.0
    tracer.write_csv(spans_path)
    summary = tracer.summary()
    rep.extra["span_share_of_wall"] = {k: v["s"] / rep.wall for k, v in sorted(summary.items())}
    check_s = base.extra.get("check_s", {})
    return reps, per_layer_metrics(names, summary, measured, check_s)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, required=True, help="directory for sweep.csv and spans")
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--inject", choices=("conservation", "digest"), help="self-test fault")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = workloads.build(args.workload, args.seed, toy=args.toy)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    args.out.mkdir(parents=True, exist_ok=True)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        spans_path = args.out / f"spans-{args.workload}-seed{args.seed}.csv"
        reps, metrics = traced(wl, args.out, names, spans_path, args.inject)
    else:
        reps, metrics = untraced(wl, args.seconds, args.out, args.inject)

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    digests = sorted({r.digest for r in reps})
    if not args.trace:
        metrics["ops_ok_frac"] = (attempted - failed) / attempted
    report = {
        "reps": len(reps),
        "rep_wall_s": [r.wall for r in reps],
        "slots_per_rep": reps[0].slots,
        "output_sha256": digests,
        "problems": [s for r in reps for s in r.problems][:20],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    for r in reps:
        for key in ("ht_ratio", "span_share_of_wall"):
            if key in r.extra:
                report.setdefault(key, r.extra[key])
    doc = {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "outputs_identical": len(digests) == 1,
        "report": report,
    }
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
