"""switchlab benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree (the directory holding BENCHMARK.json
and src/switchlab).  It times set-up in several fresh interpreters, starts
``worker.py`` for the measured work, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it is a report with provenance,
output digests and the simulator's accuracy; the same report is written to
``.perfbench_out/``.  Exits 2 when the tree holds no package to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
# Set-up is timed in this many fresh interpreters besides the worker's own.
SETUP_PROBES = 2
# Every process this script starts must end within this many seconds.
DEADLINE_S = 170.0
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class HarnessError(RuntimeError):
    pass


def _loadavg() -> list[float] | None:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _git_commit() -> str | None:
    """HEAD of the tree's own repository; None in an exported tree, where
    git would otherwise search the directories above it."""
    if not Path(".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _worker(args, extra: list[str], deadline: float) -> tuple[float, str]:
    """Start worker.py, time it from start to its ``ready`` line, and
    return (set-up seconds, the rest of its standard output)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(OUT_DIR), *extra,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    t0 = perf_counter()
    # A session of its own, so that killing it also ends its pool workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        if not select.select([proc.stdout], [], [], max(1.0, deadline - perf_counter()))[0]:
            raise HarnessError(f"worker set-up exceeded the {DEADLINE_S:.0f}s limit")
        first = proc.stdout.readline()
        setup = perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker exceeded the {DEADLINE_S:.0f}s limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise HarnessError(f"worker failed (exit {proc.returncode}) before a result")
    return setup, rest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="switchlab benchmark, one run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--inject", choices=("conservation", "digest"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    src = Path("src/switchlab")
    if not (src / "__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("error: run from the root of a switchlab source tree", file=sys.stderr)
        return 2
    bench = json.loads(Path("BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    listed = bench["per_layer" if args.trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)

    load_start = _loadavg()
    deadline = perf_counter() + DEADLINE_S
    extra = ["--toy"] * args.toy + (["--inject", args.inject] if args.inject else [])
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_worker(args, [*extra, "--setup-only"], deadline)[0])
        setup, out = _worker(args, extra, deadline)
        setups.append(setup)
        result = json.loads(out.strip().splitlines()[-1])
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    if set(values) != {m["name"] for m in listed}:
        print(f"error: metrics {sorted(values)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **result["report"],
        "setup_samples_s": setups,
        "outputs_identical": result["outputs_identical"],
        "provenance": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start,
            "loadavg_end": _loadavg(),
            "platform": platform.platform(),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "git_commit": _git_commit(),
            "source_sha256": _source_sha256(src),
        },
    }
    correct = result["failed"] == 0 and result["outputs_identical"]
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({**line, "report": report}, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
