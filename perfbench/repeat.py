"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py [--workloads A,B] [--seeds 1,2,...] [--trace 0|1]

Run it from the root of the source tree.  For each workload it makes one
``run.py`` run per seed, one after another, and prints per metric the median
and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  The whole
record, with every run's value and output digests, is written to
``.perfbench_out/repeat-<unix time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    record = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds.split(","):
            cmd = [
                sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed,
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-800:]}")
                return 1
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": int(seed), **result, "report": report})
            shown = {k: round(v, 4) for k, v in values.items() if not k.startswith("validate.")}
            print(f"{workload} seed {seed}: correct={result['correct']} {shown}", flush=True)
        names = list(runs[0]["metrics"])
        summary = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values)}
            print(f"  {name}: median {summary[name]['median']:.6g}, spread {summary[name]['spread']:.3f}")
        record["workloads"][workload] = {"summary": summary, "runs": runs}
        print(f"  all correct: {all(r['correct'] for r in runs)}", flush=True)
    out = Path(".perfbench_out") / f"repeat-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
