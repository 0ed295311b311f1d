"""Self-test of the benchmark harness at toy sizes (about a minute).

    python3 perfbench/selftest.py

Run it from the root of the source tree.  It checks that BENCHMARK.json has
the fixed shape, that every workload prints each end-to-end and per-layer
metric of BENCHMARK.json with its unit, that the correctness gate trips on an
injected conservation failure and on mismatched sweep.csv digests, and that
the benchmark refuses to run in a tree without the package.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload: str, trace: int, *extra: str, cwd: Path = Path(".")) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--toy", *extra,
    ]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-800:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(doc)}")
    return doc


def check_benchmark_json(bench: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(bench) == keys, sorted(bench)
    assert 2 <= len(bench["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in bench["workloads"])
    assert 1 <= bench["run_seconds"] <= 60
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def check_metrics(doc: dict, listed: list[dict], nonzero: bool) -> None:
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1, doc
    got = doc["metrics"]
    assert list(got) == [m["name"] for m in listed], sorted(set(got) ^ {m["name"] for m in listed})
    for m in listed:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], (m, value)
        assert isinstance(value["value"], (int, float)), (m, value)
        assert not nonzero or value["value"] != 0, (m, value)


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    check_benchmark_json(bench)
    print("BENCHMARK.json: shape ok")

    for w in bench["workloads"]:
        check_metrics(result_of(run(w["name"], 0)), bench["end_to_end"], nonzero=True)
        check_metrics(result_of(run(w["name"], 1)), bench["per_layer"], nonzero=False)
        print(f"{w['name']}: every end-to-end and per-layer metric emitted with its unit")

    for fault in ("conservation", "digest"):
        for trace in (0, 1):
            doc = result_of(run("sweep-n2-ssc", trace, "--inject", fault))
            assert doc["correct"] is False, (fault, trace, doc)
            assert (doc["failed"] > 0) == (fault == "conservation"), (fault, trace, doc)
        print(f"injected {fault} fault: correctness gate trips")

    bare = Path(".perfbench_out/bare")
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    shutil.rmtree(bare)
    print("tree without the package: refused, no result printed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
