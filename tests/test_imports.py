"""Which scipy modules a command loads, each checked in a fresh interpreter,
since this test process has loaded scipy whole.

Importing ``scipy.optimize`` adds about 0.3 s to start-up, so the package
imports ``nnls``, ``linear_sum_assignment`` and ``brentq`` where it calls
them.  A sweep whose runs call one of them must still load the module while
its configuration is built, before a pool forks its workers, or every
worker imports it again in every sweep.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import switchlab

SRC = str(Path(switchlab.__file__).resolve().parents[1])

# Prints which of the watched modules the script left loaded.
_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in ("scipy.optimize", "scipy.stats") if m in sys.modules)))
"""


def _loaded(script: str, cwd: Path) -> list[str]:
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", script + _REPORT], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _doc(tmp_path, **kw) -> dict:
    doc = {"n": 2, "cost": {"preset": "checker", "a": 1, "b": 2},
           "arrival": {"kind": "bernoulli", "nu": "uniform"},
           "epsilon_grid": [0.2, 0.1], "slots": 300, "warmup": 30, "replications": 2,
           "seed": 3, "output_dir": str(tmp_path / "out")}
    doc.update(kw)
    return doc


def test_importing_the_cli_loads_neither_optimize_nor_stats(tmp_path):
    assert _loaded("import switchlab.cli", tmp_path) == []


@pytest.mark.parametrize("command", [["zeta"], ["simulate"], ["sweep", "--jobs", "2"]],
                         ids=lambda c: c[0])
def test_n2_bernoulli_commands_never_load_scipy_optimize(tmp_path, command):
    # simulator.run is wrapped so that a pool worker which loads the module
    # fails its task, and with it the command.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_doc(tmp_path)))
    script = f"""
import sys
from switchlab import cli, simulator
run = simulator.run

def checked_run(run_cfg):
    stats = run(run_cfg)
    if "scipy.optimize" in sys.modules:
        raise RuntimeError("the run loaded scipy.optimize")
    return stats

simulator.run = checked_run
assert cli.main({[*command, "--config", str(cfg)]!r}) == 0
"""
    assert _loaded(script, tmp_path) == []


@pytest.mark.parametrize(
    "change",
    [{"n": 4}, {"arrival": {"kind": "truncated-poisson", "nu": "uniform", "a_max": 3}}],
    ids=["n4-nnls", "n2-truncated-poisson"],
)
def test_configs_whose_runs_call_scipy_optimize_load_it_before_a_pool(tmp_path, change):
    script = f"""
from switchlab import cli
cli.ExperimentConfig.from_dict({_doc(tmp_path, **change)!r})
"""
    assert _loaded(script, tmp_path) == ["scipy.optimize"]
