"""The benchmark's named workloads and the inputs each one builds from a seed.

Sweep workloads are configuration documents in the form ``switchlab sweep``
reads; ``analytics-validate`` is the validate suite plus the analytic routes
at sizes no sweep reaches.  ``toy=True`` shrinks every workload so that the
harness self-test runs in seconds; the benchmark proper never sets it.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

import numpy as np

from switchlab import cli, wlinalg

SWEEPS = ("sweep-n2-ssc", "sweep-n5-exact", "sweep-n16-hungarian")
ANALYTICS = "analytics-validate"
NAMES = (*SWEEPS, ANALYTICS)

# Pool size of the untraced sweeps: the two cores the benchmark is sized for.
JOBS = 2
# An SSC stride longer than any window samples once, at the first measured slot.
ONE_SAMPLE_STRIDE = 10**9


def _sweep_doc(name: str, seed: int, toy: bool) -> dict:
    bernoulli = {"kind": "bernoulli", "nu": "uniform"}
    if name == "sweep-n2-ssc":
        # The acceptance shape, scaled down; measured windows grow as eps
        # falls, so the 12 tasks have unequal sizes.
        scale = 1 if toy else 200
        return {
            "n": 2,
            "cost": {"preset": "ones"},
            "arrival": bernoulli,
            "epsilon_grid": [0.1, 0.05, 0.02],
            "slots": 400 * scale,
            "slots_by_epsilon": {"0.1": 100 * scale, "0.05": 200 * scale, "0.02": 400 * scale},
            "warmup": 25 * scale,
            "replications": 4,
            "seed": seed,
            "ssc_sampling_stride": 100,
        }
    if name == "sweep-n5-exact":
        return {
            "n": 5,
            "cost": {"preset": "checker", "a": 1, "b": 2},
            "arrival": bernoulli,
            "epsilon_grid": [0.05],
            "slots": 300 if toy else 20_000,
            "warmup": 50 if toy else 2_000,
            "replications": 4,
            "seed": seed,
            "ssc_sampling_stride": ONE_SAMPLE_STRIDE,
        }
    if name == "sweep-n16-hungarian":
        return {
            "n": 16,
            "cost": {"preset": "random", "seed": 7, "lo": 0.5, "hi": 2.0},
            "arrival": {"kind": "truncated-poisson", "nu": "uniform", "a_max": 4},
            "epsilon_grid": [0.05],
            "slots": 60 if toy else 10_000,
            "warmup": 20 if toy else 2_000,
            "replications": 4,
            "seed": seed,
            "ssc_sampling_stride": 100,
        }
    raise KeyError(name)


@dataclass
class Sweep:
    name: str
    cfg: cli.ExperimentConfig


@dataclass
class AnalyticsValidate:
    name: str
    seed: int
    # (cost, sigma2) pairs for cross_validated_zeta + ht_limit.
    zeta_inputs: list = field(default_factory=list)
    # n = 3 configuration for analytic_block (720-ordering lower bound).
    block_cfg: cli.ExperimentConfig | None = None


def build(name: str, seed: int, toy: bool = False):
    """Parse, validate and expand one workload's inputs: the set-up work."""
    if name in SWEEPS:
        cfg = cli.ExperimentConfig.from_dict(_sweep_doc(name, seed, toy))
        for eps in cfg.epsilon_grid:
            cfg.model(eps)
        return Sweep(name=name, cfg=cfg)
    if name == ANALYTICS:
        # The validate suite imports scipy.stats inside a check; set-up
        # covers imports, so it is loaded here rather than in the first
        # timed repetition.
        importlib.import_module("scipy.stats")
        rng = np.random.default_rng(seed)
        inputs = []
        for n in (4, 8) if toy else (16, 32, 64):
            cost = wlinalg.CostMatrix(rng.uniform(0.5, 2.0, (n, n)))
            nu = np.full((n, n), 1.0 / n)
            inputs.append((cost, nu * (1.0 - nu)))
        block_cfg = cli.ExperimentConfig.from_dict(
            {
                "n": 3,
                "cost": {"preset": "random", "seed": seed, "lo": 0.5, "hi": 2.0},
                "arrival": {"kind": "bernoulli", "nu": "uniform"},
                "epsilon_grid": [0.1, 0.05, 0.02],
                "slots": 1_000,
                "seed": seed,
            }
        )
        return AnalyticsValidate(name=name, seed=seed, zeta_inputs=inputs, block_cfg=block_cfg)
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
