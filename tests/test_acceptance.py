"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured numbers (run with ``pytest -s`` to see them).

The simulation-backed criteria (3-8) share two module-scoped sweeps driven
through the same orchestration the CLI uses:

* unit sweep:     n=2, unit weights, Bernoulli nu=1/2, eps in {0.1, 0.05,
                  0.02}, 4 replications (1.2e7 measured slots at eps=0.02)
* weighted sweep: n=2, weights [[1,2],[2,1]], same arrivals, eps=0.02

Everything is seeded, so the suite is deterministic end to end.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from scipy.stats import chisquare

from switchlab.analytics import (
    cross_validated_zeta,
    ht_limit,
    n2_closed_form,
    pool_runs,
    ssc_curve,
    universal_lower_bound,
    zeta_projection,
)
from switchlab.cli import ExperimentConfig, run_sweep
from switchlab.scheduling import (
    all_schedules,
    enumerate_argmax,
    hungarian_schedule,
    max_weight_schedule,
    schedule_weight,
)
from switchlab.simulator import drift_diagnostics
from switchlab.traffic import ArrivalModel, uniform_nu
from switchlab.wlinalg import CostMatrix

SEED = 20260809
EPS_GRID = [0.1, 0.05, 0.02]
SLOTS = {"0.1": 750_000, "0.05": 1_500_000, "0.02": 3_000_000}
REPLICATIONS = 4
JOBS = os.cpu_count() or 1


def _sweep_config(cost_spec, eps_grid, output_dir="unused"):
    return ExperimentConfig.from_dict(
        {
            "n": 2,
            "cost": cost_spec,
            "arrival": {"kind": "bernoulli", "nu": "uniform"},
            "epsilon_grid": eps_grid,
            "slots": SLOTS[repr(eps_grid[-1])] if repr(eps_grid[-1]) in SLOTS else 1_000_000,
            "slots_by_epsilon": {k: v for k, v in SLOTS.items() if float(k) in eps_grid},
            "warmup": None,
            "replications": REPLICATIONS,
            "seed": SEED,
            "ssc_sampling_stride": 100,
            "output_dir": output_dir,
        }
    )


@pytest.fixture(scope="module")
def unit_sweep():
    cfg = _sweep_config({"preset": "ones"}, EPS_GRID)
    t0 = time.perf_counter()
    by_eps = run_sweep(cfg, jobs=JOBS)
    dt = time.perf_counter() - t0
    print(f"\n[acceptance] unit sweep: {dt:.0f}s wall, jobs={JOBS}")
    return cfg, by_eps


@pytest.fixture(scope="module")
def weighted_sweep():
    cfg = _sweep_config({"matrix": [[1.0, 2.0], [2.0, 1.0]]}, [0.02])
    t0 = time.perf_counter()
    by_eps = run_sweep(cfg, jobs=JOBS)
    dt = time.perf_counter() - t0
    print(f"\n[acceptance] weighted sweep: {dt:.0f}s wall")
    return cfg, by_eps


def test_criterion_1_zeta_cross_validation():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        cost = CostMatrix(rng.uniform(0.05, 20.0, (n, n)))
        worst = max(worst, cross_validated_zeta(cost).cross_error)
    dt = time.perf_counter() - t0
    assert worst <= 1e-9
    assert dt < 10.0
    print(f"[criterion 1] PASS: 200 random cost matrices, max cross-error {worst:.2e} ({dt:.1f}s)")


def test_criterion_2_unit_cost_closed_form():
    worst_z = worst_h = 0.0
    for n in range(2, 9):
        cost = CostMatrix(np.ones((n, n)))
        z = zeta_projection(cost).zeta
        worst_z = max(worst_z, float(np.abs(z - (2 * n - 1) / n**2).max()))
        sigma2 = np.full((n, n), 0.25)
        want = (1.0 - 1.0 / (2 * n)) * sigma2.sum()
        worst_h = max(worst_h, abs(ht_limit(cost, sigma2) - want) / want)
    assert worst_z <= 1e-12
    assert worst_h <= 1e-12
    print(
        f"[criterion 2] PASS: zeta=(2n-1)/n^2 to {worst_z:.1e} and "
        f"ht_limit=(1-1/(2n))*|sigma|^2 to {worst_h:.1e} for n in 2..8"
    )


def test_criterion_3_unit_heavy_traffic_limit(unit_sweep):
    cfg, by_eps = unit_sweep
    target = 0.75
    errors = {}
    for eps in EPS_GRID:
        reps = by_eps[eps]
        pooled = pool_runs(reps)
        errors[eps] = abs(eps * pooled["mean_weighted_qsum"] - target)
    measured_smallest = sum(r.measured_slots for r in by_eps[0.02])
    assert measured_smallest >= 10_000_000
    assert errors[0.02] <= 0.15 * target
    assert errors[0.1] >= errors[0.05] >= errors[0.02]
    ests = {e: e * pool_runs(by_eps[e])["mean_weighted_qsum"] for e in EPS_GRID}
    print(
        "[criterion 3] PASS: eps*E[sum cQ] = "
        + ", ".join(f"{e}: {ests[e]:.4f}" for e in EPS_GRID)
        + f" -> limit {target} (|err| nonincreasing: "
        + ", ".join(f"{errors[e]:.4f}" for e in EPS_GRID)
        + f"; {measured_smallest:.0f} slots at eps=0.02)"
    )


def test_criterion_4_weighted_heavy_traffic_limit(weighted_sweep):
    cfg, by_eps = weighted_sweep
    cost = cfg.cost_matrix()
    rep = cross_validated_zeta(cost)
    assert rep.cross_error <= 1e-9
    sigma2 = cfg.model(0.02).limit_moments().var
    limit = ht_limit(cost, sigma2)
    pooled = pool_runs(by_eps[0.02])
    est = 0.02 * pooled["mean_weighted_qsum"]
    assert abs(est - limit) <= 0.15 * limit
    print(
        f"[criterion 4] PASS: weighted c limit {limit:.6f} (zeta cross-validated), "
        f"simulated {est:.4f} at eps=0.02 ({abs(est-limit)/limit:.1%} off)"
    )


def test_criterion_5_state_space_collapse(unit_sweep):
    cfg, by_eps = unit_sweep
    curve = ssc_curve(by_eps)
    perp_means = [pool_runs(by_eps[eps])["perp_mean"] for eps in EPS_GRID]
    ratio = max(perp_means) / min(perp_means)
    assert ratio <= 3.0
    assert -1.3 <= curve.par_slope <= -0.7
    print(
        f"[criterion 5] PASS: perp-norm max/min ratio {ratio:.2f} <= 3, "
        f"parallel log-log slope {curve.par_slope:.3f} in [-1.3, -0.7] "
        f"(perp slope {curve.perp_slope:+.3f})"
    )


def test_criterion_6_drift_bounds(unit_sweep, weighted_sweep):
    worst_margin = np.inf
    worst_cond = -np.inf
    for cfg, by_eps in (unit_sweep, weighted_sweep):
        cost = cfg.cost_matrix()
        for eps, reps in by_eps.items():
            for st in reps:
                diag = drift_diagnostics(st, cost, a_max=1)
                assert diag.max_abs_drift <= diag.bound
                worst_margin = min(worst_margin, diag.bound - diag.max_abs_drift)
                kappa90 = float(np.percentile(st.perp_samples, 90))
                rows = drift_diagnostics(st, cost, a_max=1, kappa_grid=[kappa90]).rows
                _, cnt, cond = rows[0]
                assert cnt > 0
                assert cond < 0
                worst_cond = max(worst_cond, cond)
    print(
        f"[criterion 6] PASS: max|dW| within bound on every trace "
        f"(smallest margin {worst_margin:.3f}); conditional drift at 90th pct "
        f"always negative (worst {worst_cond:.4f})"
    )


def test_criterion_7_unused_service_identity(unit_sweep):
    cfg, by_eps = unit_sweep
    lines = []
    for eps in EPS_GRID:
        reps = by_eps[eps]
        pooled = pool_runs(reps)
        dev = abs(pooled["unused_service_rate"] - 2 * eps)
        assert dev <= 3 * pooled["stderr_unused_service"]
        lines.append(f"{eps}: {pooled['unused_service_rate']:.5f} vs {2*eps:.3f}")
        for st in reps:
            assert st.qu_dot_violation == 0.0
            assert st.conservation_ok
    print(
        "[criterion 7] PASS: E[sum U]=n*eps within 3 se at every eps ("
        + "; ".join(lines)
        + "); <Q+,U>=0 exactly on every slot of every trace"
    )


def test_criterion_8_lower_bound(unit_sweep):
    cfg, by_eps = unit_sweep
    cost = cfg.cost_matrix()
    for eps in EPS_GRID:
        lb = universal_lower_bound(cost, cfg.model(eps))
        assert len(lb.per_ordering) == 2
        pooled = pool_runs(by_eps[eps])
        cap = pooled["mean_weighted_qsum"] + 3 * pooled["stderr_weighted_qsum"]
        assert lb.Qstar_eps <= cap
    t0 = time.perf_counter()
    model3 = ArrivalModel.bernoulli(uniform_nu(3), 0.05)
    lb3 = universal_lower_bound(CostMatrix(np.ones((3, 3))), model3)
    dt = time.perf_counter() - t0
    assert len(lb3.per_ordering) == 720
    assert dt < 60.0
    print(
        f"[criterion 8] PASS: Qstar_eps <= simulated mean + 3 se at every eps; "
        f"2 orderings at n=2; 720 orderings at n=3 in {dt:.2f}s"
    )


def test_criterion_9_matching_correctness():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        cost = CostMatrix(rng.uniform(0.1, 10.0, (n, n)))
        Q = rng.integers(0, 10, (n, n))
        s = hungarian_schedule(Q, cost, rng)
        best = enumerate_argmax(Q, cost)[0]
        assert schedule_weight(s, Q, cost) == schedule_weight(best, Q, cost)
    n = 3
    cost = CostMatrix(np.ones((n, n)))
    Q0 = np.zeros((n, n), dtype=int)
    counts: dict[tuple[int, ...], int] = {}
    draws = 100_000
    for _ in range(draws):
        s = max_weight_schedule(Q0, cost, rng)
        counts[s.perm] = counts.get(s.perm, 0) + 1
    obs = [counts.get(p.perm, 0) for p in all_schedules(n)]
    pval = float(chisquare(obs).pvalue)
    assert pval > 0.001
    print(
        f"[criterion 9] PASS: hungarian == enumeration weight on 1000 random (Q,c) n<=7; "
        f"total-tie chi-square p={pval:.3f} over {draws} draws"
    )


def test_criterion_10_closed_form_report():
    cost = CostMatrix(np.ones((2, 2)))
    sigma2 = np.full((2, 2), 0.25)
    limit = ht_limit(cost, sigma2)
    alt = n2_closed_form(cost, sigma2)
    ratio = limit / alt
    assert ratio == pytest.approx(2.0, abs=1e-12)
    print(
        f"[criterion 10] INFO: ht_limit {limit:.4f} vs two-port closed form {alt:.4f}; "
        f"ratio {ratio:.1f} at unit weights (reported, deliberately not reconciled)"
    )
