"""Desk-scale validation suite behind the ``validate`` CLI subcommand.

Each check re-verifies one published invariant of the package at a size that
keeps the whole suite comfortably under a few minutes.  Failures are
reported, not raised; the suite result carries per-check timing.

``matcher`` (called as ``matcher(Q, cost, rng)``) is injectable so a
deliberately corrupted scheduler can be used to prove the suite actually
detects faults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import analytics, scheduling, simulator, traffic, wlinalg

__all__ = ["CheckResult", "run_suite"]


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _random_cost(rng, n) -> wlinalg.CostMatrix:
    return wlinalg.CostMatrix(rng.uniform(0.1, 10.0, (n, n)))


def _check_inner_product(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        cost = _random_cost(rng, n)
        x, y, z = (rng.normal(size=(n, n)) for _ in range(3))
        a, b = rng.normal(size=2)
        lhs = wlinalg.cdot(a * x + b * y, z, cost)
        rhs = a * wlinalg.cdot(x, z, cost) + b * wlinalg.cdot(y, z, cost)
        worst = max(worst, abs(lhs - rhs), abs(wlinalg.cdot(x, y, cost) - wlinalg.cdot(y, x, cost)))
        if wlinalg.cnorm2(x, cost) < 0:
            return False, "negative squared norm"
    return worst < 1e-9, f"max bilinearity/symmetry defect {worst:.2e}"


def _check_pythagoras(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        cost = _random_cost(rng, n)
        x = rng.normal(size=(n, n)) * 10
        par, perp = wlinalg.project_space(x, cost)
        total = wlinalg.cnorm2(x, cost)
        err = abs(total - wlinalg.cnorm2(par, cost) - wlinalg.cnorm2(perp, cost))
        worst = max(worst, err / (1e-30 + total))
        cross = abs(wlinalg.cdot(par, perp, cost))
        worst = max(worst, cross / (1e-30 + total))
        par2, _ = wlinalg.project_space(par, cost)
        worst = max(worst, float(np.abs(par2 - par).max()))
    return worst < 1e-8, f"max relative defect {worst:.2e}"


def _check_cone(rng) -> tuple[bool, str]:
    worst_kkt = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        cost = _random_cost(rng, n)
        x = rng.normal(size=(n, n)) * 5
        proj = wlinalg.project_cone(x, cost)
        _, perp_s = wlinalg.project_space(x, cost)
        if wlinalg.cnorm2(proj.perp, cost) < wlinalg.cnorm2(perp_s, cost) - 1e-8:
            return False, "cone residual smaller than subspace residual"
        scale = 1.0 + wlinalg.cnorm2(x, cost)
        worst_kkt = max(worst_kkt, wlinalg.cone_kkt_residual(x, proj, cost) / scale)
        # a cone member projects to itself
        w = rng.uniform(0, 3, n)
        wt = rng.uniform(0, 3, n)
        member = (w[:, None] + wt[None, :]) / cost.c
        proj_m = wlinalg.project_cone(member, cost)
        if wlinalg.cnorm2(proj_m.perp, cost) > 1e-16 * scale:
            return False, "cone member not a fixed point"
    return worst_kkt < 1e-7, f"max scaled KKT residual {worst_kkt:.2e}"


def _check_solver(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 12))
        A = rng.normal(size=(k, k)) + k * np.eye(k)
        b = rng.normal(size=k)
        u = wlinalg.solve_dense(A, b)
        worst = max(worst, float(np.abs(A @ u - b).max()) / (1.0 + float(np.abs(b).max())))
    try:
        wlinalg.solve_dense(np.zeros((2, 2)), np.ones(2))
        return False, "singular system not detected"
    except wlinalg.SingularMatrixError:
        pass
    return worst <= 1e-10, f"max scaled residual {worst:.2e}"


def _check_matcher(rng, matcher_fn) -> tuple[bool, str]:
    # Hungarian serves n > EXACT_MAX_N only; it is held to enumeration here.
    solvers = {"hungarian": scheduling.hungarian_schedule, "matcher": matcher_fn}
    for _ in range(150):
        n = int(rng.integers(2, 6))
        cost = _random_cost(rng, n)
        Q = rng.integers(0, 10, (n, n))
        best = scheduling.enumerate_argmax(Q, cost)[0]
        w_best = scheduling.schedule_weight(best, Q, cost)
        for name, solve in solvers.items():
            s = solve(Q, cost, rng)
            if sorted(s.perm) != list(range(n)):
                return False, f"{name}: not a permutation: {s.perm}"
            w_got = scheduling.schedule_weight(s, Q, cost)
            if w_got != w_best:
                return False, f"{name}: weight {w_got} != enumerated optimum {w_best}"
    return True, "hungarian and matcher weights match enumeration on 150 random cases"


def _check_tie_uniformity(rng, matcher_fn) -> tuple[bool, str]:
    from scipy.stats import chisquare

    n = 3
    cost = wlinalg.CostMatrix(np.ones((n, n)))
    Q = np.zeros((n, n), dtype=int)
    counts: dict[tuple[int, ...], int] = {}
    draws = 12_000
    for _ in range(draws):
        s = matcher_fn(Q, cost, rng)
        counts[s.perm] = counts.get(s.perm, 0) + 1
    obs = [counts.get(p.perm, 0) for p in scheduling.all_schedules(n)]
    p = chisquare(obs).pvalue
    return p > 1e-4, f"chi-square p={p:.4f} over {draws} total-tie draws"


def _check_traffic_moments(rng) -> tuple[bool, str]:
    nu = traffic.uniform_nu(3)
    models = [
        traffic.ArrivalModel.bernoulli(nu, 0.1),
        traffic.ArrivalModel.uniform_integer(nu, 0.1, a_max=2),
        traffic.ArrivalModel.truncated_poisson(nu, 0.1, a_max=6),
    ]
    draws = 1_000_000
    rows = simulator._CHUNK // nu.size
    for m in models:
        mom = m.moments()
        # Sampled a chunk of slots at a time, which draws the same stream as
        # one block: sum A, sum A^2 and max A per queue are all that is kept.
        s1 = np.zeros(nu.size, dtype=np.int64)
        s2 = np.zeros(nu.size, dtype=np.int64)
        top = 0
        for t0 in range(0, draws, rows):
            x = m.sample_block(rng, min(rows, draws - t0))
            s1 += x.sum(axis=0)
            s2 += (x * x).sum(axis=0)
            top = max(top, int(x.max()))
        emp_mean = s1 / draws
        emp_var = s2 / draws - emp_mean**2
        se_mean = np.sqrt(mom.var / draws)
        if np.any(np.abs(emp_mean - mom.mean.ravel()) > 4 * se_mean.ravel() + 1e-12):
            return False, f"{m.kind}: empirical mean off"
        # loose 4-sigma-style bound for the variance of the sample variance
        se_var = np.sqrt(2.0 / draws) * (mom.var.ravel() + mom.mean.ravel() ** 2 + 1.0)
        if np.any(np.abs(emp_var - mom.var.ravel()) > 4 * se_var):
            return False, f"{m.kind}: empirical variance off"
        if top > m.a_max:
            return False, f"{m.kind}: support bound violated"
    return True, f"three kinds x {draws} samples within 4-sigma of analytic moments"


def _check_face_invariance(rng) -> tuple[bool, str]:
    nu = np.array([[0.3, 0.7], [0.7, 0.3]])
    for _ in range(100):
        cost = _random_cost(rng, 2)
        if not traffic.face_check(nu, cost):
            return False, "face check depends on the weights"
    if traffic.face_check(np.zeros((2, 2))):
        return False, "zero matrix accepted"
    return True, "face membership invariant over 100 random weight matrices"


def _check_simulator(rng, matcher_fn) -> tuple[bool, str]:
    cost = wlinalg.CostMatrix(np.ones((2, 2)))
    model = traffic.ArrivalModel.bernoulli(traffic.uniform_nu(2), 0.5)
    # Each chunk of the run is replayed through step as it is recorded, with the
    # injected matcher on fresh copies of the run's streams, slot for slot.
    arrival_rng, tiebreak_rng = simulator.derive_rngs(11)
    state = simulator.QueueState.empty(cost.n)
    departed, overlap, bounds_ok = [], [], True

    def replay(rec: simulator.SlotRecord):
        nonlocal state, bounds_ok
        S, U, Q_next = (np.empty_like(rec.A) for _ in range(3))
        for k, A in enumerate(rec.A):
            s = matcher_fn(state.Q, cost, tiebreak_rng)
            state, got = simulator.step(state, model, cost, arrival_rng, tiebreak_rng,
                                        schedule=s, arrivals=A)
            S[k], U[k], Q_next[k] = got.S, got.U, state.Q
        departed.extend(rec.t[((S != rec.S) | (U != rec.U)).any(axis=(1, 2))])
        bounds_ok &= not ((U < 0) | (U > 1) | (U > S)).any()
        overlap.extend(rec.t[(cost.c * Q_next * U).sum(axis=(1, 2)) != 0])

    cfg = simulator.RunConfig(
        c=cost, model=model, measured=20_000, warmup=2_000, seed=11,
        ssc_stride=20, record=replay,
    )
    stats = simulator.run(cfg)
    if stats.qu_dot_violation != 0.0:
        return False, "post-update weighted overlap with unused service is nonzero"
    if not stats.conservation_ok:
        return False, "flow conservation violated"
    stats2 = simulator.run(replace(cfg, record=None))
    if stats2.mean_weighted_qsum != stats.mean_weighted_qsum:
        return False, "same seed produced different statistics"
    if abs(stats.unused_service_rate - 1.0) > 4 * stats.stderr_unused_service:
        return False, f"unused-service rate {stats.unused_service_rate:.4f} far from n*eps=1"
    if departed:
        return False, f"step replay departs from the run at slot {departed[0]}"
    if not bounds_ok:
        return False, "unused-service bounds violated"
    if overlap:
        return False, f"<Q(t+1), U(t)> nonzero at slot {overlap[0]}"
    return True, (
        f"{state.t}-slot run replayed exactly through step; "
        "<Q(t+1), U(t)> = 0, conservation, n*eps"
    )


def _check_zeta(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        cost = _random_cost(rng, n)
        worst = max(worst, analytics.cross_validated_zeta(cost).cross_error)
    for n in range(2, 9):
        z = analytics.zeta_projection(wlinalg.CostMatrix(np.ones((n, n)))).zeta
        if np.abs(z - (2 * n - 1) / n**2).max() > 1e-12:
            return False, f"unit-weight closed form missed at n={n}"
    return worst < 1e-9, f"route cross-error {worst:.2e} over 200 random weight matrices"


def _check_lower_bound(rng) -> tuple[bool, str]:
    cost = wlinalg.CostMatrix(np.ones((2, 2)))
    model = traffic.ArrivalModel.bernoulli(traffic.uniform_nu(2), 0.1)
    lb2 = analytics.universal_lower_bound(cost, model)
    cost3 = wlinalg.CostMatrix(np.ones((3, 3)))
    model3 = traffic.ArrivalModel.bernoulli(traffic.uniform_nu(3), 0.1)
    t0 = time.perf_counter()
    lb3 = analytics.universal_lower_bound(cost3, model3)
    dt = time.perf_counter() - t0
    if len(lb2.per_ordering) != 2 or len(lb3.per_ordering) != 720:
        return False, "ordering enumeration count wrong"
    return dt < 60, f"2 and 720 orderings enumerated ({dt:.2f}s for n=3)"


# (name, check, whether the check takes the matcher).  The slugged names are
# the validate.*.s metrics of the benchmark, so a renamed check renames them.
_CHECKS = (
    ("inner-product bilinearity/symmetry", _check_inner_product, False),
    ("subspace projection pythagoras/idempotence", _check_pythagoras, False),
    ("cone projection kkt/dominance/fixed-point", _check_cone, False),
    ("dense solver residual/singular detection", _check_solver, False),
    ("matcher agreement with enumeration", _check_matcher, True),
    ("tie-breaking uniformity", _check_tie_uniformity, True),
    ("arrival moments", _check_traffic_moments, False),
    ("face membership weight-invariance", _check_face_invariance, False),
    ("simulator slot invariants", _check_simulator, True),
    ("zeta route cross-validation", _check_zeta, False),
    ("lower-bound enumeration", _check_lower_bound, False),
)


def run_suite(seed: int = 0, matcher=None, verbose: bool = False, out=print) -> list[CheckResult]:
    """Run every check; returns per-check results (all_ok iff every .ok)."""
    matcher_fn = matcher if matcher is not None else scheduling.max_weight_schedule
    results = []
    for idx, (name, fn, wants_matcher) in enumerate(_CHECKS):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(idx,)))
        t0 = time.perf_counter()
        try:
            ok, detail = fn(rng, matcher_fn) if wants_matcher else fn(rng)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"exception: {exc!r}"
        dt = time.perf_counter() - t0
        results.append(CheckResult(name=name, ok=ok, detail=detail, seconds=dt))
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}: {detail}"
        if verbose:
            line += f" ({dt:.2f}s)"
        out(line)
    return results
