"""Analytic heavy-traffic quantities.

The central object is the overlap vector zeta: zeta_ij is the fraction of
the weighted energy of the queue-(i, j) unit direction that lies inside the
port-sum subspace, i.e. the squared weighted norm of the projection of the
weighted-unit-norm indicator of (i, j).  It is dimensionless, lies in
[0, 1], and is invariant under uniform rescaling of the weights.

Two independent routes compute it: a quadratic form in the inverse Gram
matrix of the stacked subspace generators (``zeta_projection``), and a
2n-1 dimensional linear system built from the orthogonal-complement basis
(``zeta_gmatrix``).  They must agree to high accuracy; their cross-error is
the primary analytic self-check of the package.

The heavy-traffic limit of the scaled weighted queue sum is

    ht_limit = (n / 2) * sum_ij c_ij * sigma2_ij * zeta_ij,

and ``universal_lower_bound`` evaluates the policy-independent bound built
from priority orderings of the n! schedules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgetrs, dpotrs

from .scheduling import perm_table
from .simulator import RunStats
from .traffic import ArrivalModel, MomentVector
from .wlinalg import CostMatrix, _lu_factor
# Not called here; perfbench/spans.py traces the dense solver at this name.
from .wlinalg import solve_dense

__all__ = [
    "ZetaResult",
    "ZetaReport",
    "OrderingBound",
    "LowerBoundResult",
    "SscCurve",
    "zeta_projection",
    "zeta_gmatrix",
    "cross_validated_zeta",
    "ht_limit",
    "n2_closed_form",
    "LOWER_BOUND_MAX_N",
    "universal_lower_bound",
    "ssc_curve",
]


@dataclass
class ZetaResult:
    zeta: np.ndarray

    def __post_init__(self):
        z = self.zeta
        if np.any(z < -1e-12) or np.any(z > 1.0 + 1e-12):
            raise ValueError("zeta entries must lie in [0, 1]")


@dataclass
class ZetaReport:
    projection: ZetaResult
    gmatrix: ZetaResult
    cross_error: float


def _pair_indicators(n: int) -> np.ndarray:
    """(2n-1, n^2) matrix whose column i*n + j flags input port i and, for
    j < n-1, output port j: the Gram-form loading vector of queue pair
    (i, j), and its right-hand side in the G system."""
    B = np.zeros((2 * n - 1, n, n))
    k = np.arange(n)
    B[k, k, :] = 1.0
    B[n + k[:-1], :, k[:-1]] = 1.0
    return B.reshape(2 * n - 1, n * n)


def zeta_projection(cost: CostMatrix) -> ZetaResult:
    """Overlap fractions via the Gram system of the stacked generators that
    ``project_space`` uses: a quadratic form of each pair indicator in the
    inverse Gram, each pair solved alone by a single-RHS dpotrs, which gives
    the bits of one multi-RHS call without its stalls (see
    ``zeta_gmatrix``; at n = 16 the multi-RHS call took 14-16 ms in two of
    three processes, against 0.2 ms unstalled)."""
    return ZetaResult(zeta=_zeta_projection(cost))


@lru_cache(maxsize=16)
def _zeta_projection(cost: CostMatrix) -> np.ndarray:
    """``zeta_projection``'s values, read-only, computed once per cost object
    (the last 16): an analytic block asks for them twice, through
    ``cross_validated_zeta`` and ``ht_limit``, and the n^2 single-RHS solves
    cost more than one multi-RHS call (2-vCPU host, n = 64: 66-69 ms
    against 16-29 ms)."""
    n = cost.n
    _, (factor, lower) = cost._space_system
    B = _pair_indicators(n)
    X = np.empty_like(B)
    for col, b in enumerate(B.T):
        X[:, col] = dpotrs(factor, b, lower=lower)[0]
    zeta = (B * X).sum(axis=0).reshape(n, n) / cost.c
    zeta.flags.writeable = False
    return zeta


def _g_matrix(cost: CostMatrix) -> np.ndarray:
    """Coefficient matrix G of the complement-ansatz equations, built from 1/c.

    Unknown order is (x_1..x_{n-1}, y_1..y_{n-1}, z); equations are the n
    input-port pairings followed by the first n-1 output-port pairings.  The
    right-hand side of pair (i, j) is column i*n + j of ``_pair_indicators``.
    """
    n = cost.n
    r = 1.0 / cost.c
    k = 2 * n - 1
    G = np.zeros((k, k))
    for i in range(n - 1):
        G[i, i] = r[i, :].sum()
        G[i, n - 1 : 2 * n - 2] = r[i, : n - 1]
        G[i, k - 1] = r[i, : n - 1].sum()
    G[n - 1, n - 1 : 2 * n - 2] = r[n - 1, : n - 1]
    G[n - 1, k - 1] = -r[n - 1, n - 1]
    for j in range(n - 1):
        row = n + j
        G[row, 0 : n - 1] = r[: n - 1, j]
        G[row, n - 1 + j] = r[:, j].sum()
        G[row, k - 1] = r[: n - 1, j].sum()
    return G


def zeta_gmatrix(cost: CostMatrix) -> ZetaResult:
    """Overlap fractions via the complement-ansatz linear system.

    G is factored once (``_lu_factor``, the checks of ``solve_dense``) and G
    U = B solved for the ansatz coefficients u = U[:, i*n + j] of each pair
    (i, j); the unnormalized overlap is the coefficient combination carried
    by the (i, j) cell of the ansatz (z + x_i + y_j in the interior, x_i on
    the last column, y_j on the last row, -z in the corner), divided by c_ij
    to express it as an energy fraction.  The right-hand side of pair (i, j)
    is e_i + e_(n+j), or e_i alone on the last column, so G is solved once
    per unit vector and each pair's u is one add of two of those columns.

    A dgetrs call with several right-hand sides runs through the threaded
    BLAS and stalls for milliseconds whenever its second thread is slow to
    run (2-vCPU host: a 3x3 system with 4 right-hand sides took a median
    5.9 ms over 200 calls in one of three processes, 0.02 ms in the
    others), so each unit vector is solved alone: 2n - 1 single-RHS calls.
    """
    n = cost.n
    m = n - 1
    k = 2 * n - 1
    lu, piv = _lu_factor(_g_matrix(cost))
    # X[:, e] = G^-1 e_e; its last column stays 0, the absent output term of
    # the last column's pairs.
    X = np.zeros((k, k + 1))
    for e, b in enumerate(np.eye(k)):
        X[:, e] = dgetrs(lu, piv, b)[0]
    # Pair (i, j)'s coefficients are X[:, i] + X[:, out[j]]; only the ones
    # the read-out uses are added.
    out = np.append(np.arange(n, k), k)
    r = np.arange(m)
    x = X[r, r][:, None] + X[r][:, out]  # x[i, j]: x_i of pair (i, j), i < n-1
    y = (X[m + r, :n] + X[m + r, out[:m]][:, None]).T  # y[i, j]: y_j of pair (i, j), j < n-1
    z = X[k - 1, :n][:, None] + X[k - 1, out]  # z[i, j]: z of pair (i, j)
    raw = np.empty((n, n))
    raw[:m, :m] = z[:m, :m] + x[:, :m] + y[:m, :]
    raw[:m, m] = x[:, m]
    raw[m, :m] = y[m, :]
    raw[m, m] = -z[m, m]
    return ZetaResult(zeta=raw / cost.c)


def cross_validated_zeta(cost: CostMatrix) -> ZetaReport:
    """Both routes plus their maximum componentwise discrepancy."""
    p = zeta_projection(cost)
    g = zeta_gmatrix(cost)
    err = float(np.abs(p.zeta - g.zeta).max())
    return ZetaReport(projection=p, gmatrix=g, cross_error=err)


def ht_limit(cost: CostMatrix, sigma2) -> float:
    """Heavy-traffic limit of the scaled weighted queue sum:
    (n / 2) * sum_ij c_ij sigma2_ij zeta_ij."""
    sigma2 = np.asarray(sigma2, dtype=float)
    if sigma2.shape != (cost.n, cost.n):
        raise ValueError("sigma2 shape does not match cost matrix")
    if np.any(sigma2 < 0):
        raise ValueError("sigma2 must be nonnegative")
    zeta = zeta_projection(cost).zeta
    return 0.5 * cost.n * float((cost.c * sigma2 * zeta).sum())


def n2_closed_form(cost: CostMatrix, sigma2) -> float:
    """Independent two-port closed form reported alongside ht_limit:
    (1/2) * sum_ij sigma2_ij c_ij (1 - c_ij^2 / sum c^2).

    At uniform unit weights this evaluates to exactly half of ht_limit; the
    two are reported together with their ratio rather than reconciled.
    """
    if cost.n != 2:
        raise ValueError("closed form is specific to n = 2")
    sigma2 = np.asarray(sigma2, dtype=float)
    c = cost.c
    denom = float((c**2).sum())
    return 0.5 * float((sigma2 * c * (1.0 - c**2 / denom)).sum())


# -------- universal lower bound --------


@dataclass
class OrderingBound:
    ordering: tuple[int, ...]
    value_eps: float
    value_limit: float


@dataclass
class LowerBoundResult:
    epsilon: float
    schedules: list[tuple[int, ...]]
    per_ordering: list[OrderingBound]
    Qstar_eps: float
    Qstar_limit: float
    clamped_classes: int


def _class_partition(
    ordering: tuple[int, ...], schedule_queues: list[list[tuple[int, int]]], n: int
) -> list[list[tuple[int, int]]]:
    """Queue (i, j) joins the class of the highest-priority schedule that
    serves it; the result is a partition of all n^2 queues."""
    classes: list[list[tuple[int, int]]] = [[] for _ in ordering]
    seen: set[tuple[int, int]] = set()
    for pos, sched_idx in enumerate(ordering):
        for q in schedule_queues[sched_idx]:
            if q not in seen:
                classes[pos].append(q)
                seen.add(q)
    return classes


def _ordering_values(
    classes: list[list[tuple[int, int]]],
    mom: MomentVector,
    denom_eps: float | None,
) -> tuple[np.ndarray, int]:
    """Per-queue bound values for one ordering.

    Walks classes in priority order keeping the mean residual service
    v = 1 - sum of chosen-class arrival means (clamped at 0; classes past
    server saturation are unstable and any finite value stays valid).  Within
    a class the representative queue minimizes E[A^2] - 2 E[A] v.  With
    denom_eps set, the finite-load form (num - v_l) / (2 eps) is used, where
    the squared residual is bounded by the residual itself; otherwise the
    limit form num is used directly.  Negative class values clamp to 0.
    """
    n = mom.mean.shape[0]
    out = np.zeros((n, n))
    v_prev = 1.0
    clamped = 0
    for members in classes:
        if not members:
            continue
        best_num = None
        for (i, j) in members:
            num = float(mom.second_moment[i, j]) - 2.0 * float(mom.mean[i, j]) * v_prev
            if best_num is None or num < best_num:
                best_num = num
                best_q = (i, j)
        v_cur = max(0.0, v_prev - float(mom.mean[best_q]))
        if denom_eps is not None:
            val = (best_num - v_cur) / (2.0 * denom_eps)
        else:
            val = best_num
        if val < 0.0:
            val = 0.0
            clamped += 1
        for q in members:
            out[q] = val
        v_prev = v_cur
    return out, clamped


# Largest n whose priority orderings universal_lower_bound enumerates: (3!)! =
# 720 orderings, against (4!)! (about 6.2e23) at n = 4.
LOWER_BOUND_MAX_N = 3


def universal_lower_bound(cost: CostMatrix, model: ArrivalModel) -> LowerBoundResult:
    """Policy-independent lower bound on the average weighted queue length.

    Enumerates every priority ordering of the n! schedules (hence (n!)!
    orderings; n <= LOWER_BOUND_MAX_N only), prices each ordering by the
    weighted sum of per-queue class values, and minimizes over orderings --
    the weighted queue sum of any policy lies above the cheapest vertex of
    the priority performance polytope.  Both the finite-load value and its
    epsilon -> 0 limit are reported; class values clamped to 0 are counted
    in ``clamped_classes``.
    """
    n = cost.n
    if n != model.n:
        raise ValueError("cost and arrival dimensions differ")
    if n > LOWER_BOUND_MAX_N:
        raise ValueError(
            f"n={n} needs ({math.factorial(n)})! priority orderings; "
            f"n <= {LOWER_BOUND_MAX_N} is supported"
        )
    scheds = list(perm_table(n).perms)
    schedule_queues = [[(i, p[i]) for i in range(n)] for p in scheds]
    mom_eps = model.moments()
    mom_lim = model.limit_moments()
    per: list[OrderingBound] = []
    clamped_total = 0
    for ordering in itertools.permutations(range(len(scheds))):
        classes = _class_partition(ordering, schedule_queues, n)
        vals_eps, cl1 = _ordering_values(classes, mom_eps, denom_eps=model.epsilon)
        vals_lim, cl2 = _ordering_values(classes, mom_lim, denom_eps=None)
        clamped_total += cl1 + cl2
        per.append(
            OrderingBound(
                ordering=ordering,
                value_eps=float((cost.c * vals_eps).sum()),
                value_limit=float((cost.c * vals_lim).sum()),
            )
        )
    return LowerBoundResult(
        epsilon=model.epsilon,
        schedules=scheds,
        per_ordering=per,
        Qstar_eps=min(b.value_eps for b in per),
        Qstar_limit=min(b.value_limit for b in per),
        clamped_classes=clamped_total,
    )


# -------- state-space-collapse summary --------


@dataclass
class SscCurve:
    par_slope: float
    perp_slope: float


def pool_runs(reps: list[RunStats]) -> dict:
    """Equal-weight pooling of replications of one configuration."""
    mean = float(np.mean([r.mean_weighted_qsum for r in reps]))
    se = float(np.sqrt(np.sum([r.stderr_weighted_qsum**2 for r in reps])) / len(reps))
    urate = float(np.mean([r.unused_service_rate for r in reps]))
    use = float(np.sqrt(np.sum([r.stderr_unused_service**2 for r in reps])) / len(reps))
    return {
        "mean_weighted_qsum": mean,
        "stderr_weighted_qsum": se,
        "unused_service_rate": urate,
        "stderr_unused_service": use,
        "perp_mean": float(np.mean([np.mean(r.perp_samples) for r in reps])),
        "perp2_mean": float(np.mean([np.mean(r.perp_samples**2) for r in reps])),
        "perp4_mean": float(np.mean([np.mean(r.perp_samples**4) for r in reps])),
        "par_mean": float(np.mean([np.mean(r.par_samples) for r in reps])),
    }


def ssc_curve(runs_by_eps: dict[float, list[RunStats]]) -> SscCurve:
    """Log-log slopes versus epsilon of the pooled parallel and perpendicular
    norm means, fitted over the loads in decreasing order.

    The parallel component grows like 1/epsilon (slope near -1) while the
    perpendicular component stays bounded (slope near 0).
    """
    if len(runs_by_eps) < 3:
        raise ValueError("need at least 3 distinct epsilon values")
    eps = sorted(runs_by_eps, reverse=True)
    pooled = [pool_runs(runs_by_eps[e]) for e in eps]
    eps_log = np.log(eps)
    par_slope = float(np.polyfit(eps_log, np.log([p["par_mean"] for p in pooled]), 1)[0])
    perp_slope = float(np.polyfit(eps_log, np.log([p["perp_mean"] for p in pooled]), 1)[0])
    return SscCurve(par_slope=par_slope, perp_slope=perp_slope)
