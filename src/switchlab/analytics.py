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
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .scheduling import perm_table
from .simulator import RunStats
from .traffic import ArrivalModel, MomentVector
from .wlinalg import CostMatrix, solve_dense

__all__ = [
    "ZetaResult",
    "ZetaReport",
    "OrderingBound",
    "LowerBoundResult",
    "SscRow",
    "SscCurve",
    "zeta_projection",
    "zeta_gmatrix",
    "cross_validated_zeta",
    "ht_limit",
    "n2_closed_form",
    "universal_lower_bound",
    "ssc_curve",
]


@dataclass
class ZetaResult:
    zeta: np.ndarray
    method: str

    def __post_init__(self):
        z = self.zeta
        if np.any(z < -1e-12) or np.any(z > 1.0 + 1e-12):
            raise ValueError("zeta entries must lie in [0, 1]")


@dataclass
class ZetaReport:
    projection: ZetaResult
    gmatrix: ZetaResult
    cross_error: float


def _pair_indicator(n: int, i: int, j: int) -> np.ndarray:
    """Length-(2n-1) vector flagging input port i and, for j < n-1, output
    port j.  Serves both as Gram-form loading vector and G-system RHS."""
    b = np.zeros(2 * n - 1)
    b[i] = 1.0
    if j < n - 1:
        b[n + j] = 1.0
    return b


def zeta_projection(cost: CostMatrix) -> ZetaResult:
    """Overlap fractions via the Gram system of the stacked generators that
    ``project_space`` uses: a quadratic form of the pair indicator in the
    inverse Gram."""
    n = cost.n
    _, cho = cost._space_system
    zeta = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            b = _pair_indicator(n, i, j)
            zeta[i, j] = float(b @ cho_solve(cho, b)) / cost.c[i, j]
    return ZetaResult(zeta=zeta, method="projection")


def _g_matrix(cost: CostMatrix) -> np.ndarray:
    """Coefficient matrix G of the complement-ansatz equations, built from 1/c.

    Unknown order is (x_1..x_{n-1}, y_1..y_{n-1}, z); equations are the n
    input-port pairings followed by the first n-1 output-port pairings.  The
    right-hand side of pair (i, j) is ``_pair_indicator(n, i, j)``.
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

    Solving G u = rhs(i, j) yields the ansatz coefficients; the unnormalized
    overlap is the coefficient combination carried by the (i, j) cell of the
    ansatz (z + x_i + y_j in the interior, x_i on the last column, y_j on the
    last row, -z in the corner), divided by c_ij to express it as an energy
    fraction.
    """
    n = cost.n
    G = _g_matrix(cost)
    zeta = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            u = solve_dense(G, _pair_indicator(n, i, j))
            x = u[: n - 1]
            y = u[n - 1 : 2 * n - 2]
            z = u[2 * n - 2]
            if i < n - 1 and j < n - 1:
                raw = z + x[i] + y[j]
            elif i < n - 1:
                raw = x[i]
            elif j < n - 1:
                raw = y[j]
            else:
                raw = -z
            zeta[i, j] = raw / cost.c[i, j]
    return ZetaResult(zeta=zeta, method="gmatrix")


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


def universal_lower_bound(cost: CostMatrix, model: ArrivalModel) -> LowerBoundResult:
    """Policy-independent lower bound on the average weighted queue length.

    Enumerates every priority ordering of the n! schedules (hence (n!)!
    orderings; n <= 3 only), prices each ordering by the weighted sum of
    per-queue class values, and minimizes over orderings -- the weighted
    queue sum of any policy lies above the cheapest vertex of the priority
    performance polytope.  Both the finite-load value and its epsilon -> 0
    limit are reported.
    """
    n = cost.n
    if n != model.n:
        raise ValueError("cost and arrival dimensions differ")
    if n > 3:
        raise ValueError(
            f"n={n} needs ({math.factorial(n)})! priority orderings; n <= 3 is supported"
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
    if clamped_total:
        warnings.warn(
            f"{clamped_total} negative class bounds clamped to 0 (vacuous but valid)",
            stacklevel=2,
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
class SscRow:
    epsilon: float
    perp_mean: float
    perp2_mean: float
    par_mean: float
    scaled_weighted_qsum: float
    stderr: float


@dataclass
class SscCurve:
    rows: list[SscRow]
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
        "perp_mean": float(np.mean([r.mean_perp_norm_r[1] for r in reps])),
        "perp2_mean": float(np.mean([r.mean_perp_norm_r[2] for r in reps])),
        "perp4_mean": float(np.mean([r.mean_perp_norm_r[4] for r in reps])),
        "par_mean": float(np.mean([r.mean_par_norm for r in reps])),
    }


def ssc_curve(runs_by_eps: dict[float, list[RunStats]]) -> SscCurve:
    """Per-load collapse summary with log-log slopes versus epsilon.

    The parallel component grows like 1/epsilon (slope near -1) while the
    perpendicular component stays bounded (slope near 0).
    """
    if len(runs_by_eps) < 3:
        raise ValueError("need at least 3 distinct epsilon values")
    rows = []
    for eps in sorted(runs_by_eps, reverse=True):
        pooled = pool_runs(runs_by_eps[eps])
        rows.append(
            SscRow(
                epsilon=eps,
                perp_mean=pooled["perp_mean"],
                perp2_mean=pooled["perp2_mean"],
                par_mean=pooled["par_mean"],
                scaled_weighted_qsum=eps * pooled["mean_weighted_qsum"],
                stderr=eps * pooled["stderr_weighted_qsum"],
            )
        )
    eps_log = np.log([r.epsilon for r in rows])
    par_slope = float(np.polyfit(eps_log, np.log([r.par_mean for r in rows]), 1)[0])
    perp_slope = float(np.polyfit(eps_log, np.log([r.perp_mean for r in rows]), 1)[0])
    return SscCurve(rows=rows, par_slope=par_slope, perp_slope=perp_slope)
