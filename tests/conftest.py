"""Shared independent oracles for the test suite.

These deliberately take different computational routes than the library:
Gram-Schmidt orthonormalization for subspace projections, clamped block
coordinate descent for cone projections, and the stationary law of the n = 2
Markov chain for the simulated mean.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from switchlab import simulator
from switchlab.traffic import ArrivalModel
from switchlab.wlinalg import CostMatrix, col_generator, row_generator


def recorded_run(cfg: simulator.RunConfig) -> tuple[simulator.RunStats, simulator.SlotRecord]:
    """``run(cfg)`` and its slot records: the chunks ``run`` hands
    ``RunConfig.record``, concatenated along the slot axis."""
    chunks = []
    stats = simulator.run(dataclasses.replace(cfg, record=chunks.append))
    fields = dataclasses.fields(simulator.SlotRecord)
    return stats, simulator.SlotRecord(
        *(np.concatenate([getattr(c, f.name) for c in chunks]) for f in fields))


def gs_orthonormal_basis(cost: CostMatrix) -> list[np.ndarray]:
    """Orthonormalize the stacked generators under the weighted inner product."""
    n = cost.n
    d = cost.flat
    cols = [row_generator(cost, i).ravel() for i in range(n)]
    cols += [col_generator(cost, j).ravel() for j in range(n - 1)]
    basis = []
    for v in cols:
        v = v.copy()
        for f in basis:
            v -= float((d * f * v).sum()) * f
        v /= np.sqrt(float((d * v * v).sum()))
        basis.append(v)
    return basis


def oracle_space_projection(x: np.ndarray, cost: CostMatrix) -> np.ndarray:
    d = cost.flat
    flat = np.asarray(x, dtype=float).ravel()
    out = np.zeros_like(flat)
    for f in gs_orthonormal_basis(cost):
        out += float((d * f * flat).sum()) * f
    return out.reshape(cost.n, cost.n)


def oracle_zeta(cost: CostMatrix) -> np.ndarray:
    """Overlap fractions from the orthonormalized basis, normalized per entry."""
    n = cost.n
    d = cost.flat
    basis = gs_orthonormal_basis(cost)
    zeta = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            e = np.zeros(n * n)
            e[i * n + j] = 1.0
            zeta[i, j] = sum(float((d * f * e).sum()) ** 2 for f in basis) / cost.c[i, j]
    return zeta


def oracle_cone_residual2(x: np.ndarray, cost: CostMatrix) -> float:
    """Squared weighted distance from x to the cone, via block coordinate
    descent from a cold start: given wt, each w_i has a closed-form clamped
    minimizer (and vice versa); the blocks alternate until the largest
    coordinate change drops below 1e-13."""
    n = cost.n
    y = cost.c * np.asarray(x, dtype=float).reshape(n, n)   # target in potential units
    r = 1.0 / cost.c
    rw = r.sum(axis=1)
    rc = r.sum(axis=0)
    w = np.zeros(n)
    wt = np.zeros(n)
    for _ in range(10**6):
        w_new = np.maximum(0.0, (r * (y - wt[None, :])).sum(axis=1) / rw)
        wt_new = np.maximum(0.0, (r * (y - w_new[:, None])).sum(axis=0) / rc)
        delta = max(float(np.abs(w_new - w).max()), float(np.abs(wt_new - wt).max()))
        w, wt = w_new, wt_new
        if delta < 1e-13:
            break
    else:
        raise AssertionError("descent oracle did not converge")
    perp = np.asarray(x, dtype=float).reshape(n, n) - (w[:, None] + wt[None, :]) * r
    return float((cost.c * perp * perp).sum())


def exact_n2_mean(cost: CostMatrix, model: ArrivalModel, L: int = 22) -> float:
    """eps * E[sum_ij c_ij Q_ij] of the n = 2 switch in its stationary law,
    solved from its Markov chain rather than simulated.

    Each queue is truncated at ``L``, so the law is an (L+1)^4 array over Q in
    {0..L}^4.  The transitions follow the engine's rules, written out here on
    their own: schedule 0 serves flat queues (0, 3), schedule 1 serves (1, 2);
    the one with the larger weight c_k q_k + c_l q_l (row order) is served,
    each with probability 1/2 on a tie; the arrivals A, independent per queue
    with the pmf of the model's survival table, join and are servable at once,
    Q' = min(max(Q + A - S, 0), L).  Given the schedule the queues move
    independently, so a slot takes each schedule's share of the law and
    applies, axis by axis, the (L+1, L+1) matrix that moves one queue.  The
    law is iterated from Q = 0 until its L1 change drops below 1e-13; the
    mass on the truncation boundary must stay negligible.
    """
    assert cost.n == model.n == 2
    q = np.arange(L + 1)
    Q = np.ix_(q, q, q, q)  # Q[k] varies along axis k only
    c = cost.flat
    w0, w1 = c[0] * Q[0] + c[3] * Q[3], c[1] * Q[1] + c[2] * Q[2]
    tail = np.hstack((np.ones((4, 1)), model._survival, np.zeros((4, 1))))
    pmf = tail[:, :-1] - tail[:, 1:]  # pmf[k, a] = P(A_k = a)
    # move[k, s][q', q] = P(min(max(q + A_k - s, 0), L) = q')
    move = np.zeros((4, 2, L + 1, L + 1))
    for k, s in itertools.product(range(4), (0, 1)):
        for a, p in enumerate(pmf[k]):
            move[k, s, np.clip(q + a - s, 0, L), q] += p

    def along(k, M, x):  # M applied to the axis k of x
        if k == 3:
            return x @ M.T
        return (M @ x.reshape(-1, L + 1, (L + 1) ** (3 - k))).reshape(x.shape)

    schedules = (((w0 > w1) + 0.5 * (w0 == w1), (1, 0, 0, 1)),
                 ((w1 > w0) + 0.5 * (w0 == w1), (0, 1, 1, 0)))
    pi = np.zeros((L + 1,) * 4)
    pi[0, 0, 0, 0] = 1.0
    for _ in range(5000):
        nxt = np.zeros_like(pi)
        for p_sched, served in schedules:
            x = pi * p_sched
            for k in range(4):
                x = along(k, move[k, served[k]], x)
            nxt += x
        change = float(np.abs(nxt - pi).sum())
        pi = nxt
        if change < 1e-13:
            break
    else:
        raise AssertionError("Markov chain power iteration did not converge")
    boundary = (Q[0] == L) | (Q[1] == L) | (Q[2] == L) | (Q[3] == L)
    assert pi[boundary].sum() < 1e-9, "truncation boundary carries mass"
    return model.epsilon * float(sum(c[k] * (pi * Q[k]).sum() for k in range(4)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
