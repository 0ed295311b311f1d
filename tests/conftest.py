"""Shared independent oracles for the test suite.

These deliberately take different computational routes than the library:
Gram-Schmidt orthonormalization for subspace projections and clamped block
coordinate descent for cone projections.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from switchlab import simulator
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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
