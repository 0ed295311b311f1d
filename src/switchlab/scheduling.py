"""Cost-weighted MaxWeight schedule selection.

A schedule is a permutation: queue (i, perm[i]) is served at every input i.
Each slot the scheduler picks a permutation maximizing sum_i c[i, perm[i]] *
Q[i, perm[i]].  For small n the argmax set is enumerated (``argmax_ties``, the
kernel ``simulator.run`` shares) and ties are broken uniformly at random
(``break_tie``); above the enumeration threshold a Hungarian solver with a
randomizing pre-shuffle is used instead (an arbitrary maximizer, so tie
breaking is only approximate there).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment

from .wlinalg import CostMatrix

__all__ = [
    "Schedule",
    "MatcherConfig",
    "schedule_weight",
    "max_weight_schedule",
    "enumerate_argmax",
    "hungarian_schedule",
    "all_schedules",
    "perm_table",
    "argmax_ties",
    "break_tie",
]

MODES = ("exact-enumeration", "hungarian", "auto")


@dataclass(frozen=True)
class Schedule:
    """perm[i] = j means queue (i, j) is served."""

    perm: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n-1}: {self.perm}")

    @property
    def n(self) -> int:
        return len(self.perm)

    def as_matrix(self) -> np.ndarray:
        s = np.zeros((self.n, self.n), dtype=int)
        for i, j in enumerate(self.perm):
            s[i, j] = 1
        return s

    def pairs(self) -> list[tuple[int, int]]:
        return list(enumerate(self.perm))


@dataclass
class MatcherConfig:
    mode: str = "auto"
    exact_threshold: int = 7

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.exact_threshold < 2:
            raise ValueError("exact_threshold must be >= 2")

    def resolved_mode(self, n: int) -> str:
        if self.mode == "auto":
            return "exact-enumeration" if n <= self.exact_threshold else "hungarian"
        return self.mode


@lru_cache(maxsize=None)
def perm_table(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(perms, pidx): all n! permutations in lexicographic order, and for
    each one the flat queue indices i * n + perm[i] it serves, in row order."""
    perms = tuple(itertools.permutations(range(n)))
    return perms, tuple(tuple(i * n + p[i] for i in range(n)) for p in perms)


def argmax_ties(q, c_flat, pidx) -> list[int]:
    """Positions in ``pidx`` of every maximum-weight permutation, for flat
    queue lengths ``q`` and costs ``c_flat``.  Weights add up in the fixed row
    order of ``schedule_weight``, so ties are exact float equalities."""
    best = float("-inf")
    ties: list[int] = []
    for p, idxs in enumerate(pidx):
        w = 0.0
        for k in idxs:
            w += c_flat[k] * q[k]
        if w > best:
            best = w
            ties = [p]
        elif w == best:
            ties.append(p)
    return ties


def break_tie(ties: list, uniform):
    """The tie-break rule: a unique maximiser is taken as is; otherwise one
    draw u = uniform() from the tiebreak stream picks ties[int(u * len(ties))]."""
    if len(ties) == 1:
        return ties[0]
    return ties[int(uniform() * len(ties))]


def all_schedules(n: int) -> list[Schedule]:
    """All n! maximal schedules, in lexicographic order."""
    return [Schedule(p) for p in perm_table(n)[0]]


def _check_dims(Q: np.ndarray, cost: CostMatrix) -> np.ndarray:
    Q = np.asarray(Q)
    if Q.shape != (cost.n, cost.n):
        raise ValueError(f"queue matrix shape {Q.shape} != cost shape {(cost.n, cost.n)}")
    return Q


def schedule_weight(s: Schedule, Q, cost: CostMatrix) -> float:
    """sum_i c[i, perm[i]] * Q[i, perm[i]], accumulated in fixed row order.

    The fixed accumulation order makes identical multisets of terms compare
    exactly equal across schedules, which argmax_ties relies on.
    """
    Q = _check_dims(Q, cost)
    if s.n != cost.n:
        raise ValueError("schedule size does not match cost matrix")
    w = 0.0
    c = cost.c
    for i, j in enumerate(s.perm):
        w += c[i, j] * Q[i, j]
    return w


def enumerate_argmax(Q, cost: CostMatrix, exact_threshold: int = 7) -> list[Schedule]:
    """All schedules attaining the maximum weight (exact float equality)."""
    Q = _check_dims(Q, cost)
    if cost.n > exact_threshold:
        raise ValueError(f"n={cost.n} above enumeration threshold {exact_threshold}")
    perms, pidx = perm_table(cost.n)
    return [Schedule(perms[p]) for p in argmax_ties(Q.ravel().tolist(), cost.flat.tolist(), pidx)]


def hungarian_schedule(Q, cost: CostMatrix, rng: np.random.Generator) -> Schedule:
    """Maximum-weight assignment via the Hungarian method.

    A random row/column shuffle is applied first so that, under ties, which
    maximizer comes back is not a fixed artifact of index order.
    """
    Q = _check_dims(Q, cost)
    n = cost.n
    pr = rng.permutation(n)
    pc = rng.permutation(n)
    W = (cost.c * Q)[np.ix_(pr, pc)]
    rows, cols = linear_sum_assignment(W, maximize=True)
    perm = [0] * n
    for r, col in zip(rows, cols):
        perm[pr[r]] = int(pc[col])
    return Schedule(tuple(perm))


def max_weight_schedule(
    Q, cost: CostMatrix, cfg: MatcherConfig, rng: np.random.Generator
) -> Schedule:
    """Pick a maximum-weight schedule; exact mode samples uniformly from the
    full argmax set, drawing one ``rng.random()`` per tie (``break_tie``)."""
    if cfg.resolved_mode(cost.n) == "exact-enumeration":
        return break_tie(enumerate_argmax(Q, cost, exact_threshold=cost.n), rng.random)
    return hungarian_schedule(Q, cost, rng)
