"""Cost-weighted MaxWeight schedule selection.

A schedule is a permutation: queue (i, perm[i]) is served at every input i.
Each slot the scheduler picks a permutation maximizing sum_i c[i, perm[i]] *
Q[i, perm[i]].  The solver depends on n alone (``matcher_mode``): up to
``EXACT_MAX_N`` the argmax set is enumerated (``argmax_kernel``, which
``simulator.run`` shares) and ties are broken uniformly at random
(``break_tie``); above it a Hungarian solver with a randomizing pre-shuffle
is used instead (an arbitrary maximizer, so tie breaking is only approximate
there).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .wlinalg import CostMatrix

__all__ = [
    "Schedule",
    "EXACT_MAX_N",
    "matcher_mode",
    "schedule_weight",
    "max_weight_schedule",
    "enumerate_argmax",
    "hungarian_schedule",
    "all_schedules",
    "PermTable",
    "perm_table",
    "argmax_kernel",
    "break_tie",
]

# Largest n served by exact enumeration, which breaks ties uniformly.  Measured
# on a 2-vCPU host (checker(1, 2) costs, Bernoulli arrivals, eps = 0.05): exact
# `simulator.run` reaches about 34k slots/s at n = 7 and the Hungarian engine
# about 92k at n = 8, where one exact kernel call (40320 permutations) takes
# 0.84 ms against 9 us for one Hungarian solve.  Speed alone would lower this
# bound; it stays for the uniform tie breaking.
EXACT_MAX_N = 7


def matcher_mode(n: int) -> str:
    """The solver of an n-port switch: ``"exact-enumeration"`` (uniform tie
    breaking) for n <= EXACT_MAX_N, ``"hungarian"`` above."""
    return "exact-enumeration" if n <= EXACT_MAX_N else "hungarian"


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


# Smallest n at which argmax_kernel gathers with numpy instead of looping in
# Python.  Measured per call, 2-vCPU host: 3.5 us loop against 4.0 us numpy at
# n = 4, 19.6 us against 4.7 us at n = 5.
_GATHER_MIN_N = 5


class PermTable(NamedTuple):
    """All n! permutations in lexicographic order (``perms``) and each as a
    ``Schedule`` (``schedules``, checked once here); for each one the flat
    queue indices i * n + perm[i] it serves, in row order (``pidx``); and the
    same indices by row, ``cols[i, p] = pidx[p][i]`` (read-only)."""

    perms: tuple[tuple[int, ...], ...]
    schedules: tuple[Schedule, ...]
    pidx: tuple[tuple[int, ...], ...]
    cols: np.ndarray


@lru_cache(maxsize=None)
def perm_table(n: int) -> PermTable:
    """The permutation table of n ports, built once per n."""
    perms = tuple(itertools.permutations(range(n)))
    pidx = tuple(tuple(i * n + p[i] for i in range(n)) for p in perms)
    cols = np.array(pidx, dtype=np.intp).T.copy()
    cols.flags.writeable = False
    return PermTable(perms, tuple(map(Schedule, perms)), pidx, cols)


def _loop_kernel(c_flat: Sequence[float], pidx) -> Callable[[Sequence], list[int]]:
    def ties(q) -> list[int]:
        best = float("-inf")
        out: list[int] = []
        for p, idxs in enumerate(pidx):
            w = 0.0
            for k in idxs:
                w += c_flat[k] * q[k]
            if w > best:
                best = w
                out = [p]
            elif w == best:
                out.append(p)
        return out

    return ties


def _gather_kernel(c_flat: np.ndarray, cols: np.ndarray) -> Callable[[Sequence], np.ndarray]:
    def ties(q) -> np.ndarray:
        # One add per row, in row order: no matmul or np.sum, whose summation
        # order can differ and would break exact float ties.
        w = (c_flat * np.asarray(q)).take(cols)
        acc = w[0]
        for i in range(1, len(w)):
            acc += w[i]
        return (acc == acc.max()).nonzero()[0]

    return ties


@lru_cache(maxsize=16)
def argmax_kernel(cost: CostMatrix) -> Callable[[Sequence], Sequence[int]]:
    """The exact MaxWeight kernel for ``cost``: maps flat queue lengths ``q``
    (length n^2, row-major) to the ascending positions in ``perm_table(n)`` of
    every maximum-weight permutation, built once per cost object (last 16).

    Each weight is summed in the fixed row order of ``schedule_weight``, so
    ties are exact float equalities.  Below n = 5 the sums run in a Python
    loop; from n = 5 numpy forms all n! weights at once, gathering c * q by
    ``cols`` and adding one row at a time.  Costs are > 0 and q >= 0, so its
    first row equals the loop's 0.0 + term and the two give the same bits.
    """
    table = perm_table(cost.n)
    if cost.n < _GATHER_MIN_N:
        return _loop_kernel(cost._flat_tuple, table.pidx)
    return _gather_kernel(cost.flat, table.cols)


def break_tie(ties: Sequence, uniform):
    """The tie-break rule: a unique maximiser is taken as is; otherwise one
    draw u = uniform() from the tiebreak stream picks ties[int(u * len(ties))]."""
    if len(ties) == 1:
        return ties[0]
    return ties[int(uniform() * len(ties))]


def all_schedules(n: int) -> list[Schedule]:
    """All n! maximal schedules, in lexicographic order."""
    return list(perm_table(n).schedules)


def _check_dims(Q: np.ndarray, cost: CostMatrix) -> np.ndarray:
    Q = np.asarray(Q)
    if Q.shape != (cost.n, cost.n):
        raise ValueError(f"queue matrix shape {Q.shape} != cost shape {(cost.n, cost.n)}")
    return Q


def schedule_weight(s: Schedule, Q, cost: CostMatrix) -> float:
    """sum_i c[i, perm[i]] * Q[i, perm[i]], accumulated in fixed row order.

    The fixed accumulation order makes identical multisets of terms compare
    exactly equal across schedules, which argmax_kernel relies on.
    """
    Q = _check_dims(Q, cost)
    if s.n != cost.n:
        raise ValueError("schedule size does not match cost matrix")
    w = 0.0
    c = cost.c
    for i, j in enumerate(s.perm):
        w += c[i, j] * Q[i, j]
    return w


def enumerate_argmax(Q, cost: CostMatrix) -> list[Schedule]:
    """All schedules attaining the maximum weight (exact float equality);
    n must not exceed EXACT_MAX_N."""
    Q = _check_dims(Q, cost)
    if matcher_mode(cost.n) != "exact-enumeration":
        raise ValueError(f"n={cost.n} above the enumeration limit EXACT_MAX_N={EXACT_MAX_N}")
    schedules = perm_table(cost.n).schedules
    return [schedules[p] for p in argmax_kernel(cost)(Q.ravel().tolist())]


def _hungarian_perm(W: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A maximum-weight permutation of the (n, n) weight matrix ``W = c * Q``
    by the Hungarian method (Kuhn, 1955), as an array: row i is matched to
    column perm[i].

    Rows, then columns, are shuffled first, one ``rng.permutation(n)`` draw
    each, so that under ties which maximizer comes back is not a fixed
    artifact of index order.  ``hungarian_schedule`` and ``simulator.run``
    share this one implementation.
    """
    n = len(W)
    pr = rng.permutation(n)
    pc = rng.permutation(n)
    rows, cols = linear_sum_assignment(W[pr[:, None], pc], maximize=True)
    perm = np.empty(n, dtype=np.intp)
    perm[pr[rows]] = pc[cols]
    return perm


def hungarian_schedule(Q, cost: CostMatrix, rng: np.random.Generator) -> Schedule:
    """Maximum-weight assignment via the Hungarian method, with a random
    row/column pre-shuffle (``_hungarian_perm``)."""
    Q = _check_dims(Q, cost)
    return Schedule(tuple(_hungarian_perm(cost.c * Q, rng).tolist()))


def max_weight_schedule(Q, cost: CostMatrix, rng: np.random.Generator) -> Schedule:
    """Pick a maximum-weight schedule with the solver ``matcher_mode(n)``
    names; exact enumeration samples uniformly from the full argmax set,
    drawing one ``rng.random()`` per tie (``break_tie``)."""
    if matcher_mode(cost.n) == "exact-enumeration":
        ties = argmax_kernel(cost)(_check_dims(Q, cost).ravel().tolist())
        return perm_table(cost.n).schedules[break_tie(ties, rng.random)]
    return hungarian_schedule(Q, cost, rng)
