"""Cost-weighted MaxWeight schedule selection.

A schedule is a permutation: queue (i, perm[i]) is served at every input i.
Each slot the scheduler picks a permutation maximizing sum_i c[i, perm[i]] *
Q[i, perm[i]].  The solver depends on n alone (``matcher_mode``): up to
``EXACT_MAX_N`` the argmax set is enumerated (``argmax_kernel``) and ties are
broken uniformly at random (``break_tie``); above it a Hungarian solver with
a randomizing pre-shuffle is used instead (an arbitrary maximizer, so tie
breaking is only approximate there).  That rule has one implementation,
``_hungarian_chunk``, which draws the shuffles of m slots at once:
``hungarian_schedule`` runs it for one slot and ``simulator.run`` for a chunk
of slots, from the same stream alike.  ``simulator.run`` has two slot loops:
at n <= 5 a loop generated for n that makes ``break_tie(argmax_kernel)``'s
choices bit for bit, and at every other n one array loop that takes each
slot's schedule from ``argmax_kernel`` and ``break_tie`` (n = 6, 7) or from
``_hungarian_chunk`` (n >= 8).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

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
# on a 2-vCPU host (serial `simulator.run`, Bernoulli arrivals, eps = 0.05, no
# SSC samples, process CPU): exact enumeration reaches 124-139k slots/s at
# n = 5 (the generated slot loop, checker(1, 2) costs, medians of 3), and in
# the array slot loop 59k (unit costs) and 65k (checker) at n = 6 and 17-18k at
# n = 7 (medians of 10 runs), where one kernel call (5040 permutations) takes
# 0.06-0.09 ms; the Hungarian rule reaches 101k at n = 8 with unit costs,
# where one scipy solve takes 4-6 us against 2.7-3.0 ms for one exact kernel
# call (40320 permutations).  Speed alone would lower this bound; it stays
# for the uniform tie breaking.
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
    if Q.shape != cost.c.shape:
        raise ValueError(f"queue matrix shape {Q.shape} != cost shape {cost.c.shape}")
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


def _hungarian_chunk(cost: CostMatrix, m: int, rng: np.random.Generator
                    ) -> Callable[[int, np.ndarray], np.ndarray]:
    """The shuffled Hungarian rule for m slots: ``served(r, q)`` solves slot
    r for the flat queue lengths ``q`` (length n^2, row-major) by the
    Hungarian method (Kuhn, 1955) and returns the flat indices i * n +
    perm[i] of a maximum-weight permutation, one per row, in shuffled row
    order.  ``hungarian_schedule`` (m = 1) and ``simulator.run`` (m = the
    slots of one chunk) share this one implementation.

    Each slot shuffles rows, then columns, so that under ties which
    maximizer comes back is not a fixed artifact of index order.  All 2m
    shuffles are drawn here, by one ``rng.permuted`` call over 2m rows of
    arange(n): the rows of slot r are shuffled by row 2r and its columns by
    row 2r + 1, the draws of 2m successive ``rng.permutation(n)`` calls,
    which leave the generator in the same state (tests/test_scheduling.py
    pins this).  ``gather[r]`` holds slot r's shuffled weight matrix as
    flat indices, so a slot takes c * q through it in one ``take``.
    """
    # Imported where it is called; see wlinalg._nnls_coef.
    from scipy.optimize import linear_sum_assignment

    n = cost.n
    shuffles = rng.permuted(np.broadcast_to(np.arange(n), (2 * m, n)), axis=1)
    row_start, pc = shuffles[0::2] * n, shuffles[1::2]
    gather = row_start[:, :, None] + pc[:, None, :]
    c_flat = cost.flat

    def served(r: int, q: np.ndarray) -> np.ndarray:
        cols = linear_sum_assignment((c_flat * q).take(gather[r]), maximize=True)[1]
        return row_start[r] + pc[r].take(cols)

    return served


def hungarian_schedule(Q, cost: CostMatrix, rng: np.random.Generator) -> Schedule:
    """Maximum-weight assignment via the Hungarian method, with a random
    row/column pre-shuffle (``_hungarian_chunk`` for one slot)."""
    Q = _check_dims(Q, cost)
    served = _hungarian_chunk(cost, 1, rng)(0, Q.ravel())
    return Schedule(tuple((np.sort(served) % cost.n).tolist()))


def max_weight_schedule(Q, cost: CostMatrix, rng: np.random.Generator) -> Schedule:
    """Pick a maximum-weight schedule with the solver ``matcher_mode(n)``
    names; exact enumeration samples uniformly from the full argmax set,
    drawing one ``rng.random()`` per tie (``break_tie``)."""
    n = cost.n
    if matcher_mode(n) == "exact-enumeration":
        ties = argmax_kernel(cost)(_check_dims(Q, cost).ravel().tolist())
        return perm_table(n).schedules[break_tie(ties, rng.random)]
    return hungarian_schedule(Q, cost, rng)
