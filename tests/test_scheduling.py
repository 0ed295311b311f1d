from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chisquare

from switchlab.scheduling import (
    Schedule,
    _gather_kernel,
    _loop_kernel,
    all_schedules,
    argmax_kernel,
    enumerate_argmax,
    hungarian_schedule,
    matcher_mode,
    max_weight_schedule,
    perm_table,
    schedule_weight,
)
from switchlab.wlinalg import CostMatrix


def ones_cost(n):
    return CostMatrix(np.ones((n, n)))


def test_schedule_must_be_permutation():
    with pytest.raises(ValueError):
        Schedule((0, 0))
    assert Schedule((1, 0)).n == 2


def test_weight_zero_queue():
    c = ones_cost(3)
    Q = np.zeros((3, 3), dtype=int)
    for s in all_schedules(3):
        assert schedule_weight(s, Q, c) == 0.0


def test_weight_hand_cases():
    Q = np.array([[5, 1], [2, 3]])
    assert schedule_weight(Schedule((0, 1)), Q, ones_cost(2)) == 8.0
    c = CostMatrix([[1, 4], [4, 1]])
    assert schedule_weight(Schedule((1, 0)), Q, c) == 12.0


def test_weight_dimension_mismatch():
    with pytest.raises(ValueError):
        schedule_weight(Schedule((0, 1)), np.zeros((3, 3)), ones_cost(2))
    with pytest.raises(ValueError):
        schedule_weight(Schedule((0, 1, 2)), np.zeros((2, 2)), ones_cost(2))


def test_max_weight_hand_cases(rng):
    Q = np.array([[5, 1], [2, 3]])
    assert max_weight_schedule(Q, ones_cost(2), rng).perm == (0, 1)
    c = CostMatrix([[1, 4], [4, 1]])
    assert max_weight_schedule(Q, c, rng).perm == (1, 0)


def test_enumerate_argmax_cases():
    c = ones_cost(3)
    assert len(enumerate_argmax(np.zeros((3, 3), dtype=int), c)) == 6
    c2 = ones_cost(2)
    only = enumerate_argmax(np.array([[5, 1], [2, 3]]), c2)
    assert [s.perm for s in only] == [(0, 1)]
    both = enumerate_argmax(np.ones((2, 2), dtype=int), c2)
    assert {s.perm for s in both} == {(0, 1), (1, 0)}


def test_enumerate_argmax_threshold():
    with pytest.raises(ValueError):
        enumerate_argmax(np.zeros((8, 8)), ones_cost(8))


def _kernel_cases(n, rng):
    """(costs, flat queue list) pairs: forced ties from unit and checker(1, 2)
    costs on integer grids 0..3, random non-integral costs, and decimal costs
    on 0/1 grids, whose sums often agree in the reals but round differently
    in another order."""
    checker = np.array([[1.0 + (i + j) % 2 for j in range(n)] for i in range(n)])
    draws = [
        (lambda: np.ones((n, n)), 4),
        (lambda: checker, 4),
        (lambda: rng.uniform(0.5, 2.0, (n, n)), 4),
        (lambda: rng.uniform(0.1, 10.0, (n, n)), 4),
        (lambda: rng.choice([0.1, 0.2, 0.3, 0.7], (n, n)), 2),
    ]
    reps = {7: 40, 8: 12}.get(n, 200)
    for draw, q_high in draws:
        yield draw(), [0] * (n * n)
        for _ in range(reps):
            yield draw(), rng.integers(0, q_high, n * n).tolist()


@pytest.mark.parametrize("n", range(2, 9))
def test_gather_kernel_matches_loop(n):
    # n = 8 is the first n at which numpy's pairwise summation would reorder a
    # row-contiguous sum; argmax_kernel takes it although run serves it by
    # Hungarian, so a raised EXACT_MAX_N stays covered.
    rng = np.random.default_rng(40 + n)
    table = perm_table(n)
    seen_ties = 0
    for c, q in _kernel_cases(n, rng):
        cost = CostMatrix(c)
        ref = _loop_kernel(cost.flat.tolist(), table.pidx)(q)
        assert _gather_kernel(cost.flat, table.cols)(q).tolist() == ref
        assert list(argmax_kernel(cost)(q)) == ref
        seen_ties += len(ref) > 1
    assert seen_ties > 10


@pytest.mark.parametrize("n", [2, 3, 5])
def test_exact_schedules_are_built_once_per_n(monkeypatch, rng, n):
    # The exact paths hand out the permutation table's own Schedule objects:
    # once the table exists, no call builds or re-checks a Schedule.
    table = perm_table(n)
    monkeypatch.setattr(Schedule, "__post_init__", lambda self: pytest.fail("Schedule built"))
    c = ones_cost(n)
    Q = np.zeros((n, n), dtype=int)
    s = max_weight_schedule(Q, c, rng)
    assert any(s is t for t in table.schedules)
    ties = enumerate_argmax(Q, c)
    assert len(ties) == len(table.perms) and all(a is b for a, b in zip(ties, table.schedules))
    assert all(a is b for a, b in zip(all_schedules(n), table.schedules))
    assert [t.perm for t in table.schedules] == list(table.perms)


def test_tie_breaking_uniform(rng):
    c = ones_cost(2)
    Q = np.zeros((2, 2), dtype=int)
    counts = {(0, 1): 0, (1, 0): 0}
    for _ in range(4000):
        counts[max_weight_schedule(Q, c, rng).perm] += 1
    assert chisquare(list(counts.values())).pvalue > 1e-4


def test_hungarian_matches_enumeration(rng):
    for _ in range(200):
        n = int(rng.integers(2, 8))
        c = CostMatrix(rng.uniform(0.1, 10.0, (n, n)))
        Q = rng.integers(0, 10, (n, n))
        s = hungarian_schedule(Q, c, rng)
        assert sorted(s.perm) == list(range(n))
        best = enumerate_argmax(Q, c)[0]
        assert schedule_weight(s, Q, c) == schedule_weight(best, Q, c)
        s2 = max_weight_schedule(Q, c, rng)
        assert schedule_weight(s2, Q, c) == schedule_weight(best, Q, c)


def test_auto_mode_switches_to_hungarian(rng):
    assert matcher_mode(7) == "exact-enumeration"
    assert matcher_mode(8) == "hungarian"
    Q = rng.integers(0, 10, (8, 8))
    c = CostMatrix(rng.uniform(0.5, 2.0, (8, 8)))
    s = max_weight_schedule(Q, c, rng)
    best = perm_table(8).perms[argmax_kernel(c)(Q.ravel().tolist())[0]]
    assert schedule_weight(s, Q, c) == schedule_weight(Schedule(best), Q, c)


def test_bumping_scheduled_queue_never_lowers_optimum(rng):
    for _ in range(100):
        n = int(rng.integers(2, 6))
        c = CostMatrix(rng.uniform(0.1, 5.0, (n, n)))
        Q = rng.integers(0, 10, (n, n))
        best = enumerate_argmax(Q, c)[0]
        w0 = schedule_weight(best, Q, c)
        i = int(rng.integers(n))
        Q2 = Q.copy()
        Q2[i, best.perm[i]] += int(rng.integers(1, 5))
        w1 = schedule_weight(enumerate_argmax(Q2, c)[0], Q2, c)
        assert w1 >= w0
