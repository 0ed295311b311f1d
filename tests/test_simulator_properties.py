"""Property tests of ``simulator.run``: the array reductions it relies on to
give the bits of the sequential loops they replace, and the invariants of
every slot it records."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from switchlab import simulator
from switchlab.scheduling import EXACT_MAX_N
from switchlab.simulator import QueueState, RunConfig, derive_rngs, step
from switchlab.traffic import ArrivalModel, uniform_nu
from switchlab.wlinalg import CostMatrix
from conftest import recorded_run


@st.composite
def costs_and_queues(draw):
    n2 = draw(st.integers(2, 9)) ** 2
    c = draw(arrays(np.float64, n2, elements=st.floats(0.1, 10.0)))
    rows = draw(st.integers(1, 6))
    Q = draw(arrays(np.int64, (rows, n2), elements=st.integers(0, 10**6)))
    return c, Q


@settings(max_examples=200, deadline=None)
@given(costs_and_queues())
def test_rowwise_accumulate_is_the_weighted_sum_loop(case):
    c, Q = case
    got = np.add.accumulate(c * Q, axis=1)[:, -1]
    want = [simulator._weighted_sum(c.tolist(), q) for q in Q.tolist()]
    assert got.tolist() == want


def _batch_means_loop(size: int, values: list[float]):
    """The per-slot reference: one add per value, a mean per full batch."""
    cur, fill, means = 0.0, 0, []
    for v in values:
        cur += v
        fill += 1
        if fill == size:
            means.append(cur / size)
            cur, fill = 0.0, 0
    return means, cur, fill


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40),
    st.lists(st.floats(0.0, 1e6), max_size=300),
    st.lists(st.integers(0, 300), max_size=12),
)
def test_batch_extend_is_split_invariant(size, values, cuts):
    acc = simulator._BatchAcc(size)
    edges = [0, *sorted(min(c, len(values)) for c in cuts), len(values)]
    for lo, hi in zip(edges, edges[1:]):
        acc.extend(np.array(values[lo:hi]))
    assert (acc.means, acc.cur, acc.fill) == _batch_means_loop(size, values)


@st.composite
def short_runs(draw):
    """A short recorded run: n on both sides of EXACT_MAX_N, each law, random
    or checker costs, a load in [0.05, 0.5]."""
    n = draw(st.sampled_from([2, 3, 5, 8]))
    if draw(st.booleans()):
        c = draw(arrays(np.float64, (n, n), elements=st.floats(0.1, 10.0)))
    else:
        c = np.where(np.add.outer(range(n), range(n)) % 2, 2.0, 1.0)
    kind, a_max = draw(st.sampled_from([("bernoulli", 1), ("uniform-integer", 2),
                                        ("uniform-integer", 4), ("truncated-poisson", 3)]))
    model = ArrivalModel(kind=kind, nu=uniform_nu(n), epsilon=draw(st.floats(0.05, 0.5)),
                         a_max=a_max)
    return RunConfig(c=CostMatrix(c), model=model, measured=120, warmup=draw(st.integers(0, 60)),
                     ssc_stride=50, seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None)
@given(short_runs())
def test_recorded_slots_keep_the_update_invariants(cfg):
    assert EXACT_MAX_N < 8  # n = 8 runs the Hungarian engine
    stats, rec = recorded_run(cfg)
    assert stats.conservation_ok
    assert stats.qu_dot_violation == 0.0
    A, S, U = rec.A, rec.S, rec.U
    assert ((S == 0) | (S == 1)).all()
    assert (S.sum(axis=1) == 1).all() and (S.sum(axis=2) == 1).all()
    assert ((U == 0) | (U == 1)).all() and (U <= S).all()
    Q = np.cumsum(A - S + U, axis=0)  # Q(t+1), from empty queues
    assert Q.min() >= 0
    assert not (Q * U).any()  # <Q(t+1), U(t)> = 0 with positive costs

    # step samples the arrivals from the same streams and must rebuild
    # every record.
    arrival_rng, tiebreak_rng = derive_rngs(cfg.seed, cfg.stream_key)
    state = QueueState.empty(cfg.c.n)
    for t in rec.t:
        state, got = step(state, cfg.model, cfg.c, arrival_rng, tiebreak_rng)
        assert np.array_equal(got.A, A[t]) and np.array_equal(got.S, S[t])
        assert np.array_equal(got.U, U[t]) and np.array_equal(state.Q, Q[t])
        assert got.weighted_qsum == rec.weighted_qsum[t]
