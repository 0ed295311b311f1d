"""Property tests of the array reductions ``simulator.run`` relies on to give
the bits of the sequential loops they replace."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from switchlab import simulator


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
