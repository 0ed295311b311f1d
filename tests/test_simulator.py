from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest

from switchlab import cli, simulator
from switchlab.scheduling import (
    Schedule, argmax_kernel, break_tie, enumerate_argmax, matcher_mode, perm_table,
)
from switchlab.simulator import (
    QueueState,
    RunConfig,
    SlotRecord,
    default_warmup,
    derive_rngs,
    drift_diagnostics,
    run,
    step,
)
from switchlab.traffic import ArrivalModel, uniform_nu
from switchlab.wlinalg import CostMatrix, cdot, project_cone
from conftest import exact_n2_mean, recorded_run


def ones_cost(n=2):
    return CostMatrix(np.ones((n, n)))


def bernoulli(eps, n=2):
    return ArrivalModel.bernoulli(uniform_nu(n), eps)


def checker(n):
    return CostMatrix([[1.0 + (i + j) % 2 for j in range(n)] for i in range(n)])


def decimal_cost(n, seed=5):
    # Entries 0.1, 0.2 and 0.3 have no exact binary form, so whether two
    # schedules' weights tie depends on the order their terms are added in.
    return CostMatrix(np.random.default_rng(seed).choice([0.1, 0.2, 0.3], (n, n)))


def small_cfg(**kw):
    base = dict(
        c=ones_cost(),
        model=bernoulli(0.3),
        measured=20_000,
        warmup=2_000,
        seed=3,
        ssc_stride=50,
    )
    base.update(kw)
    return RunConfig(**base)


# -------- single-slot dynamics --------

def test_step_empty_queue_all_service_unused():
    c = ones_cost()
    model = bernoulli(0.5)
    a_rng, t_rng = derive_rngs(0)
    state = QueueState.empty(2)
    nxt, rec = step(state, model, c, a_rng, t_rng,
                    arrivals=np.zeros((2, 2), dtype=int))
    assert (nxt.Q == 0).all()
    assert (rec.U == rec.S).all()
    assert nxt.t == 1


def test_step_partial_unused_service():
    c = ones_cost()
    model = bernoulli(0.5)
    a_rng, t_rng = derive_rngs(0)
    state = QueueState(Q=np.array([[1, 0], [0, 0]]))
    nxt, rec = step(state, model, c, a_rng, t_rng,
                    schedule=Schedule((0, 1)),
                    arrivals=np.zeros((2, 2), dtype=int))
    assert rec.U.tolist() == [[0, 0], [0, 1]]
    assert (nxt.Q == 0).all()


def test_step_same_slot_arrivals_are_servable():
    c = ones_cost()
    model = bernoulli(0.5)
    a_rng, t_rng = derive_rngs(0)
    state = QueueState.empty(2)
    nxt, rec = step(state, model, c, a_rng, t_rng,
                    schedule=Schedule((0, 1)),
                    arrivals=np.eye(2, dtype=int))
    assert (rec.U == 0).all()
    assert (nxt.Q == 0).all()


@pytest.mark.parametrize("override, match", [
    (dict(arrivals=[[-5, 0], [0, 0]]), "nonnegative"),
    (dict(arrivals=np.zeros((2, 3), dtype=int)), "shape"),
    (dict(arrivals=[[0.7, 0], [0, 0]]), "integers"),
    (dict(schedule=Schedule((0,))), "ports"),
], ids=["negative-arrivals", "arrivals-shape", "fractional-arrivals", "schedule-size"])
def test_step_refuses_an_override_that_does_not_fit(override, match):
    # Each of these was once taken as is: a negative queue (the successor
    # skips validation), arrivals read in the wrong layout, 0.7 truncated
    # to 0, one queue served at n = 2.
    a_rng, t_rng = derive_rngs(0)
    with pytest.raises(ValueError, match=match):
        step(QueueState.empty(2), bernoulli(0.5), ones_cost(), a_rng, t_rng, **override)


def test_step_takes_integral_arrivals_of_any_numeric_type():
    a_rng, t_rng = derive_rngs(0)
    for arrivals in ([[1, 0], [2, 0]], np.array([[1.0, 0.0], [2.0, 0.0]]),
                     np.array([[1, 0], [2, 0]], dtype=np.uint8)):
        nxt, rec = step(QueueState.empty(2), bernoulli(0.5), ones_cost(), a_rng, t_rng,
                        schedule=Schedule((0, 1)), arrivals=arrivals)
        assert rec.A.dtype == np.int64 and rec.A.tolist() == [[1, 0], [2, 0]]
        assert nxt.Q.tolist() == [[0, 0], [2, 0]]


def test_step_random_slots_keep_invariants(rng):
    c = CostMatrix([[1.0, 2.0], [2.0, 1.0]])
    model = bernoulli(0.2)
    a_rng, t_rng = derive_rngs(9)
    state = QueueState.empty(2)
    for _ in range(2000):
        nxt, rec = step(state, model, c, a_rng, t_rng)
        assert (nxt.Q >= 0).all()
        assert set(np.unique(rec.U)) <= {0, 1}
        assert (rec.U <= rec.S).all()
        assert cdot(nxt.Q, rec.U, c) == 0.0
        assert (nxt.Q == state.Q + rec.A - rec.S + rec.U).all()
        state = nxt


# -------- full runs --------

def test_run_slot_records_and_conservation():
    stats, rec = recorded_run(small_cfg(measured=5_000, warmup=500, ssc_stride=10))
    assert stats.conservation_ok
    assert stats.qu_dot_violation == 0.0
    assert (rec.Q >= 0).all()
    assert (rec.U <= rec.S).all()
    assert not (rec.Q * rec.U).any()
    T = stats.warmup_slots + stats.measured_slots
    assert rec.t.tolist() == list(range(T))
    for grid in (rec.A, rec.S, rec.U, rec.Q):
        assert grid.dtype == np.int64 and grid.shape == (T, 2, 2)
    assert rec.weighted_qsum.dtype == np.float64 and rec.weighted_qsum.shape == (T,)


def test_run_reproducible():
    a = run(small_cfg())
    b = run(small_cfg())
    assert a.mean_weighted_qsum == b.mean_weighted_qsum
    assert a.unused_service_rate == b.unused_service_rate
    assert np.array_equal(a.perp_samples, b.perp_samples)
    c = run(small_cfg(seed=4))
    assert c.mean_weighted_qsum != a.mean_weighted_qsum


def test_run_unused_service_identity():
    stats = run(small_cfg(model=bernoulli(0.5), measured=200_000, warmup=10_000))
    assert abs(stats.unused_service_rate - 2 * 0.5) <= 3 * stats.stderr_unused_service


def test_run_departure_rates_match_arrival_rates():
    model = bernoulli(0.2)
    stats = run(small_cfg(model=model, measured=200_000, warmup=10_000))
    se = np.sqrt(model.mean * (1 - model.mean) / stats.measured_slots)
    assert np.all(np.abs(stats.departure_rate - model.mean) <= 5 * se + 1e-3)


def test_run_queue_scaling_with_epsilon():
    big = run(small_cfg(model=bernoulli(0.1), measured=400_000, warmup=50_000, seed=21))
    small = run(small_cfg(model=bernoulli(0.05), measured=800_000, warmup=100_000, seed=22))
    ratio = small.mean_weighted_qsum / big.mean_weighted_qsum
    assert 1.6 <= ratio <= 2.6


def test_run_measured_trimmed_to_batches():
    stats = run(small_cfg(measured=20_011))
    assert stats.measured_slots == (20_011 // 30) * 30
    assert stats.stderr_weighted_qsum > 0


@pytest.mark.parametrize("n", [2, 8], ids=["exact", "hungarian"])
def test_run_releases_each_arrival_block_before_sampling_the_next(monkeypatch, n):
    # Arrivals are sampled one chunk at a time: no draw may ask for more rows
    # than a chunk holds, and a run holds one chunk's arrivals, so every
    # draw fills the same three buffers of one chunk's rows.  The test keeps
    # each buffer it is handed alive, so buffers allocated per chunk could
    # not share an address and would show as distinct arrays.
    monkeypatch.setattr(simulator, "_CHUNK", 64 * n * n)
    sample_into = ArrivalModel._sample_into
    counts, buffers = [], []

    def tracked(self, rng, u, narrow, A):
        counts.append(len(A))
        buffers.append([x if x.base is None else x.base for x in (u, narrow, A)])
        sample_into(self, rng, u, narrow, A)

    monkeypatch.setattr(ArrivalModel, "_sample_into", tracked)
    run(small_cfg(c=ones_cost(n), model=bernoulli(0.3, n), measured=300, warmup=100))
    assert counts == [64] * 6 + [16]  # _CHUNK // n^2 rows a draw, then the rest
    first = buffers[0]
    assert [len(x) for x in first] == [64] * 3
    assert all(all(x is y for x, y in zip(bufs, first)) for bufs in buffers)


@pytest.mark.parametrize(
    "n, stride",
    [(2, 13), (5, 13), (8, 13), (2, 131), (5, 131), (8, 131), (2, 1), (5, 1)],
    ids=["n2-faces", "n5-nnls", "n8-hungarian",
         "n2-faces-stride131", "n5-nnls-stride131", "n8-hungarian-stride131",
         "n2-faces-stride1", "n5-nnls-stride1"],
)
def test_run_ssc_samples_match_single_grid_projections(monkeypatch, n, stride):
    # The sampled states of each chunk are projected and normed as stacks.
    # Chunks of 96 slots hold seven or eight samples at stride 13, one or
    # none at stride 131 and all 96 at stride 1.  Every sample must equal the
    # projection of the recorded Q(t) and Q(t+1) on its own, normed by
    # np.vdot one grid at a time.
    monkeypatch.setattr(simulator, "_CHUNK", 96 * n * n)
    c = CostMatrix(np.random.default_rng(n).uniform(0.5, 2.0, (n, n))) if n > 2 else ones_cost()
    stats, rec = recorded_run(small_cfg(c=c, model=bernoulli(0.1, n), measured=1_500,
                                        warmup=300, ssc_stride=stride))
    Q_next = rec.Q
    Q = np.concatenate((np.zeros((1, n, n), dtype=np.int64), Q_next[:-1]))
    wnorm = lambda v: math.sqrt(float(np.vdot(v, c.c * v)))
    perp, par, drift = [], [], []
    for t in range(stats.warmup_slots, len(rec.t), stride):
        before = project_cone(Q[t].astype(float), c)
        after = project_cone(Q_next[t].astype(float), c)
        perp.append(wnorm(before.perp))
        par.append(wnorm(before.parallel))
        drift.append(wnorm(after.perp) - perp[-1])
    assert len(perp) == -(-1_500 // stride)
    assert stats.perp_samples.tolist() == perp
    assert stats.par_samples.tolist() == par
    assert stats.drift_samples.tolist() == drift


@pytest.mark.parametrize("n", [2, 5, 6, 8],
                         ids=["n2-generated", "n5-generated", "n6-enumeration", "n8-hungarian"])
def test_recorded_queues_are_the_update_from_empty_queues(monkeypatch, n):
    # Each engine's own Q(t+1) reaches the records; summing A - S + U from
    # empty queues, across chunk edges, must give it back.
    monkeypatch.setattr(simulator, "_CHUNK", 96 * n * n)
    _, rec = recorded_run(small_cfg(c=checker(n), model=bernoulli(0.1, n), measured=1_500,
                                    warmup=300))
    assert rec.Q.dtype == np.int64 and rec.Q.shape == rec.A.shape
    assert np.array_equal(rec.Q, np.cumsum(rec.A - rec.S + rec.U, axis=0))


def _counted_uniform(seed):
    """A uniform() of the tiebreak law, and the list of the values it drew."""
    rng, drawn = np.random.default_rng(seed), []

    def uniform():
        drawn.append(rng.random())
        return drawn[-1]

    return uniform, drawn


@pytest.mark.parametrize("n", [3, 4, 5])
def test_generated_slot_kernel_makes_the_argmax_kernel_choices(n):
    # Costs 0.1/0.2/0.3 make ties hinge on the order of the additions.  Each
    # slot of the generated loop must choose what break_tie(argmax_kernel)
    # chooses from the same Q(t), and draw the same uniforms: over a warm
    # trajectory from a random state, and one slot each from small random
    # states and from empty queues, where every schedule ties.  Each slot's
    # unused-service events must be _serve's list, and the queues the loop
    # writes back the replayed ones.
    cost, n2 = decimal_cost(n), n * n
    rng = np.random.default_rng(60 + n)
    rows = bernoulli(0.1, n).sample_block(rng, 2_000).tolist()
    kernel = partial(simulator._slot_kernel(n), cost._flat_tuple)
    uniform, drawn = _counted_uniform(n)
    calls = []  # (Q at the start, arrival rows, positions, events, Q written back)
    q = rng.integers(0, 30, n2).tolist()
    start = q.copy()
    calls.append((start, rows[:1_000], *kernel(q, uniform, rows[:1_000]), q))
    for a in rows[1_000:]:
        for q in (rng.integers(0, 3, n2).tolist(), [0] * n2):
            start = q.copy()
            calls.append((start, [a], *kernel(q, uniform, [a]), q))

    ref_uniform, ref_drawn = _counted_uniform(n)
    ties_of, pidx, sizes, events = argmax_kernel(cost), perm_table(n).pidx, set(), 0
    for q, arrivals, ps, us, q_end in calls:
        assert isinstance(ps, bytearray) and len(ps) == len(arrivals)
        want_us = []
        for t, (a, p) in enumerate(zip(arrivals, ps)):
            ties = ties_of(q)
            sizes.add(len(ties))
            assert p == break_tie(ties, ref_uniform)
            want_us += [t * n2 + k for k in simulator._serve(q, a, pidx[p])]
        assert us == want_us
        assert q == q_end
        events += len(us)
    assert drawn == ref_drawn
    assert {1, len(pidx)} < sizes  # unique maximisers, full ties and partial ties
    assert events > 100


def _assert_same_stats(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        elif isinstance(b, float) and np.isnan(b):
            assert np.isnan(a), f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize(
    "cost, model",
    [
        (ones_cost(), bernoulli(0.1)),
        (decimal_cost(4), bernoulli(0.1, 4)),
        (checker(5), bernoulli(0.1, 5)),
        (checker(6), bernoulli(0.1, 6)),
        (CostMatrix(np.random.default_rng(8).uniform(0.5, 2.0, (8, 8))), bernoulli(0.2, 8)),
        (checker(3), ArrivalModel.uniform_integer(uniform_nu(3), 0.1, a_max=3)),
    ],
    ids=["n2-exact", "n4-exact", "n5-generated", "n6-enumeration", "n8-hungarian",
         "n3-uniform-integer"],
)
@pytest.mark.parametrize("rows", [1, 7])
def test_run_chunk_edges_change_no_output(monkeypatch, cost, model, rows):
    # Each chunk is sampled, advanced and reduced on its own.  Chunks of 96
    # against chunks of 1 and 7 slots put the edges mid-batch (batches of
    # 50), at and across the warmup edge (250) and in different places of
    # the arrival stream; no output may move.  At n <= 5 this also checks
    # that the generated slot kernel writes its local queues back into the
    # engine's state and continues the tiebreak stream across chunks.
    monkeypatch.setattr(simulator, "_CHUNK", 96 * cost.n**2)
    cfg = RunConfig(c=cost, model=model, measured=1_500, warmup=250, ssc_stride=13,
                    seed=7, stream_key=(1,))
    want, want_rec = recorded_run(cfg)
    monkeypatch.setattr(simulator, "_CHUNK", rows * cost.n**2)
    got, got_rec = recorded_run(cfg)
    assert model.kind == "bernoulli" or want_rec.A.max() > 1
    _assert_same_stats(got, want)
    _assert_same_stats(got_rec, want_rec)


@pytest.mark.parametrize("cost", [ones_cost(), checker(6)], ids=["n2-generated", "n6-enumeration"])
def test_tie_block_size_changes_no_output(monkeypatch, cost):
    # The exact engine takes its tie-break uniforms in blocks of _TIE_BLOCK;
    # rng.random(N) is N single draws, so any block size gives the same run.
    uniforms, drawn = simulator._uniforms, []

    def counted(rng):
        for u in uniforms(rng):
            drawn.append(u)
            yield u

    monkeypatch.setattr(simulator, "_uniforms", counted)
    cfg = RunConfig(c=cost, model=bernoulli(0.5, cost.n), measured=3_000, warmup=100,
                    ssc_stride=10, seed=4)
    runs = []
    for block in (1, 7, 65536):
        monkeypatch.setattr(simulator, "_TIE_BLOCK", block)
        drawn.clear()
        runs.append(recorded_run(cfg))
        assert len(drawn) > 500  # a tie-heavy run
    for stats, rec in runs[1:]:
        _assert_same_stats(stats, runs[0][0])
        _assert_same_stats(rec, runs[0][1])


@pytest.mark.parametrize("n", [2, 16, 32])
def test_weighted_sums_are_the_loop_on_both_branches(n):
    # From 2 n^2 rows on _weighted_sums adds the columns one at a time; below
    # it accumulates along each row, in place.  Both are _weighted_sum's
    # row-order loop bit for bit, written into the given output.
    rng = np.random.default_rng(n)
    c = rng.uniform(0.1, 10.0, n * n)
    Q = rng.integers(0, 10**6, (2 * n * n, n * n))
    want = [simulator._weighted_sum(c.tolist(), q) for q in Q.tolist()]
    for rows in (len(Q), len(Q) - 1, 1):  # columns, accumulate, accumulate
        out = np.full(rows + 1, np.nan)
        got = simulator._weighted_sums(c * Q[:rows], out[:rows])
        assert np.shares_memory(got, out)
        assert got.tolist() == want[:rows] and np.isnan(out[rows])


def _hand_chunk():
    # n = 2 from empty queues; flat indices 0..3, schedules (0, 3) and (1, 2).
    A = np.array([[1, 0, 0, 1], [0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 1, 0]])
    served = np.array([[0, 3], [1, 2], [1, 2], [0, 3]])
    Qn = np.array([[0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0], [1, 0, 1, 0]])
    return A, Qn, served


def _reduction():
    return simulator._Reduction(ones_cost(), warmup=0, batch=2, ssc_stride=3, record=None, rows=4)


def _trajectory(Qn, q0=(0, 0, 0, 0)):
    """Q(t) of the first slot, then the queues after each slot."""
    return np.concatenate(([q0], Qn))


def test_reduce_chunk_reads_unused_service_off_the_trajectory():
    A, Qn, served = _hand_chunk()
    red = _reduction()
    red.ssc[:] = np.nan  # to tell the samples written apart
    traj = _trajectory(Qn)
    given = [x.copy() for x in (A, traj, served)]
    simulator._reduce_chunk(red, A, traj, served)
    assert red.conservation_ok
    assert red.qu_violation == 0.0
    assert red.unused.tolist() == [0, 1, 2, 1]  # empty at slots 1 (2), 2 (1, 2), 3 (3)
    assert red.served.tolist() == [2, 2, 2, 2]
    assert red.u_acc.means == [0.5, 1.5]
    assert red.w_acc.means == [0.0, 2.0]
    assert red.t == 4
    assert all(np.array_equal(x, y) for x, y in zip((A, traj, served), given))  # only read
    # Slots 0 and 3 are sampled: the first two of the 60 / 3 samples.
    assert red.ssc.shape == (3, 20)
    assert not np.isnan(red.ssc[:, :2]).any() and np.isnan(red.ssc[:, 2:]).all()


@pytest.mark.parametrize("fault", ["plus-one", "negative", "negative-and-consistent",
                                   "unserved-entry", "served-entry-sends-two"])
def test_reduce_chunk_detects_a_wrong_update(fault):
    A, Qn, served = _hand_chunk()
    red, q0 = _reduction(), (0, 0, 0, 0)
    if fault == "plus-one":
        Qn[3, 0] += 1
    elif fault == "negative":
        Qn[1, 3] = -1
    elif fault == "unserved-entry":
        # Queue 1 is not served at the last slot and every served entry is
        # right: only the count of nonzero differences can see it.
        Qn[3, 1] += 1
    elif fault == "served-entry-sends-two":
        # Queue 0, served at the last slot, loses two packets: the count of
        # nonzero differences is right, so only the served entries see it.
        Qn[3, 0] -= 1
    else:
        # Q(t) + A(t) - S(t) + U(t) holds on every slot; only the sign fails.
        q0 = (0, -1, 0, 0)
        A, Qn, served = A[:1], np.array([[0, -1, 0, 0]]), served[:1]
    simulator._reduce_chunk(red, A, _trajectory(Qn, q0), served)
    assert not red.conservation_ok


@pytest.mark.parametrize("n", [2, 5], ids=["n2-generated", "n5-generated"])
@pytest.mark.parametrize("fault", [None, "drop-event", "spurious-event", "bump-queue"])
def test_run_detects_a_faulty_exact_slot_loop(monkeypatch, n, fault):
    # The exact engine rebuilds Q(t+1) from what its loop recorded and puts
    # the loop's own queues in a chunk's last row, so the update check must
    # catch a lost or a spurious unused-service event and a queue the loop
    # writes back wrong.  The fault goes into the first chunk, which starts
    # from empty queues, so its first slots have events.
    injected = []

    def inject(q, decided):
        ps, us = decided
        if fault and not injected:
            injected.append(fault)
            if fault == "drop-event":
                del us[0]
            elif fault == "spurious-event":
                us.insert(0, next(k for k in range(n * n) if k not in us))
            else:
                q[0] += 1
        return ps, us

    kernel = simulator._slot_kernel(n)
    monkeypatch.setattr(simulator, "_slot_kernel", lambda n: (
        lambda c, q, uniform, rows: inject(q, kernel(c, q, uniform, rows))))
    stats = run(RunConfig(c=checker(n), model=bernoulli(0.1, n), measured=600, warmup=0,
                          ssc_stride=100, seed=5))
    assert stats.conservation_ok is (fault is None)
    assert injected == ([fault] if fault else [])


@pytest.mark.parametrize("n", [6, 8], ids=["n6", "n8"])
@pytest.mark.parametrize("fault", [None, "served-twice", "lost-arrivals", "no-guard"])
def test_run_detects_a_faulty_array_slot_loop(monkeypatch, n, fault):
    # The array engine (exact enumeration at n = 6, the Hungarian rule at
    # n = 8) serves each slot in place in the trajectory that _reduce_chunk
    # checks.  The wrapped update runs slot by slot until the fault can
    # happen, puts it into that slot's Q(t+1) once, and goes on from there:
    # a served queue sends two packets, an unserved queue's arrivals are
    # lost, or an empty served queue is served without the max(., 0) guard.
    injected = []
    engine = simulator._array_engine

    def fault_at(q0, a, q1, idxs):
        """Inject the fault into Q(t+1) ``q1`` if this slot allows it."""
        if fault == "served-twice":
            ks = [k for k in idxs if q1[k] >= 1]
        elif fault == "lost-arrivals":
            ks = [k for k in np.flatnonzero(a) if k not in idxs]
        else:
            ks = [k for k in idxs if q0[k] + a[k] == 0]
        if ks:
            q1[ks[0]] -= {"served-twice": 1, "lost-arrivals": a[ks[0]], "no-guard": 1}[fault]
            injected.append(fault)

    def faulty_engine(cost, tiebreak_rng, mode):
        advance = engine(cost, tiebreak_rng, mode)

        def faulty(A, counts, traj, served):
            r = 0
            while fault and not injected and r < len(A):
                advance(A[r:r + 1], counts[r:r + 1], traj[r:r + 2], served[r:r + 1])
                fault_at(traj[r], A[r], traj[r + 1], served[r])
                r += 1
            advance(A[r:], counts[r:], traj[r:], served[r:])

        return faulty

    monkeypatch.setattr(simulator, "_array_engine", faulty_engine)
    stats = run(RunConfig(c=checker(n), model=bernoulli(0.1, n), measured=600, warmup=0,
                          ssc_stride=100, seed=5))
    assert stats.matcher_mode == matcher_mode(n)
    assert stats.conservation_ok is (fault is None)
    assert injected == ([fault] if fault else [])


@pytest.mark.parametrize(
    "cost, model",
    [
        (ones_cost(), bernoulli(0.1)),
        (checker(3), bernoulli(0.1, 3)),
        (decimal_cost(4), bernoulli(0.1, 4)),
        (checker(5), ArrivalModel.uniform_integer(uniform_nu(5), 0.1, a_max=2)),
    ],
    ids=["n2", "n3", "n4", "n5"],
)
def test_array_engine_matches_the_generated_loop(monkeypatch, cost, model):
    # Below _GENERATED_MAX_N the generated slot loop serves exact
    # enumeration; with the limit patched below n the array engine serves
    # it, with the argmax kernel, break_tie and the same tiebreak stream.
    # Both must give the same run, every statistic and slot record bit for
    # bit, over runs that break many ties (one uniform each), across chunks.
    uniforms, drawn = simulator._uniforms, []

    def counted(rng):
        for u in uniforms(rng):
            drawn.append(u)
            yield u

    engines, array_engine = [], simulator._array_engine
    monkeypatch.setattr(simulator, "_array_engine",
                        lambda *args: engines.append(args[2]) or array_engine(*args))
    monkeypatch.setattr(simulator, "_uniforms", counted)
    monkeypatch.setattr(simulator, "_CHUNK", 300 * cost.n**2)
    cfg = RunConfig(c=cost, model=model, measured=1_500, warmup=250, ssc_stride=13,
                    seed=11, stream_key=(3,))
    want, want_rec = recorded_run(cfg)
    want_drawn = drawn.copy()
    drawn.clear()
    assert engines == []
    monkeypatch.setattr(simulator, "_GENERATED_MAX_N", cost.n - 1)
    got, got_rec = recorded_run(cfg)
    assert engines == ["exact-enumeration"]
    assert len(want_drawn) > 100 and drawn == want_drawn
    assert model.kind == "bernoulli" or want_rec.A.max() > 1
    _assert_same_stats(got, want)
    _assert_same_stats(got_rec, want_rec)


def _traced_peaks(go, sizes):
    """``go(size)`` for each of ``sizes``, and the peak memory tracemalloc saw
    while each ran.  An untraced ``go(sizes[0])`` first builds what later runs
    reuse (the cost's projection systems, the generated slot loop), which
    would otherwise swell the first peak.  The tests run short runs at small
    chunks (256 queue entries, 64 slots at n = 2, unless a test says else),
    so they are quick under tracemalloc, while what a fault keeps per chunk
    still outgrows the peak of a run without it."""
    go(sizes[0])
    results, peaks = [], []
    for size in sizes:
        tracemalloc.start()
        try:
            results.append(go(size))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return results, peaks


@pytest.mark.parametrize("n", [2, 8], ids=["n2-faces", "n8-hungarian"])
def test_run_memory_does_not_grow_with_slots(monkeypatch, n):
    # Statistics are reduced per chunk: nothing the reduction keeps may pin a
    # chunk, its arrivals or its SSC stacks, so ten times the slots stay in
    # the same peak.
    monkeypatch.setattr(simulator, "_CHUNK", 256)
    cfg = small_cfg(c=ones_cost(n), model=bernoulli(0.2, n), warmup=100)
    _, peaks = _traced_peaks(lambda m: run(dataclasses.replace(cfg, measured=m)), (300, 3_000))
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("via", ["run", "simulate-trace"])
def test_recorded_memory_does_not_grow_with_slots(monkeypatch, tmp_path, n, via):
    # Slot records leave run one chunk at a time and run keeps none of them:
    # a recorded run, and simulate --trace writing each chunk as it comes,
    # peak the same at ten times the slots.  Sparse SSC samples keep their
    # arrays small beside the chunks.
    monkeypatch.setattr(simulator, "_CHUNK", 256)
    cfg = small_cfg(c=ones_cost(n), model=bernoulli(0.2, n), warmup=100, ssc_stride=1000,
                    record=lambda rec: None)
    path, trace = tmp_path / "cfg.json", str(tmp_path / "trace.csv")

    def go(measured):
        if via == "run":
            return run(dataclasses.replace(cfg, measured=measured))
        path.write_text(json.dumps({
            "n": n, "epsilon_grid": [0.2], "slots": measured, "warmup": 100, "seed": 3,
            "ssc_sampling_stride": 1000, "output_dir": str(tmp_path / "out")}))
        return cli.main(["simulate", "--config", str(path), "--trace", trace])

    _, peaks = _traced_peaks(go, (300, 3_000))
    assert peaks[1] <= 1.5 * peaks[0]


def _held_bytes(rec) -> int:
    """sys.getsizeof of a slot record, its attribute dict and every array it
    holds: each field's array and the arrays its views share memory with,
    each counted once.  A view's size is its header, an owner's its header
    and data, so the sum is the record's whole footprint at any chunk size."""
    arrays = {}
    for f in dataclasses.fields(rec):
        x = getattr(rec, f.name)
        while isinstance(x, np.ndarray):
            arrays[id(x)] = x
            x = x.base
    return sys.getsizeof(rec) + sys.getsizeof(vars(rec)) + sum(map(sys.getsizeof, arrays.values()))


@pytest.mark.parametrize("n", [2, 3])
def test_recorded_memory_is_the_record_arrays(monkeypatch, n):
    # A caller that keeps every chunk it is handed holds the whole run's
    # records; run's own peak may grow with the slots only by about the bytes
    # those records hold, so it copies none of them and keeps none of its own.
    monkeypatch.setattr(simulator, "_CHUNK", 256)
    cfg = small_cfg(c=ones_cost(n), model=bernoulli(0.2, n), warmup=100)

    def go(measured):
        chunks = []
        stats = run(dataclasses.replace(cfg, measured=measured, record=chunks.append))
        assert sum(len(c.t) for c in chunks) == stats.warmup_slots + stats.measured_slots
        return sum(map(_held_bytes, chunks))

    sizes, peaks = _traced_peaks(go, (600, 2_400))
    assert peaks[1] - peaks[0] <= 1.5 * (sizes[1] - sizes[0])


@pytest.mark.parametrize("n", [2, 8], ids=["exact", "hungarian"])
def test_recorded_weighted_qsum_owns_its_data(monkeypatch, n):
    # run reuses one working set for every chunk.  Each array of a chunk's
    # record must own its data: a view into the run's buffers would change
    # under a caller that keeps it as later chunks are written, and a view
    # into the (m, n^2) weighted products would keep n^2 times its own bytes
    # alive.  Every record must still hold, after the run, what it held when
    # it was handed over.
    monkeypatch.setattr(simulator, "_CHUNK", 64 * n * n)
    chunks, handed = [], []

    def keep(rec):
        chunks.append(rec)
        handed.append(copy.deepcopy(rec))

    run(small_cfg(c=ones_cost(n), model=bernoulli(0.2, n), measured=300, warmup=100,
                  record=keep))
    assert len(chunks) > 1
    for rec, want in zip(chunks, handed):
        for f in dataclasses.fields(SlotRecord):
            got = getattr(rec, f.name)
            assert got.base is None, f.name
            assert np.array_equal(got, getattr(want, f.name)), f.name


@pytest.mark.parametrize("n", [2, 3])
def test_ssc_sample_memory_is_the_sample_arrays(monkeypatch, n):
    # SSC samples go straight into float64 arrays allocated once: sampling
    # every slot, run's peak may grow with the slots by about the 24 bytes of
    # each sample's perp, par and drift values, and by no list or copy.
    monkeypatch.setattr(simulator, "_CHUNK", 256)
    cfg = small_cfg(c=ones_cost(n), model=bernoulli(0.2, n), warmup=100, ssc_stride=1)
    stats, peaks = _traced_peaks(lambda m: run(dataclasses.replace(cfg, measured=m)),
                                 (600, 2_400))
    assert [s.perp_samples.size for s in stats] == [s.measured_slots for s in stats]
    samples = [s.measured_slots for s in stats]
    assert peaks[1] - peaks[0] <= 1.5 * 24 * (samples[1] - samples[0])


def test_step_validates_only_states_built_by_callers():
    with pytest.raises(ValueError, match="nonnegative"):
        QueueState(Q=np.array([[0, -1], [0, 0]]))
    with pytest.raises(ValueError, match="square"):
        QueueState(Q=np.zeros((2, 3)))
    a_rng, t_rng = derive_rngs(0)
    state = QueueState(Q=np.array([[3, 0], [1, 2]], dtype=np.int32))
    nxt, rec = step(state, bernoulli(0.5), ones_cost(), a_rng, t_rng)
    assert state.Q.dtype == np.int64
    assert nxt.Q.dtype == np.int64 and nxt.Q.shape == (2, 2) and nxt.t == 1
    assert np.array_equal(nxt.Q, state.Q + rec.A - rec.S + rec.U)


def test_run_hungarian_mode_matches_dynamics():
    # n = 8 is the smallest switch served by Hungarian.  Its unused-service
    # stderr is about 0.03 at 5k slots, so 30k keep 0.05 near 4 stderr.
    stats = run(small_cfg(c=ones_cost(8), model=bernoulli(0.3, 8), measured=30_000, warmup=500))
    assert stats.matcher_mode == "hungarian"
    assert stats.conservation_ok
    assert abs(stats.unused_service_rate - 8 * 0.3) < 0.05


@pytest.mark.parametrize(
    "cost, model, arrivals",
    [
        (CostMatrix([[1.0, 2.0], [2.0, 1.0]]), bernoulli(0.1), "recorded"),
        (ones_cost(), bernoulli(0.1), "recorded"),
        (checker(4), bernoulli(0.1, 4), "recorded"),
        (decimal_cost(4), bernoulli(0.1, 4), "recorded"),
        (checker(5), bernoulli(0.1, 5), "recorded"),
        (decimal_cost(5), bernoulli(0.1, 5), "recorded"),
        (checker(6), bernoulli(0.1, 6), "recorded"),
        (checker(7), bernoulli(0.1, 7), "recorded"),
        (CostMatrix(np.random.default_rng(8).uniform(0.5, 2.0, (8, 8))), bernoulli(0.2, 8),
         "recorded"),
        (CostMatrix(np.random.default_rng(9).uniform(0.5, 2.0, (9, 9))),
         ArrivalModel.truncated_poisson(uniform_nu(9), 0.2, a_max=3), "recorded"),
        (CostMatrix(np.random.default_rng(9).uniform(0.5, 2.0, (9, 9))),
         ArrivalModel.truncated_poisson(uniform_nu(9), 0.2, a_max=2), None),
        # The shape of the benchmark's n = 16 sweep: 256-slot chunks of bulk
        # shuffles against step's one-slot draws.
        (CostMatrix(np.random.default_rng(7).uniform(0.5, 2.0, (16, 16))),
         ArrivalModel.truncated_poisson(uniform_nu(16), 0.05, a_max=4), None),
        (checker(3), ArrivalModel.uniform_integer(uniform_nu(3), 0.1, a_max=3), None),
    ],
    ids=["n2-exact", "n2-unit-exact", "n4-checker-exact", "n4-decimal-exact",
         "n5-checker-generated", "n5-decimal-generated", "n6-checker-enumeration",
         "n7-checker-enumeration", "n8-hungarian",
         "n9-hungarian-poisson", "n9-hungarian-poisson-sampled",
         "n16-hungarian-poisson-sampled",
         "n3-exact-uniform-integer-sampled"],
)
def test_step_replay_matches_run_bit_for_bit(cost, model, arrivals):
    # With arrivals=None, step samples each slot's arrivals itself from a
    # fresh copy of the run's arrival stream, one slot per call, while run
    # samples them a chunk at a time; the two must agree for every law.  At
    # a_max = 2 some untruncated Poisson draws land above the support, so a
    # sampler that redraws them would split the two streams.
    n = cost.n
    exact = matcher_mode(n) == "exact-enumeration"
    cfg = RunConfig(
        c=cost, model=model,
        measured=3_000, warmup=300, seed=31, stream_key=(2, 1),
    )
    stats, rec = recorded_run(cfg)
    a_rng, t_rng = derive_rngs(cfg.seed, cfg.stream_key)
    state = QueueState.empty(n)
    ties = 0
    for t in rec.t:
        if exact:
            ties += len(enumerate_argmax(state.Q, cost)) > 1
        replayed = rec.A[t] if arrivals == "recorded" else None
        state, got = step(state, cfg.model, cost, a_rng, t_rng, arrivals=replayed)
        assert got.t == t
        assert np.array_equal(got.A, rec.A[t]), f"arrivals differ at slot {t}"
        assert np.array_equal(got.S, rec.S[t]), f"schedule differs at slot {t}"
        assert np.array_equal(got.U, rec.U[t]), f"unused service differs at slot {t}"
        assert np.array_equal(got.Q, state.Q)
        assert np.array_equal(state.Q, rec.Q[t]), f"queues differ after slot {t}"
        assert got.weighted_qsum == rec.weighted_qsum[t], f"weighted sum differs at slot {t}"
        assert cdot(state.Q, got.U, cost) == 0.0
    assert not exact or ties > 100  # the exact cases exercise the tie-break
    # Multi-packet arrivals reach the slot update only through the
    # non-Bernoulli cases; each must see them.
    multi = int((rec.A.max(axis=(1, 2)) > 1).sum())
    assert model.kind == "bernoulli" or multi > 100


@pytest.mark.parametrize(
    "cost, model, measured, expected",
    [
        (ones_cost(), bernoulli(0.1), 30_000,
         (7.160333333333332, 0.2493265150582888, 0.19859999999999997,
          [[13526, 13639], [13481, 13396]],
          "b152ff167f81d569ddc0373f825ec7d82219267aed21bd4ecb0edb1fd5f55b07")),
        (CostMatrix(np.random.default_rng(3).uniform(0.5, 2.0, (3, 3))),
         ArrivalModel.truncated_poisson(uniform_nu(3), 0.1, a_max=3), 9000,
         (21.92863041581535, 1.6448143441438423, 0.30177777777777776,
          [[2603, 2755, 2670], [2712, 2712, 2718], [2704, 2726, 2684]],
          "f2c3a27518384e2fca840d9111b7216e78109126b22ef9f226dd588cfdd0751a")),
        (CostMatrix(np.random.default_rng(4).uniform(0.5, 2.0, (4, 4))),
         ArrivalModel.uniform_integer(uniform_nu(4), 0.1, a_max=2), 6000,
         (56.595170487849956, 2.7975869148572454, 0.38433333333333336,
          [[1370, 1345, 1352, 1377], [1345, 1367, 1395, 1338], [1300, 1390, 1398, 1390],
           [1341, 1378, 1313, 1295]],
          "86e11ed4a1ce845cabadb44ce99962baf51de8ed5938a50f7f0c3ff9720114dc")),
        (checker(5), bernoulli(0.1, 5), 3000,
         (43.80433333333333, 2.3295983415495023, 0.5, [
            [548, 556, 554, 546, 563], [562, 510, 546, 529, 563], [560, 553, 558, 508, 523],
            [545, 530, 490, 535, 550], [550, 536, 513, 521, 551]],
          "d354806b5b3fcad8770242ece6800e847a82f7d7264a5d582f015388c9f9ee21")),
        (checker(6), bernoulli(0.1, 6), 1500,
         (52.528000000000006, 2.4882123204670736, 0.5593333333333333, [
            [213, 229, 251, 242, 245, 210], [235, 204, 227, 224, 229, 214],
            [220, 242, 247, 228, 226, 226], [234, 248, 216, 213, 233, 215],
            [220, 215, 211, 222, 235, 249], [234, 209, 212, 218, 244, 221]],
          "37524ebf3ea5d7a274de258f69e21f9791d32b154835cbc4b05250ca308ab0dd")),
    ],
    ids=["n2-unit-bernoulli", "n3-random-poisson", "n4-random-uniform-integer", "n5", "n6"],
)
def test_exact_run_pinned(cost, model, measured, expected):
    # The n5 and n6 values were produced by the pure-Python enumeration loop,
    # the rest (and every sample hash) by the generic engine loop before the
    # generated slot kernels; the generated kernels (n <= 5) and the generic
    # loop with the numpy kernel (n = 6) must reproduce them bit for bit, SSC
    # samples included (sha256 of the perp, par and drift sample bytes).
    cfg = RunConfig(c=cost, model=model, measured=measured, warmup=300,
                    seed=17, stream_key=(0, 1))
    stats = run(cfg)
    mean, stderr, unused, departures, ssc_sha = expected
    assert stats.matcher_mode == "exact-enumeration"
    assert stats.mean_weighted_qsum == mean
    assert stats.stderr_weighted_qsum == stderr
    assert stats.unused_service_rate == unused
    assert np.array_equal(stats.departure_rate, np.array(departures) / measured)
    ssc = np.concatenate((stats.perp_samples, stats.par_samples, stats.drift_samples))
    assert hashlib.sha256(ssc.tobytes()).hexdigest() == ssc_sha


@pytest.mark.parametrize(
    "cost, model, measured, expected",
    [
        (ones_cost(8), bernoulli(0.1, 8), 3000,
         (58.13533333333334, 2.193092118937459, 0.7349999999999999, [
            [334, 333, 300, 354, 360, 346, 380, 345], [352, 334, 311, 343, 333, 346, 365, 365],
            [337, 361, 315, 346, 339, 351, 342, 343], [346, 370, 331, 344, 333, 325, 301, 330],
            [329, 326, 347, 356, 346, 344, 346, 298], [323, 341, 381, 381, 356, 332, 325, 334],
            [349, 344, 356, 300, 356, 339, 339, 358], [314, 360, 331, 339, 343, 348, 315, 324]])),
        (CostMatrix(np.random.default_rng(12).uniform(0.5, 2.0, (12, 12))),
         ArrivalModel.truncated_poisson(uniform_nu(12), 0.1, a_max=4), 1500,
         (107.33869924997114, 2.50214037858615, 1.1019999999999999, [
            [124, 100, 105, 125, 105, 114, 117, 100, 122, 148, 118, 127],
            [120, 120, 110, 112, 127, 115, 121, 105, 104, 96, 114, 137],
            [109, 110, 118, 121, 110, 99, 116, 115, 125, 109, 114, 133],
            [100, 117, 116, 103, 125, 103, 118, 131, 104, 112, 95, 120],
            [106, 131, 106, 107, 116, 134, 116, 103, 117, 121, 110, 98],
            [114, 113, 111, 99, 106, 117, 102, 114, 123, 113, 117, 131],
            [124, 111, 119, 128, 97, 113, 115, 125, 117, 115, 107, 102],
            [121, 110, 91, 98, 112, 107, 83, 131, 124, 104, 113, 113],
            [108, 118, 121, 119, 100, 124, 115, 111, 108, 115, 102, 117],
            [132, 114, 103, 117, 111, 100, 124, 93, 113, 125, 118, 103],
            [96, 116, 98, 112, 120, 114, 117, 98, 119, 125, 93, 103],
            [119, 124, 113, 113, 122, 121, 116, 138, 108, 120, 115, 102]])),
    ],
    ids=["n8-unit-bernoulli", "n12-random-poisson"],
)
def test_hungarian_run_pinned(cost, model, measured, expected):
    # Values produced by the list-state engine, which ran the Hungarian
    # solver on a Python queue list; the array slot update must reproduce
    # them bit for bit.  The truncated-Poisson case was re-pinned when
    # arrivals moved to one inverse-transform draw per queue-slot.
    cfg = RunConfig(c=cost, model=model, measured=measured, warmup=300,
                    seed=17, stream_key=(0, 1))
    stats = run(cfg)
    mean, stderr, unused, departures = expected
    assert stats.matcher_mode == "hungarian"
    assert stats.conservation_ok
    assert stats.mean_weighted_qsum == mean
    assert stats.stderr_weighted_qsum == stderr
    assert stats.unused_service_rate == unused
    assert np.array_equal(stats.departure_rate, np.array(departures) / measured)


def test_run_config_validation():
    with pytest.raises(ValueError):
        small_cfg(measured=10)
    with pytest.raises(ValueError):
        small_cfg(warmup=-1)
    with pytest.raises(ValueError):
        RunConfig(c=ones_cost(3), model=bernoulli(0.3, 2), measured=1000)
    # The slot index t of the records is int64.
    assert small_cfg(measured=2**63 - 1, warmup=0).measured == 2**63 - 1
    with pytest.raises(ValueError, match="2\\*\\*63"):
        small_cfg(measured=2**63 - 1, warmup=1)
    with pytest.raises(ValueError, match="2\\*\\*63"):
        small_cfg(model=bernoulli(1e-10), warmup=None)


def test_default_warmup_heuristic():
    assert default_warmup(0.5) == 100_000
    assert default_warmup(0.01) == 200_000
    assert small_cfg(model=bernoulli(0.01), warmup=None).warmup == 200_000
    # 20/eps^2 divides by zero at 1e-300 and overflows to inf at 1e-160.
    for eps in (1e-300, 1e-160):
        with pytest.raises(ValueError, match="too small for the default warmup"):
            default_warmup(eps)


# -------- exact finite-load reference --------

@pytest.mark.parametrize(
    "cost, exact",
    [(ones_cost(), 0.54066070), (CostMatrix([[1.0, 2.0], [2.0, 1.0]]), 0.76502994)],
    ids=["unit", "checker"],
)
def test_run_matches_the_exact_n2_markov_chain(cost, exact):
    # The stationary eps * E[sum c Q] of the n = 2 chain at eps 0.3, solved
    # by the oracle, against two pooled replications of run (seeds fixed
    # before any result was seen).  Serving arrivals only from the next slot
    # moves the estimate by over 200 se; a tie break that always picks the
    # first schedule moves the checker case by about 10 se.
    model = bernoulli(0.3)
    assert exact_n2_mean(cost, model) == pytest.approx(exact, abs=5e-9)
    stats = [run(RunConfig(c=cost, model=model, measured=750_000, warmup=1000, seed=seed,
                           ssc_stride=10**9)) for seed in (11, 12)]
    pooled = model.epsilon * np.mean([s.mean_weighted_qsum for s in stats])
    se = model.epsilon * math.sqrt(sum(s.stderr_weighted_qsum**2 for s in stats)) / len(stats)
    assert abs(pooled - exact) <= 4 * se, (pooled, exact, se)
    assert all(s.conservation_ok for s in stats)


# -------- drift diagnostics --------

def test_drift_bound_and_negative_conditional_drift():
    stats = run(small_cfg(model=bernoulli(0.1), measured=200_000, warmup=20_000,
                          ssc_stride=10, seed=5))
    diag = drift_diagnostics(stats, ones_cost(), a_max=1)
    assert diag.bound == pytest.approx(2.0)
    assert diag.within_bound
    assert diag.max_abs_drift <= diag.bound
    kappa90 = float(np.percentile(stats.perp_samples, 90))
    diag90 = drift_diagnostics(stats, ones_cost(), a_max=1, kappa_grid=[kappa90])
    _, cnt, mean_drift = diag90.rows[0]
    assert cnt > 100
    assert mean_drift < 0


def test_drift_conditioning_ignores_last_bit_at_tied_kappa():
    kappa = 2 / np.sqrt(3)
    stats = run(small_cfg(measured=300, warmup=100))

    def rows(perp):
        tied = dataclasses.replace(stats, perp_samples=np.array(perp),
                                   drift_samples=-np.arange(float(len(perp))))
        return drift_diagnostics(tied, ones_cost(), a_max=1, kappa_grid=[kappa]).rows[0]

    base = [1.0, kappa, kappa, 1.2, kappa * (1 - 1e-6)]
    assert rows(base)[1] == 3
    nudged = list(base)
    nudged[2] = np.nextafter(kappa, 0.0)
    assert rows(nudged) == rows(base)
    with pytest.raises(ValueError, match="no drift samples"):
        rows([])


def test_queues_drain_without_arrivals():
    # degenerate no-arrival regime: perpendicular norm cannot rise, and the
    # system empties
    c = ones_cost()
    model = bernoulli(0.5)
    a_rng, t_rng = derive_rngs(1)
    state = QueueState(Q=np.array([[7, 1], [0, 4]]))
    zero = np.zeros((2, 2), dtype=int)
    norms = []
    for _ in range(40):
        proj = project_cone(state.Q.astype(float), c)
        norms.append(np.sqrt(max(0.0, (c.c * proj.perp**2).sum())))
        state, _ = step(state, model, c, a_rng, t_rng, arrivals=zero)
    assert (state.Q == 0).all()
    tail = norms[-10:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    assert norms[-1] == pytest.approx(0.0, abs=1e-9)
