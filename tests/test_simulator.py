from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from switchlab import cli, simulator
from switchlab.scheduling import Schedule, enumerate_argmax, matcher_mode
from switchlab.simulator import (
    QueueState,
    RunConfig,
    default_warmup,
    derive_rngs,
    drift_diagnostics,
    run,
    step,
)
from switchlab.traffic import ArrivalModel, uniform_nu
from switchlab.wlinalg import CostMatrix, cdot, project_cone
from conftest import recorded_run


def ones_cost(n=2):
    return CostMatrix(np.ones((n, n)))


def bernoulli(eps, n=2):
    return ArrivalModel.bernoulli(uniform_nu(n), eps)


def checker(n):
    return CostMatrix([[1.0 + (i + j) % 2 for j in range(n)] for i in range(n)])


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
    Q = np.cumsum(rec.A - rec.S + rec.U, axis=0)  # Q(t+1), from empty queues
    assert (Q >= 0).all()
    assert (rec.U <= rec.S).all()
    assert not (Q * rec.U).any()
    T = stats.warmup_slots + stats.measured_slots
    assert rec.t.tolist() == list(range(T))
    for grid in (rec.A, rec.S, rec.U):
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
    # Arrivals are sampled one chunk at a time: no call may ask for more rows
    # than a chunk holds, and no earlier chunk may outlive its reduction.
    monkeypatch.setattr(simulator, "_CHUNK", 64 * n * n)
    sample_block = ArrivalModel.sample_block
    blocks, counts, previous_alive = [], [], []

    def tracked(self, rng, count):
        previous_alive.append(any(ref() is not None for ref in blocks))
        counts.append(count)
        blk = sample_block(self, rng, count)
        blocks.append(weakref.ref(blk))
        return blk

    monkeypatch.setattr(ArrivalModel, "sample_block", tracked)
    run(small_cfg(c=ones_cost(n), model=bernoulli(0.3, n), measured=300, warmup=100))
    assert counts == [64] * 6 + [16]  # _CHUNK // n^2 rows a call, then the rest
    assert not any(previous_alive)


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
    Q_next = np.cumsum(rec.A - rec.S + rec.U, axis=0)
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
        (checker(5), bernoulli(0.1, 5)),
        (CostMatrix(np.random.default_rng(8).uniform(0.5, 2.0, (8, 8))), bernoulli(0.2, 8)),
        (checker(3), ArrivalModel.uniform_integer(uniform_nu(3), 0.1, a_max=3)),
    ],
    ids=["n2-exact", "n5-exact", "n8-hungarian", "n3-uniform-integer"],
)
@pytest.mark.parametrize("rows", [1, 7])
def test_run_chunk_edges_change_no_output(monkeypatch, cost, model, rows):
    # Each chunk is sampled, advanced and reduced on its own.  Chunks of 96
    # against chunks of 1 and 7 slots put the edges mid-batch (batches of
    # 50), at and across the warmup edge (250) and in different places of
    # the arrival stream; no output may move.
    monkeypatch.setattr(simulator, "_CHUNK", 96 * cost.n**2)
    cfg = RunConfig(c=cost, model=model, measured=1_500, warmup=250, ssc_stride=13,
                    seed=7, stream_key=(1,))
    want, want_rec = recorded_run(cfg)
    monkeypatch.setattr(simulator, "_CHUNK", rows * cost.n**2)
    got, got_rec = recorded_run(cfg)
    assert model.kind == "bernoulli" or want_rec.A.max() > 1
    _assert_same_stats(got, want)
    _assert_same_stats(got_rec, want_rec)


def _hand_chunk():
    # n = 2 from empty queues; flat indices 0..3, schedules (0, 3) and (1, 2).
    A = np.array([[1, 0, 0, 1], [0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 1, 0]])
    served = np.array([[0, 3], [1, 2], [1, 2], [0, 3]])
    Qn = np.array([[0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0], [1, 0, 1, 0]])
    return A, Qn, served


def _reduction(q0=(0, 0, 0, 0)):
    red = simulator._Reduction(ones_cost(), warmup=0, batch=2, ssc_stride=3, record=None)
    red.q = np.array(q0, dtype=np.int64)
    return red


def test_reduce_chunk_reads_unused_service_off_the_trajectory():
    A, Qn, served = _hand_chunk()
    red = _reduction()
    red.ssc[:] = np.nan  # to tell the samples written apart
    simulator._reduce_chunk(red, A, Qn, served)
    assert red.conservation_ok
    assert red.qu_violation == 0.0
    assert red.unused.tolist() == [0, 1, 2, 1]  # empty at slots 1 (2), 2 (1, 2), 3 (3)
    assert red.served.tolist() == [2, 2, 2, 2]
    assert red.u_acc.means == [0.5, 1.5]
    assert red.w_acc.means == [0.0, 2.0]
    assert red.t == 4 and red.q.tolist() == [1, 0, 1, 0]
    # Slots 0 and 3 are sampled: the first two of the 60 / 3 samples.
    assert red.ssc.shape == (3, 20)
    assert not np.isnan(red.ssc[:, :2]).any() and np.isnan(red.ssc[:, 2:]).all()


@pytest.mark.parametrize("fault", ["plus-one", "negative", "negative-and-consistent"])
def test_reduce_chunk_detects_a_wrong_update(fault):
    A, Qn, served = _hand_chunk()
    red = _reduction()
    if fault == "plus-one":
        Qn[3, 0] += 1
    elif fault == "negative":
        Qn[1, 3] = -1
    else:
        # Q(t) + A(t) - S(t) + U(t) holds on every slot; only the sign fails.
        red = _reduction(q0=(0, -1, 0, 0))
        A, Qn, served = A[:1], np.array([[0, -1, 0, 0]]), served[:1]
    simulator._reduce_chunk(red, A, Qn, served)
    assert not red.conservation_ok


@pytest.mark.parametrize("n", [2, 8], ids=["n2-faces", "n8-hungarian"])
def test_run_memory_does_not_grow_with_slots(monkeypatch, n):
    # Statistics are reduced per chunk: nothing the reduction keeps may pin a
    # chunk, its arrivals or its SSC stacks, so ten times the slots stay in
    # the same peak.  Chunks hold 16384 queue entries (256 slots at n = 8,
    # 4096 at n = 2), and each chunk's samples are projected as stacks.
    monkeypatch.setattr(simulator, "_CHUNK", 256 * 8 * 8)
    cfg = small_cfg(c=ones_cost(n), model=bernoulli(0.2, n), warmup=500)
    peaks = []
    for measured in (5_000, 50_000):
        tracemalloc.start()
        try:
            run(dataclasses.replace(cfg, measured=measured))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("via", ["run", "simulate-trace"])
def test_recorded_memory_does_not_grow_with_slots(monkeypatch, tmp_path, n, via):
    # Slot records leave run one chunk at a time and run keeps none of them:
    # a recorded run, and simulate --trace writing each chunk as it comes,
    # peak the same at ten times the slots.  Sparse SSC samples keep their
    # arrays small beside the chunks.
    monkeypatch.setattr(simulator, "_CHUNK", 1024)
    peaks = []
    for measured in (5_000, 50_000):
        if via == "run":
            cfg = small_cfg(c=ones_cost(n), model=bernoulli(0.2, n), warmup=500,
                            measured=measured, ssc_stride=1000, record=lambda rec: None)
            go = lambda: run(cfg)
        else:
            doc = {"n": n, "epsilon_grid": [0.2], "slots": measured, "warmup": 500, "seed": 3,
                   "ssc_sampling_stride": 1000, "output_dir": str(tmp_path / "out")}
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(doc))
            trace = str(tmp_path / "trace.csv")
            go = lambda: cli.main(["simulate", "--config", str(path), "--trace", trace])
        tracemalloc.start()
        try:
            go()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("n", [2, 3])
def test_recorded_memory_is_the_record_arrays(monkeypatch, n):
    # A caller that keeps every chunk it is handed holds the whole run's
    # records; run's own peak may grow with the slots only by about the bytes
    # of those records, so it copies none of them and keeps none of its own.
    monkeypatch.setattr(simulator, "_CHUNK", 1024)
    cfg = small_cfg(c=ones_cost(n), model=bernoulli(0.2, n), warmup=500)
    peaks, sizes = [], []
    for measured in (5_000, 20_000):
        chunks = []
        tracemalloc.start()
        try:
            stats = run(dataclasses.replace(cfg, measured=measured, record=chunks.append))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sum(len(c.t) for c in chunks) == stats.warmup_slots + stats.measured_slots
        sizes.append(sum(getattr(c, f.name).nbytes
                         for c in chunks for f in dataclasses.fields(c)))
    assert peaks[1] - peaks[0] <= 1.5 * (sizes[1] - sizes[0])


@pytest.mark.parametrize("n", [2, 3])
def test_ssc_sample_memory_is_the_sample_arrays(monkeypatch, n):
    # SSC samples go straight into float64 arrays allocated once: sampling
    # every slot, run's peak may grow with the slots by about the 24 bytes of
    # each sample's perp, par and drift values, and by no list or copy.
    monkeypatch.setattr(simulator, "_CHUNK", 1024)
    cfg = small_cfg(c=ones_cost(n), model=bernoulli(0.2, n), warmup=500, ssc_stride=1)
    peaks, samples = [], []
    for measured in (5_000, 20_000):
        tracemalloc.start()
        try:
            stats = run(dataclasses.replace(cfg, measured=measured))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert stats.perp_samples.size == stats.measured_slots
        samples.append(stats.measured_slots)
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
        (checker(4), bernoulli(0.1, 4), "recorded"),
        (checker(5), bernoulli(0.1, 5), "recorded"),
        (CostMatrix(np.random.default_rng(8).uniform(0.5, 2.0, (8, 8))), bernoulli(0.2, 8),
         "recorded"),
        (CostMatrix(np.random.default_rng(9).uniform(0.5, 2.0, (9, 9))),
         ArrivalModel.truncated_poisson(uniform_nu(9), 0.2, a_max=3), "recorded"),
        (CostMatrix(np.random.default_rng(9).uniform(0.5, 2.0, (9, 9))),
         ArrivalModel.truncated_poisson(uniform_nu(9), 0.2, a_max=2), None),
        (checker(3), ArrivalModel.uniform_integer(uniform_nu(3), 0.1, a_max=3), None),
    ],
    ids=["n2-exact", "n4-checker-exact", "n5-checker-exact", "n8-hungarian",
         "n9-hungarian-poisson", "n9-hungarian-poisson-sampled",
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
    Q = np.cumsum(rec.A - rec.S + rec.U, axis=0)  # Q(t+1), from empty queues
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
        assert np.array_equal(state.Q, Q[t]), f"queues differ after slot {t}"
        assert got.weighted_qsum == rec.weighted_qsum[t], f"weighted sum differs at slot {t}"
        assert cdot(state.Q, got.U, cost) == 0.0
    assert not exact or ties > 100  # the exact cases exercise the tie-break
    # Multi-packet arrivals reach the slot update only through the
    # non-Bernoulli cases; each must see them.
    multi = int((rec.A.max(axis=(1, 2)) > 1).sum())
    assert model.kind == "bernoulli" or multi > 100


@pytest.mark.parametrize(
    "n, measured, expected",
    [
        (5, 3000, (43.80433333333333, 2.3295983415495023, 0.5, [
            [548, 556, 554, 546, 563], [562, 510, 546, 529, 563], [560, 553, 558, 508, 523],
            [545, 530, 490, 535, 550], [550, 536, 513, 521, 551]])),
        (6, 1500, (52.528000000000006, 2.4882123204670736, 0.5593333333333333, [
            [213, 229, 251, 242, 245, 210], [235, 204, 227, 224, 229, 214],
            [220, 242, 247, 228, 226, 226], [234, 248, 216, 213, 233, 215],
            [220, 215, 211, 222, 235, 249], [234, 209, 212, 218, 244, 221]])),
    ],
    ids=["n5", "n6"],
)
def test_exact_run_pinned(n, measured, expected):
    # Values produced by the pure-Python enumeration loop at every n; the numpy
    # kernel must reproduce them bit for bit.
    cfg = RunConfig(c=checker(n), model=bernoulli(0.1, n), measured=measured, warmup=300,
                    seed=17, stream_key=(0, 1))
    stats = run(cfg)
    mean, stderr, unused, departures = expected
    assert stats.matcher_mode == "exact-enumeration"
    assert stats.mean_weighted_qsum == mean
    assert stats.stderr_weighted_qsum == stderr
    assert stats.unused_service_rate == unused
    assert np.array_equal(stats.departure_rate, np.array(departures) / measured)


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
