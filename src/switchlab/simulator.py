"""Slotted-time evolution of the switch under cost-weighted MaxWeight.

Per slot: the schedule is chosen from Q(t), arrivals of the slot are drawn,
service tokens granted to queues with nothing to send become unused service,
and

    Q(t+1) = Q(t) + A(t) - S(t) + U(t),   U_ij = max(0, S_ij - Q_ij - A_ij).

Arrivals of a slot are servable within the slot, which is exactly what makes
<Q(t+1), U(t)> vanish identically.

``run`` drives a long replication chunk by chunk.  A sequential recursion,
one per matcher mode, does per slot only what the next slot needs: the
schedule from Q(t) by the matcher kernels of ``scheduling``, the arrivals,
the service, and a record of Q(t+1) and the served queues.  ``_reduce_chunk``
then turns each chunk of records into unused service, per-slot checks of
the update, batch-means statistics and cone-projection samples with array
operations, the same code for both engines, and passes the chunk's slot
records to ``RunConfig.record`` if set; the samples of a run fill arrays
allocated once.  ``step`` is the single-slot reference: it updates the
queues with ``_serve``, which also lists the unused service, so replaying a
``run`` through ``step`` checks the recursion and the reduction slot for slot.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .scheduling import Schedule, argmax_kernel, break_tie, matcher_mode, perm_table
from .scheduling import _hungarian_perm, max_weight_schedule
# Not called here; perfbench/spans.py traces the Hungarian solver at this name.
from .scheduling import hungarian_schedule
from .traffic import ArrivalModel
from .wlinalg import CostMatrix, project_cone

__all__ = [
    "QueueState",
    "SlotRecord",
    "RunConfig",
    "RunStats",
    "DriftDiagnostics",
    "step",
    "run",
    "drift_diagnostics",
    "derive_rngs",
    "default_warmup",
]

ARRIVAL_STREAM = 0
TIEBREAK_STREAM = 1
# Batch means per replication, the standard choice (Schmeiser, "Batch size
# effects in the analysis of simulation output", Oper. Res. 1982).
BATCH_COUNT = 30
# Queue entries per chunk of slots that run samples, advances and reduces.
_CHUNK = 65536
# Samples within this relative distance of kappa count as perp norm >= kappa.
_KAPPA_RTOL = 1e-9


def default_warmup(epsilon: float) -> int:
    """Relaxation-time heuristic: the transient decays on a 1/epsilon^2 scale."""
    relax = 20.0 / epsilon**2 if epsilon**2 else math.inf
    if not math.isfinite(relax):
        raise ValueError(f"epsilon {epsilon!r} is too small for the default warmup 20/epsilon^2")
    return max(100_000, math.ceil(relax))


def derive_rngs(seed: int, stream_key: tuple[int, ...] = ()) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent (arrival, tiebreak) generators for one replication.

    Streams are split as SeedSequence(seed, spawn_key=(*stream_key, purpose)),
    so adding epsilon points or replications never perturbs existing runs.
    """
    mk = lambda purpose: np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(*stream_key, purpose))
    )
    return mk(ARRIVAL_STREAM), mk(TIEBREAK_STREAM)


@dataclass
class QueueState:
    Q: np.ndarray
    t: int = 0

    def __post_init__(self):
        Q = np.array(self.Q, dtype=np.int64)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("queue matrix must be square")
        if (Q < 0).any():
            raise ValueError("queue lengths must be nonnegative")
        self.Q = Q

    @classmethod
    def empty(cls, n: int) -> "QueueState":
        return cls(Q=np.zeros((n, n), dtype=np.int64), t=0)

    @classmethod
    def _unchecked(cls, Q: np.ndarray, t: int) -> "QueueState":
        """A state on a square nonnegative int64 array ``Q``, taken as is."""
        state = cls.__new__(cls)
        state.Q, state.t = Q, t
        return state


@dataclass
class SlotRecord:
    """One slot from ``step``: ``t`` an int, ``A``, ``S``, ``U`` (n, n) int64,
    ``weighted_qsum`` a float.  ``run`` hands ``RunConfig.record`` each chunk
    of m slots in order as one record with a leading slot axis: ``t`` (m,),
    ``A``, ``S``, ``U`` (m, n, n) int64, ``weighted_qsum`` (m,) float64."""
    t: int | np.ndarray
    A: np.ndarray
    S: np.ndarray
    U: np.ndarray
    weighted_qsum: float | np.ndarray


@dataclass
class RunConfig:
    c: CostMatrix
    model: ArrivalModel
    measured: int = 1_000_000
    warmup: int | None = None
    ssc_stride: int = 100
    record: Callable[[SlotRecord], None] | None = None
    seed: int = 0
    stream_key: tuple[int, ...] = ()

    def __post_init__(self):
        if self.c.n != self.model.n:
            raise ValueError("cost and arrival dimensions differ")
        if self.measured < BATCH_COUNT:
            raise ValueError(f"measured slots must be >= {BATCH_COUNT}, one per batch")
        if self.warmup is None:
            self.warmup = default_warmup(self.model.epsilon)
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if self.warmup + self.measured >= 2**63:
            raise ValueError("warmup + measured slots must be < 2**63, the range of a slot index")
        if self.ssc_stride < 1:
            raise ValueError("ssc_stride must be >= 1")


@dataclass
class RunStats:
    n: int
    epsilon: float
    seed: int
    stream_key: tuple[int, ...]
    matcher_mode: str
    warmup_slots: int
    measured_slots: int
    mean_weighted_qsum: float
    stderr_weighted_qsum: float
    unused_service_rate: float
    stderr_unused_service: float
    perp_samples: np.ndarray
    par_samples: np.ndarray
    drift_samples: np.ndarray
    qu_dot_violation: float
    conservation_ok: bool
    departure_rate: np.ndarray


def _serve(q: list[int], a: list[int], idxs) -> list[int]:
    """One slot in place on the flat queue list ``q``: arrivals ``a`` join (and
    are servable at once), then each queue in ``idxs`` sends one packet or, if
    empty, gets unused service.  Returns the flat indices of unused service."""
    for k, x in enumerate(a):
        if x:
            q[k] += x
    unused = []
    for k in idxs:
        if q[k] > 0:
            q[k] -= 1
        else:
            unused.append(k)
    return unused


def _weighted_sum(c_flat: Sequence[float], q: list[int]) -> float:
    """sum_k c_flat[k] * q[k] over the flat queue list, added from 0.0 in
    row-major order: the weighted queue sum ``step`` records.  ``run`` gets
    the same bits from ``np.add.accumulate`` along each recorded row, which
    adds the terms one at a time in the same order (costs are > 0 and q >= 0,
    so the loop's first 0.0 + term is term); a sum, dot or matmul may add in
    another order."""
    w = 0.0
    for c, x in zip(c_flat, q):
        w += c * x
    return w


def _indicator(idxs, n: int) -> np.ndarray:
    """(n, n) 0/1 matrix with ones at the flat indices ``idxs``."""
    m = np.zeros(n * n, dtype=np.int64)
    m[list(idxs)] = 1
    return m.reshape(n, n)


def _wnorms(V: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Weighted norms sqrt(sum_ij c_ij v_ij^2) of a (k, n, n) stack.  Numpy hands each
    (1, n^2) @ (n^2, 1) product to np.vdot's BLAS ddot, so the bits are vdot's."""
    k = len(V)
    return np.sqrt(V.reshape(k, 1, -1) @ (c * V).reshape(k, -1, 1))[:, 0, 0]


def _project_pairs(Q: np.ndarray, Qn: np.ndarray, cost: CostMatrix, out: np.ndarray):
    """Project the sampled rows of one chunk, Q(t) in ``Q`` and Q(t+1) in
    ``Qn``, both (k, n^2), as one ``project_cone`` stack each, and write the
    samples' perp norms, par norms and perp drifts, in slot order, into the
    rows of ``out``, (3, k)."""
    n = cost.n
    before = project_cone(Q.reshape(-1, n, n), cost)
    after = project_cone(Qn.reshape(-1, n, n), cost)
    perp = _wnorms(before.perp, cost.c)
    out[:] = perp, _wnorms(before.parallel, cost.c), _wnorms(after.perp, cost.c) - perp


def _uniforms(rng: np.random.Generator):
    """The tiebreak stream in blocks: rng.random(N) yields the same values as
    N calls to rng.random(), the draws ``max_weight_schedule`` takes."""
    while True:
        yield from rng.random(_CHUNK).tolist()


def step(
    state: QueueState,
    model: ArrivalModel,
    cost: CostMatrix,
    arrival_rng: np.random.Generator,
    tiebreak_rng: np.random.Generator,
    schedule: Schedule | None = None,
    arrivals: np.ndarray | None = None,
) -> tuple[QueueState, SlotRecord]:
    """Advance one slot.  ``schedule``/``arrivals`` override sampling for
    controlled tests; sampled arrivals continue ``run``'s arrival stream."""
    Q = state.Q
    n = Q.shape[0]
    s = schedule if schedule is not None else max_weight_schedule(Q, cost, tiebreak_rng)
    A = np.asarray(arrivals, dtype=np.int64) if arrivals is not None else model.sample(arrival_rng)
    q = Q.ravel().tolist()
    idxs = [i * n + j for i, j in enumerate(s.perm)]
    unused = _serve(q, A.ravel().tolist(), idxs)
    rec = SlotRecord(
        t=state.t,
        A=A,
        S=_indicator(idxs, n),
        U=_indicator(unused, n),
        weighted_qsum=_weighted_sum(cost._flat_tuple, q),
    )
    # _serve leaves no queue negative: the successor skips the copy and scan
    # that validate a caller's state.
    return QueueState._unchecked(np.array(q, dtype=np.int64).reshape(n, n), state.t + 1), rec


class _BatchAcc:
    """Equal-size batch means with a pooled overall mean."""

    def __init__(self, batch_size: int):
        self.size = batch_size
        self.cur = 0.0
        self.fill = 0
        self.means: list[float] = []

    def extend(self, values: np.ndarray):
        """Add ``values`` in order.  A batch total is added one value at a
        time, from 0.0, with the partial total carried between calls, so the
        means do not depend on how the values are split between calls."""
        i, end = 0, len(values)
        while i < end:
            j = min(end, i + self.size - self.fill)
            self.cur = float(np.add.accumulate(np.concatenate(([self.cur], values[i:j])))[-1])
            self.fill += j - i
            i = j
            if self.fill == self.size:
                self.means.append(self.cur / self.size)
                self.cur = 0.0
                self.fill = 0

    def mean(self) -> float:
        return float(np.mean(self.means))

    def stderr(self) -> float:
        m = np.asarray(self.means)
        if len(m) < 2:
            return float("nan")
        return float(m.std(ddof=1) / math.sqrt(len(m)))


class _Reduction:
    """Running statistics of one replication, its perp, par and drift samples
    (the rows of ``ssc``, written in place) and the callback that takes its
    slot records or None, which ``_reduce_chunk`` feeds one chunk at a time."""

    def __init__(self, cost: CostMatrix, warmup: int, batch: int, ssc_stride: int,
                 record: Callable[[SlotRecord], None] | None):
        n2 = cost.n * cost.n
        self.cost = cost
        self.warmup = warmup
        self.ssc_stride = ssc_stride
        self.t = 0  # slots reduced so far
        self.q = np.zeros(n2, dtype=np.int64)  # Q(t) of the next slot
        self.w_acc = _BatchAcc(batch)
        self.u_acc = _BatchAcc(batch)
        # Measured slots per queue: served, and served while empty.
        self.served = np.zeros(n2, dtype=np.int64)
        self.unused = np.zeros(n2, dtype=np.int64)
        self.qu_violation = 0.0
        self.conservation_ok = True
        self.ssc = np.empty((3, -(-batch * BATCH_COUNT // ssc_stride)))
        self.record = record


def _reduce_chunk(red: _Reduction, A: np.ndarray, Qn: np.ndarray, served: np.ndarray):
    """Fold m recorded slots into ``red``: the arrivals ``A`` and the queues
    after each slot ``Qn``, both (m, n^2), and the served flat indices
    ``served``, (m, n).  Q(t) is the row of ``Qn`` before (``red.q`` for the
    first).  Unused service is read off the trajectory, U(t) = [(Q(t) +
    A(t))[served] == 0], and every slot is checked against Q(t+1) = Q(t) +
    A(t) - S(t) + U(t) >= 0.  The chunk's ``SlotRecord`` goes to ``red.record``;
    ``red`` keeps no view of the arguments."""
    cost = red.cost
    n = cost.n
    n2 = n * n
    m = len(Qn)
    t0 = red.t
    Q = np.concatenate((red.q[None], Qn[:-1]))
    pre = Q + A
    rows = np.arange(m)[:, None]
    s = np.take_along_axis(pre, served, axis=1)
    u = s == 0
    # Q(t) + A(t) - Q(t+1) must be S(t) - U(t): one at each served queue
    # that sent a packet, zero everywhere else.
    d = pre - Qn
    d[rows, served] -= s > 0
    if d.any() or Qn.min() < 0:
        red.conservation_ok = False
    if u.any():
        k = served[u]
        q_unused = Qn[np.nonzero(u)[0], k]
        red.qu_violation = max(red.qu_violation, float(np.abs(cost.flat[k] * q_unused).max()))

    off = min(m, max(0, red.warmup - t0))  # first measured row
    lo = 0 if red.record is not None else off
    w = np.add.accumulate(cost.flat * Qn[lo:], axis=1)[:, -1]
    if off < m:
        red.w_acc.extend(w[off - lo:])
        red.u_acc.extend(u[off:].sum(axis=1))
        red.served += np.bincount(served[off:].ravel(), minlength=n2)
        red.unused += np.bincount(served[off:][u[off:]], minlength=n2)
        # SSC samples are taken at every ssc_stride-th measured slot.
        stride = red.ssc_stride
        j = -(-(t0 + off - red.warmup) // stride)  # samples of the chunks before
        idx = np.arange(red.warmup + j * stride - t0, m, stride)
        if idx.size:
            _project_pairs(Q[idx], Qn[idx], cost, red.ssc[:, j:j + idx.size])

    if red.record is not None:
        S, U = np.zeros((2, m, n2), dtype=np.int64)
        S[rows, served], U[rows, served] = 1, u
        grids = (x.reshape(m, n, n) for x in (A, S, U))
        red.record(SlotRecord(np.arange(t0, t0 + m, dtype=np.int64), *grids, w))
    red.q = Qn[-1].copy()
    red.t = t0 + m


def _exact_engine(cost: CostMatrix, tiebreak_rng: np.random.Generator):
    """The recursion of the exact engine: ``advance(A)`` runs the slots of the
    arrival rows ``A`` and returns ``A``, Q(t+1) and the served flat indices.
    The queues live in a Python list, which beats array operations on so few."""
    n2 = cost.n * cost.n
    pidx = perm_table(cost.n).pidx
    served_of = np.array(pidx, dtype=np.intp)
    ties_of = argmax_kernel(cost)
    uniform = _uniforms(tiebreak_rng).__next__
    queues = [0] * n2

    def advance(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = queues
        qs: list[int] = []
        ps: list[int] = []
        record_q, record_p = qs.extend, ps.append
        for a in A.tolist():
            p = break_tie(ties_of(q), uniform)
            for k, x in enumerate(a):
                if x:
                    q[k] += x
            for k in pidx[p]:
                if q[k] > 0:
                    q[k] -= 1
            record_q(q)
            record_p(p)
        return A, np.array(qs, dtype=np.int64).reshape(-1, n2), served_of[ps]

    return advance


def _hungarian_engine(cost: CostMatrix, tiebreak_rng: np.random.Generator):
    """The recursion of the Hungarian engine, as ``_exact_engine``; the queues
    live in a flat int64 array and each slot is solved by ``_hungarian_perm``."""
    n = cost.n
    row_start = np.arange(n, dtype=np.intp) * n  # flat index of (i, 0)
    c_flat = cost.flat
    queues = np.zeros(n * n, dtype=np.int64)

    def advance(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        q = queues
        qs = np.empty((len(A), n * n), dtype=np.int64)
        ss = np.empty((len(A), n), dtype=np.intp)
        for r, a in enumerate(A):
            idxs = row_start + _hungarian_perm((c_flat * q).reshape(n, n), tiebreak_rng)
            q += a
            s = q[idxs]
            q[idxs] = s - (s > 0)
            qs[r] = q
            ss[r] = idxs
        return A, qs, ss

    return advance


def run(cfg: RunConfig) -> RunStats:
    """Simulate one replication and summarize it.

    Deterministic given (seed, stream_key).  The measured window is trimmed
    down to a multiple of BATCH_COUNT so every batch has equal size.

    One loop over chunks of ``max(1, _CHUNK // n^2)`` slots: sample the
    chunk's arrivals (one ``sample_block`` call, so about ``_CHUNK`` queue
    entries at any n), record, reduce.  The engine of ``matcher_mode(n)``
    (``_exact_engine`` or ``_hungarian_engine``) runs the slots in order and
    does only what the next slot depends on: schedule from Q(t), add the
    arrivals, serve, and record Q(t+1) and the served queues.
    ``_reduce_chunk`` computes unused service, the slot checks, the batch
    means, the served and unused counts and the SSC samples with numpy, for
    both engines alike, and builds each chunk's slot records for
    ``cfg.record`` only when that is set.  Chunk edges change no output bit.

    SSC sampling projects the sampled Q(t) rows of a chunk as one
    ``project_cone`` stack and their Q(t+1) rows as another, so it keeps no
    state between chunks and draws no random numbers.
    """
    cost, model = cfg.c, cfg.model
    n = cost.n
    batch = cfg.measured // BATCH_COUNT
    measured = batch * BATCH_COUNT
    arrival_rng, tiebreak_rng = derive_rngs(cfg.seed, cfg.stream_key)
    mode = matcher_mode(n)
    engine = _exact_engine if mode == "exact-enumeration" else _hungarian_engine
    advance = engine(cost, tiebreak_rng)
    rows = max(1, _CHUNK // (n * n))
    total = cfg.warmup + measured
    red = _Reduction(cost, cfg.warmup, batch, cfg.ssc_stride, cfg.record)

    for t0 in range(0, total, rows):
        _reduce_chunk(red, *advance(model.sample_block(arrival_rng, min(rows, total - t0))))

    departures = red.served - red.unused

    return RunStats(
        n=n,
        epsilon=model.epsilon,
        seed=cfg.seed,
        stream_key=cfg.stream_key,
        matcher_mode=mode,
        warmup_slots=cfg.warmup,
        measured_slots=measured,
        mean_weighted_qsum=red.w_acc.mean(),
        stderr_weighted_qsum=red.w_acc.stderr(),
        unused_service_rate=red.u_acc.mean(),
        stderr_unused_service=red.u_acc.stderr(),
        perp_samples=red.ssc[0],
        par_samples=red.ssc[1],
        drift_samples=red.ssc[2],
        qu_dot_violation=red.qu_violation,
        conservation_ok=red.conservation_ok,
        departure_rate=(departures / measured).reshape(n, n),
    )


@dataclass
class DriftDiagnostics:
    max_abs_drift: float
    bound: float
    within_bound: bool
    rows: list[tuple[float, int, float]]  # (kappa, samples, conditional mean drift)


def drift_diagnostics(
    stats: RunStats,
    cost: CostMatrix,
    a_max: int,
    kappa_grid=None,
) -> DriftDiagnostics:
    """Boundedness and negative-drift diagnostics for the perpendicular norm,
    from the perp-norm and drift samples of a run.

    Reports max |dW| against the bound n * sqrt(c_max) * a_max and the
    conditional mean of dW given perp norm >= kappa for each kappa, where a
    norm within 1e-9 relative of kappa counts as >= kappa.
    """
    perp, drift = stats.perp_samples, stats.drift_samples
    if perp.size == 0:
        raise ValueError("no drift samples available")
    bound = cost.n * math.sqrt(cost.cmax) * a_max
    max_abs = float(np.abs(drift).max())
    if kappa_grid is None:
        kappa_grid = [float(np.percentile(perp, q)) for q in (50, 75, 90)]
    rows = []
    for kappa in kappa_grid:
        # kappa is often a sample value shared by many samples (a percentile
        # of a lattice-valued norm); last-bit noise must not decide them.
        mask = perp >= kappa - _KAPPA_RTOL * abs(kappa)
        cnt = int(mask.sum())
        mean = float(drift[mask].mean()) if cnt else float("nan")
        rows.append((float(kappa), cnt, mean))
    return DriftDiagnostics(
        max_abs_drift=max_abs, bound=bound, within_bound=max_abs <= bound, rows=rows
    )
