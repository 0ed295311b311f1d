"""Slotted-time evolution of the switch under cost-weighted MaxWeight.

Per slot: the schedule is chosen from Q(t), arrivals of the slot are drawn,
service tokens granted to queues with nothing to send become unused service,
and

    Q(t+1) = Q(t) + A(t) - S(t) + U(t),   U_ij = max(0, S_ij - Q_ij - A_ij).

Arrivals of a slot are servable within the slot, which is exactly what makes
<Q(t+1), U(t)> vanish identically.  ``run`` drives a long replication with
batch-means statistics and periodic cone-projection sampling; ``step`` is the
single-slot reference.  Both use the matcher kernels of ``scheduling``, and
``step`` updates the queues with ``_serve``, as the exact engine of ``run``
does; the array update of the Hungarian engine gives the same queues.  So
``step`` replays a recorded ``run`` slot for slot, and above EXACT_MAX_N it
checks the array update against the list one.
"""

from __future__ import annotations

import math
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
_BLOCK = 65536
# SSC sample pairs (Q(t), Q(t+1)) buffered per project_cone call.
_SSC_PAIRS = 512
# Samples within this relative distance of kappa count as perp norm >= kappa.
_KAPPA_RTOL = 1e-9


def default_warmup(epsilon: float) -> int:
    """Relaxation-time heuristic: the transient decays on a 1/epsilon^2 scale."""
    return max(100_000, math.ceil(20.0 / epsilon**2))


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


@dataclass
class SlotRecord:
    t: int
    A: np.ndarray
    S: np.ndarray
    U: np.ndarray
    weighted_qsum: float


@dataclass
class RunConfig:
    c: CostMatrix
    model: ArrivalModel
    measured: int = 1_000_000
    warmup: int | None = None
    ssc_stride: int = 100
    record_slots: bool = False
    seed: int = 0
    stream_key: tuple[int, ...] = ()

    def __post_init__(self):
        if self.c.n != self.model.n:
            raise ValueError("cost and arrival dimensions differ")
        if self.measured < BATCH_COUNT:
            raise ValueError(f"measured slots must be >= {BATCH_COUNT}, one per batch")
        if self.warmup is not None and self.warmup < 0:
            raise ValueError("warmup must be >= 0")
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
    mean_perp_norm_r: dict[int, float]
    mean_par_norm: float
    perp_samples: np.ndarray
    par_samples: np.ndarray
    drift_samples: np.ndarray
    qu_dot_violation: float
    conservation_ok: bool
    departure_rate: np.ndarray
    records: list[SlotRecord] | None = None


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


def _weighted_sum(c_flat: list[float], q: list[int]) -> float:
    """sum_k c_flat[k] * q[k] over the flat queue list, added from 0.0 in
    row-major order: the weighted queue sum ``run`` and ``step`` record."""
    w = 0.0
    for c, x in zip(c_flat, q):
        w += c * x
    return w


def _serve_array(q: np.ndarray, a: np.ndarray, idxs: np.ndarray) -> np.ndarray:
    """``_serve`` on the flat int64 queue array ``q``, in place, by array
    operations; ``idxs`` are the served flat indices, one per row.  Returns
    the flat indices of unused service, in row order as ``_serve`` lists them."""
    q += a
    s = q[idxs]
    q[idxs] = s - (s > 0)
    return idxs[s == 0]


def _weighted_sum_array(c_flat: np.ndarray, q: np.ndarray) -> float:
    """``_weighted_sum`` of the flat queue array ``q``.  ``np.add.accumulate``
    adds the terms one at a time in row-major order, the loop's own additions
    (costs are > 0 and q >= 0, so the loop's first 0.0 + term is term), and
    gives the same bits; a sum, dot or matmul may add in another order."""
    return float(np.add.accumulate(c_flat * q)[-1])


def _indicator(idxs, n: int) -> np.ndarray:
    """(n, n) 0/1 matrix with ones at the flat indices ``idxs``."""
    m = np.zeros(n * n, dtype=np.int64)
    m[list(idxs)] = 1
    return m.reshape(n, n)


def _wnorm(v: np.ndarray, c: np.ndarray) -> float:
    """Weighted norm sqrt(sum_ij c_ij v_ij^2) of an (n, n) grid."""
    return math.sqrt(float(np.vdot(v, c * v)))


def _project_pairs(pairs: np.ndarray, cost: CostMatrix, perp: list, par: list, drift: list):
    """Project the buffered sample pairs, (k, 2, n^2) float rows of Q(t) and
    Q(t+1), as one stack and append each pair's perp norm, par norm and perp
    drift, in buffer order."""
    n = cost.n
    proj = project_cone(pairs.reshape(-1, n, n), cost)
    for before, par_before, after in zip(proj.perp[0::2], proj.parallel[0::2], proj.perp[1::2]):
        w_before = _wnorm(before, cost.c)
        perp.append(w_before)
        par.append(_wnorm(par_before, cost.c))
        drift.append(_wnorm(after, cost.c) - w_before)


def _uniforms(rng: np.random.Generator):
    """The tiebreak stream in blocks: rng.random(N) yields the same values as
    N calls to rng.random(), the draws ``max_weight_schedule`` takes."""
    while True:
        yield from rng.random(_BLOCK).tolist()


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
    controlled tests."""
    Q = state.Q
    n = Q.shape[0]
    s = schedule if schedule is not None else max_weight_schedule(Q, cost, tiebreak_rng)
    A = np.asarray(arrivals, dtype=np.int64) if arrivals is not None else model.sample(arrival_rng)
    q = Q.ravel().tolist()
    idxs = [i * n + j for i, j in enumerate(s.perm)]
    unused = _serve(q, A.ravel().tolist(), idxs)
    Qn = np.array(q, dtype=np.int64).reshape(n, n)
    rec = SlotRecord(
        t=state.t,
        A=A,
        S=_indicator(idxs, n),
        U=_indicator(unused, n),
        weighted_qsum=_weighted_sum(cost.flat.tolist(), q),
    )
    return QueueState(Q=Qn, t=state.t + 1), rec


class _BatchAcc:
    """Equal-size batch means with a pooled overall mean."""

    def __init__(self, batch_size: int):
        self.size = batch_size
        self.cur = 0.0
        self.fill = 0
        self.means: list[float] = []

    def add(self, value: float):
        self.cur += value
        self.fill += 1
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


def run(cfg: RunConfig) -> RunStats:
    """Simulate one replication and summarize it.

    Deterministic given (seed, stream_key).  The measured window is trimmed
    down to a multiple of BATCH_COUNT so every batch has equal size.

    The engine follows ``matcher_mode(n)``.  Exact enumeration keeps the
    queues in a Python list (``_serve``, ``_weighted_sum``), which beats
    array operations on its few queues; the Hungarian engine keeps them in a
    flat int64 array (``_serve_array``, ``_weighted_sum_array``).  Only the
    state, the schedule, the slot update and the weighted sum differ.

    SSC sampling copies Q(t) and Q(t+1) into a buffer of ``_SSC_PAIRS``
    pairs, which is projected as one ``project_cone`` stack when full and
    once after the last slot; it draws no random numbers.
    """
    cost, model = cfg.c, cfg.model
    n = cost.n
    n2 = n * n
    warmup = cfg.warmup if cfg.warmup is not None else default_warmup(model.epsilon)
    batch = cfg.measured // BATCH_COUNT
    measured = batch * BATCH_COUNT
    arrival_rng, tiebreak_rng = derive_rngs(cfg.seed, cfg.stream_key)
    mode = matcher_mode(n)

    use_exact = mode == "exact-enumeration"
    if use_exact:
        pidx = perm_table(n).pidx
        ties_of = argmax_kernel(cost)
        uniform = _uniforms(tiebreak_rng).__next__
        c_flat = cost.flat.tolist()
        Q = [0] * n2
        serve, weighted_sum = _serve, _weighted_sum
    else:
        row_start = np.arange(n, dtype=np.intp) * n  # flat index of (i, 0)
        c_flat = cost.flat
        Q = np.zeros(n2, dtype=np.int64)
        serve, weighted_sum = _serve_array, _weighted_sum_array
    q_start = np.zeros(n2, dtype=np.int64)

    w_acc = _BatchAcc(batch)
    u_acc = _BatchAcc(batch)
    arrivals_total = np.zeros(n2, dtype=np.int64)
    unused_total = np.zeros(n2, dtype=np.int64)
    # Measured slots per served queue.  The exact engine first counts each
    # schedule by its tuple of served flat indices (at most n! keys); the
    # Hungarian engine writes each slot's served flat indices to a row of
    # ``served_blk`` and counts the measured rows once per arrival block.
    served = np.zeros(n2, dtype=np.int64)
    sched_count: dict = {}
    qu_violation = 0.0

    perp_samples: list[float] = []
    par_samples: list[float] = []
    drift_samples: list[float] = []
    # Sampled states wait here and are projected _SSC_PAIRS pairs at a time.
    ssc_pairs = np.empty((_SSC_PAIRS, 2, n2))
    n_pairs = 0
    records: list[SlotRecord] | None = [] if cfg.record_slots else None

    total = warmup + measured
    done = 0
    # SSC is sampled at every ssc_stride-th measured slot.
    next_sample = warmup
    while done < total:
        blk_start = done
        blk_n = min(_BLOCK, total - done)
        ablk = model.sample_block(arrival_rng, blk_n)
        off = max(0, warmup - done)
        if off < blk_n:
            arrivals_total += ablk[off:].sum(axis=0)
        if not use_exact:
            served_blk = np.empty((blk_n, n), dtype=np.intp)
        for A in ablk.tolist() if use_exact else ablk:
            m_idx = done - warmup
            in_measured = m_idx >= 0
            if m_idx == 0:
                q_start = np.array(Q, dtype=np.int64)
            sample_now = done == next_sample
            if sample_now:
                next_sample += cfg.ssc_stride
                ssc_pairs[n_pairs, 0] = Q

            # -- schedule from Q(t)
            if use_exact:
                idxs = pidx[break_tie(ties_of(Q), uniform)]
            else:
                idxs = row_start + _hungarian_perm((c_flat * Q).reshape(n, n), tiebreak_rng)
                served_blk[done - blk_start] = idxs

            # -- arrivals, unused service, update; <Q(t+1), U(t)> on the result
            unused = serve(Q, A, idxs)
            for k in unused:
                qu_violation = max(qu_violation, abs(c_flat[k] * Q[k]))

            if in_measured:
                for k in unused:
                    unused_total[k] += 1
                w_acc.add(weighted_sum(c_flat, Q))
                u_acc.add(float(len(unused)))
                if use_exact:
                    sched_count[idxs] = sched_count.get(idxs, 0) + 1

            if sample_now:
                ssc_pairs[n_pairs, 1] = Q
                n_pairs += 1
                if n_pairs == _SSC_PAIRS:
                    _project_pairs(ssc_pairs, cost, perp_samples, par_samples, drift_samples)
                    n_pairs = 0

            if records is not None:
                records.append(
                    SlotRecord(
                        t=done,
                        A=np.array(A, dtype=np.int64).reshape(n, n),
                        S=_indicator(idxs, n),
                        U=_indicator(unused, n),
                        weighted_qsum=weighted_sum(c_flat, Q),
                    )
                )

            done += 1
        if not use_exact and off < blk_n:
            served += np.bincount(served_blk[off:].ravel(), minlength=n2)
        # Drop the block, and the row view A into it, before the next one is
        # sampled, so that two blocks are never live at once.
        del ablk, A

    if n_pairs:
        _project_pairs(ssc_pairs[:n_pairs], cost, perp_samples, par_samples, drift_samples)
    q_end = np.array(Q, dtype=np.int64)
    for idxs, cnt in sched_count.items():
        served[list(idxs)] += cnt
    conservation_ok = bool(
        np.array_equal(q_end - q_start, arrivals_total - served + unused_total)
    )

    perp = np.asarray(perp_samples)
    par = np.asarray(par_samples)
    drift = np.asarray(drift_samples)
    mean_perp = {
        r: (float(np.mean(perp**r)) if perp.size else float("nan")) for r in (1, 2, 4)
    }
    departures = served - unused_total

    return RunStats(
        n=n,
        epsilon=model.epsilon,
        seed=cfg.seed,
        stream_key=cfg.stream_key,
        matcher_mode=mode,
        warmup_slots=warmup,
        measured_slots=measured,
        mean_weighted_qsum=w_acc.mean(),
        stderr_weighted_qsum=w_acc.stderr(),
        unused_service_rate=u_acc.mean(),
        stderr_unused_service=u_acc.stderr(),
        mean_perp_norm_r=mean_perp,
        mean_par_norm=float(par.mean()) if par.size else float("nan"),
        perp_samples=perp,
        par_samples=par,
        drift_samples=drift,
        qu_dot_violation=qu_violation,
        conservation_ok=conservation_ok,
        departure_rate=(departures / measured).reshape(n, n),
        records=records,
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
