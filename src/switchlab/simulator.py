"""Slotted-time evolution of the switch under cost-weighted MaxWeight.

Per slot: the schedule is chosen from Q(t), arrivals of the slot are drawn,
service tokens granted to queues with nothing to send become unused service,
and

    Q(t+1) = Q(t) + A(t) - S(t) + U(t),   U_ij = max(0, S_ij - Q_ij - A_ij).

Arrivals of a slot are servable within the slot, which is exactly what makes
<Q(t+1), U(t)> vanish identically.

``run`` drives a long replication chunk by chunk through one of two slot
loops, each doing per slot only what the next slot needs: the schedule from
Q(t), the arrivals, the service, and a record.  Exact enumeration at n <= 5
runs in ``_exact_engine``, Python source generated for n (``_slot_kernel``),
straight-line code over local variables that makes the exact kernel's
choices and tie-break draws bit for bit; it records only each slot's
permutation position and its rare unused-service events, and rebuilds the
chunk's Q(t+1) rows from them with one cumsum, its loop's own end state in
the last row.  Every other n runs ``_array_engine``, which keeps the queues
as rows of the chunk's trajectory and serves each slot there in place; only
its per-slot solver depends on ``matcher_mode``: ``scheduling``'s numpy
argmax kernel and ``break_tie`` at n = 6 and 7, the shuffled Hungarian rule,
whose shuffles a chunk draws at once (``_hungarian_chunk``), above that.
``_reduce_chunk`` then turns each chunk of records into unused service,
per-slot checks of the update, batch-means statistics and cone-projection
samples with array operations, the same code for both engines, and passes
the chunk's slot records to ``RunConfig.record`` if set; the samples of a
run fill arrays allocated once, and so does every chunk: arrivals,
trajectory and scratch are buffers of one chunk that the run reuses.
``step`` is the single-slot reference: it updates the queues with
``_serve``, which also lists the unused service, so replaying a ``run``
through ``step`` checks both loops and the reduction slot for slot.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .scheduling import Schedule, argmax_kernel, break_tie, matcher_mode, perm_table
from .scheduling import _hungarian_chunk, max_weight_schedule
# Not called here; perfbench/spans.py traces the Hungarian solver at this name.
from .scheduling import hungarian_schedule
from .traffic import ArrivalModel
from .wlinalg import _FACE_MAX_N, CostMatrix, project_cone

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
# A run allocates the working set of one chunk once (arrival buffers,
# trajectory, served indices, reduction scratch; about 2.5 MB at n = 2) and
# reuses it for every chunk, so no chunk maps fresh pages.
_CHUNK = 65536
# Tie-break uniforms exact enumeration draws at a time; a run's first tie
# draws a block.  A warm 30-slot n = 2 run took 2.1 ms with blocks of 65536
# and 0.7 ms with 1024, whose uniforms cost no more each (17 against 21 ns,
# drawn and listed).
_TIE_BLOCK = 1024
# Samples within this relative distance of kappa count as perp norm >= kappa.
_KAPPA_RTOL = 1e-9
# Largest n whose exact enumeration runs the generated slot loop
# (``_exact_engine``); above it ``_array_engine`` runs.  Serial ``run``,
# checker(1, 2) costs, Bernoulli eps = 0.05, no SSC samples, 2-vCPU host,
# process CPU, medians of 3 in three processes: at n = 5 the generated loop
# reaches 124-139k slots/s against 59-99k for the array engine; at n = 6 (720
# weights; the generated loop then needs its positions in an array('H'))
# 27-31k against 55-61k.
_GENERATED_MAX_N = 5


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
    """One slot from ``step``: ``t`` an int, ``A``, ``S``, ``U`` and the queues
    after it ``Q`` (n, n) int64, ``weighted_qsum`` a float.  ``run`` hands
    ``RunConfig.record`` each chunk of m slots in order as one record with a
    leading slot axis: ``t`` (m,), ``A``, ``S``, ``U``, ``Q`` (m, n, n) int64,
    ``weighted_qsum`` (m,) float64; its ``Q`` is the trajectory that
    ``_reduce_chunk`` has checked against Q(t+1) = Q(t) + A(t) - S(t) + U(t)."""
    t: int | np.ndarray
    A: np.ndarray
    S: np.ndarray
    U: np.ndarray
    Q: np.ndarray
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
        if self.c.n > _FACE_MAX_N:
            # Every run projects at least one SSC sample, which above
            # _FACE_MAX_N calls scipy's nnls (and above EXACT_MAX_N each slot
            # its linear_sum_assignment); those functions import the module
            # on first call.  Loading it here, where a sweep builds its runs
            # before a pool starts, lets forked workers inherit it instead of
            # each importing it again for every pool.
            import scipy.optimize  # noqa: F401


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
    the same bits from ``_weighted_sums``, which adds each row's products
    one at a time, in the same order, from the first (costs are > 0 and
    q >= 0, so the loop's first 0.0 + term is term); a sum, dot or matmul
    may add in another order."""
    w = 0.0
    for c, x in zip(c_flat, q):
        w += c * x
    return w


def _weighted_sums(X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The row sums of the (m, n^2) products X, each added in row-major
    order from its first term, the bits of ``_weighted_sum``, written into
    ``out``, (m,), and returned.  Chosen by shape, for equal bits: while the
    chunk has at least 2 n^2 rows, the columns are added one numpy call
    each; with fewer rows, n^2 calls on short columns cost more than one
    ``np.add.accumulate`` along the rows, which runs in place in X (2-vCPU
    host, full chunks: at n = 12, 455 rows, 0.27 against 0.43 us per row;
    at n = 32, 64 rows, 7.7 against 3.0)."""
    if len(X) < 2 * X.shape[1]:
        np.add.accumulate(X, axis=1, out=X)
        out[:] = X[:, -1]
        return out
    out[:] = X[:, 0]
    for k in range(1, X.shape[1]):
        out += X[:, k]
    return out


def _indicator(idxs, n: int) -> np.ndarray:
    """(n, n) 0/1 matrix with ones at the flat indices ``idxs``, which are
    distinct."""
    return np.bincount(idxs, minlength=n * n).reshape(n, n)


def _wnorms(V: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Weighted norms sqrt(sum_ij c_ij v_ij^2) of a (k, n, n) stack.  Numpy hands each
    (1, n^2) @ (n^2, 1) product to np.vdot's BLAS ddot, so the bits are vdot's."""
    k = len(V)
    return np.sqrt(V.reshape(k, 1, -1) @ (c * V).reshape(k, -1, 1))[:, 0, 0]


def _project_pairs(traj: np.ndarray, idx: np.ndarray, cost: CostMatrix, out: np.ndarray):
    """Project the sampled slots ``idx`` of one chunk, their Q(t) (rows
    ``idx`` of the trajectory ``traj``, (m + 1, n^2)) and their Q(t+1) (rows
    ``idx + 1``), as one ``project_cone`` stack, whose grids each get the
    bits they get alone, and write the samples' perp norms, par norms and
    perp drifts, in slot order, into the rows of ``out``, (3, k).  One stack
    of 2k grids costs two thirds of two stacks of k (n = 2, k = 140)."""
    n = cost.n
    k = len(idx)
    proj = project_cone(traj[np.concatenate((idx, idx + 1))].reshape(-1, n, n), cost)
    perp = _wnorms(proj.perp, cost.c)
    out[:] = perp[:k], _wnorms(proj.parallel[:k], cost.c), perp[k:] - perp[:k]


def _uniforms(rng: np.random.Generator):
    """The tiebreak stream in blocks of ``_TIE_BLOCK``: rng.random(N) yields
    the same values as N calls to rng.random(), the draws
    ``max_weight_schedule`` takes."""
    while True:
        yield from rng.random(_TIE_BLOCK).tolist()


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
    controlled tests; sampled arrivals continue ``run``'s arrival stream.
    An override must fit the state: a schedule of n ports, and arrivals of
    shape (n, n) with nonnegative integer values, or ValueError is raised."""
    Q = state.Q
    n = Q.shape[0]
    if schedule is not None and len(schedule.perm) != n:
        raise ValueError(f"schedule serves {schedule.n} ports, the state has {n}")
    s = schedule if schedule is not None else max_weight_schedule(Q, cost, tiebreak_rng)
    if arrivals is None:
        A = model.sample(arrival_rng)
        a = A.ravel().tolist()
    else:
        A = np.asarray(arrivals)
        if A.shape != (n, n):
            raise ValueError(f"arrivals must have shape {(n, n)}, got {A.shape}")
        if A.dtype != np.int64:
            with np.errstate(invalid="ignore"):  # NaN and inf fail the comparison
                A, given = A.astype(np.int64), A
            if not np.array_equal(A, given):
                raise ValueError("arrivals must be integers")
        a = A.ravel().tolist()
        if min(a) < 0:
            raise ValueError("arrivals must be nonnegative")
    q = Q.ravel().tolist()
    idxs = [i * n + j for i, j in enumerate(s.perm)]
    unused = _serve(q, a, idxs)
    Q_next = np.array(q, dtype=np.int64).reshape(n, n)
    rec = SlotRecord(
        t=state.t,
        A=A,
        S=_indicator(idxs, n),
        U=_indicator(unused, n),
        Q=Q_next,
        weighted_qsum=_weighted_sum(cost._flat_tuple, q),
    )
    # _serve leaves no queue negative: the successor skips the copy and scan
    # that validate a caller's state.
    return QueueState._unchecked(Q_next, state.t + 1), rec


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
    (the rows of ``ssc``, written in place), the callback that takes its
    slot records or None, which ``_reduce_chunk`` feeds one chunk at a time,
    and that function's scratch for chunks of up to ``rows`` slots,
    allocated once."""

    def __init__(self, cost: CostMatrix, warmup: int, batch: int, ssc_stride: int,
                 record: Callable[[SlotRecord], None] | None, rows: int):
        n = cost.n
        n2 = n * n
        self.cost = cost
        self.warmup = warmup
        self.ssc_stride = ssc_stride
        self.t = 0  # slots reduced so far
        # One (rows, n^2) buffer of 8-byte items takes in turn each chunk's
        # uniforms (``run`` draws them into ``products``), then Q(t) + A(t)
        # and its difference to Q(t+1) (``pre``), then the weighted products;
        # each is spent before the next is written.  Then the served
        # entries' flat indices into ``pre`` and their values, and the
        # weighted sums.
        self.products = np.empty((rows, n2))
        self.pre = self.products.view(np.int64)
        self.row_starts = np.arange(0, rows * n2, n2)[:, None]
        self.flat = np.empty((rows, n), dtype=np.intp)
        self.at_served = np.empty((rows, n), dtype=np.int64)
        self.w = np.empty(rows)
        self.w_acc = _BatchAcc(batch)
        self.u_acc = _BatchAcc(batch)
        # Measured slots per queue: served, and served while empty.
        self.served = np.zeros(n2, dtype=np.int64)
        self.unused = np.zeros(n2, dtype=np.int64)
        self.qu_violation = 0.0
        self.conservation_ok = True
        self.ssc = np.empty((3, -(-batch * BATCH_COUNT // ssc_stride)))
        self.record = record


def _reduce_chunk(red: _Reduction, A: np.ndarray, traj: np.ndarray, served: np.ndarray):
    """Fold m recorded slots into ``red``: the arrivals ``A``, (m, n^2), the
    trajectory ``traj``, (m + 1, n^2), whose row 0 is Q(t) of the first slot
    and whose rows 1..m are the queues after each slot, so that Q(t) and
    Q(t+1) are its rows [:-1] and [1:], and the served flat indices
    ``served``, (m, n).  Unused service is read off the trajectory, U(t) =
    [(Q(t) + A(t))[served] == 0], and every slot is checked against Q(t+1) =
    Q(t) + A(t) - S(t) + U(t) >= 0: Q(t) + A(t) - Q(t+1) must be one at each
    served queue that sent a packet and zero elsewhere, which is tested at
    the served entries and by its count of nonzeros.  The exact engine's
    rows are rebuilt from its recorded decisions, bar the last, which is its
    loop's own end state, so there the test checks each unused-service event
    and that end state.  The chunk's ``SlotRecord`` goes to ``red.record``
    as arrays of its own; the arguments are only read, and ``red`` keeps no
    view of them."""
    cost = red.cost
    n = cost.n
    n2 = n * n
    m = len(A)
    t0 = red.t
    Q, Qn = traj[:-1], traj[1:]
    pre = np.add(Q, A, out=red.pre[:m])
    flat = np.add(served, red.row_starts[:m], out=red.flat[:m])  # into the (m, n^2) rows
    # The served indices are in range by construction, and mode "raise"
    # would buffer the output of each take.
    s = np.take(pre.reshape(-1), flat, out=red.at_served[:m], mode="wrap")
    u = s == 0
    sent = s > 0
    d = np.subtract(pre, Qn, out=pre)
    if (not np.array_equal(np.take(d.reshape(-1), flat, out=s, mode="wrap"), sent)
            or np.count_nonzero(d) != np.count_nonzero(sent) or Qn.min() < 0):
        red.conservation_ok = False
    if u.any():
        k = served[u]
        q_unused = Qn.reshape(-1).take(flat[u])
        red.qu_violation = max(red.qu_violation, float(np.abs(cost.flat[k] * q_unused).max()))

    off = min(m, max(0, red.warmup - t0))  # first measured row
    lo = 0 if red.record is not None else off
    w = _weighted_sums(np.multiply(cost.flat, Qn[lo:], out=red.products[:m - lo]), red.w[:m - lo])
    if off < m:
        red.w_acc.extend(w[off - lo:])
        # Unused service per slot: a bool @ int64 matmul gives u.sum(axis=1)
        # at about a quarter of its cost (3.5 against 14 ns/slot at n = 2).
        red.u_acc.extend(u[off:] @ np.ones(n, dtype=np.int64))
        red.served += np.bincount(served[off:].ravel(), minlength=n2)
        red.unused += np.bincount(served[off:][u[off:]], minlength=n2)
        # SSC samples are taken at every ssc_stride-th measured slot.
        stride = red.ssc_stride
        j = -(-(t0 + off - red.warmup) // stride)  # samples of the chunks before
        idx = np.arange(red.warmup + j * stride - t0, m, stride)
        if idx.size:
            _project_pairs(traj, idx, cost, red.ssc[:, j:j + idx.size])

    if red.record is not None:
        S, U = (np.zeros((m, n, n), dtype=np.int64) for _ in range(2))
        np.put(S, flat, 1)
        np.put(U, flat, u)
        A, Qn = (x.reshape(m, n, n).copy() for x in (A, Qn))
        red.record(SlotRecord(np.arange(t0, t0 + m, dtype=np.int64), A, S, U, Qn, w.copy()))
    red.t = t0 + m


@lru_cache(maxsize=None)
def _slot_kernel(n: int):
    """The exact engine's slot loop for n <= ``_GENERATED_MAX_N``, generated
    for n ports as straight-line code over local variables and compiled on
    first use: ``slots(c, q, uniform, rows)`` runs one slot per arrival row of
    ``rows`` (sequences of n^2 ints) from the flat queue list ``q`` under the
    flat costs ``c``, writes the queues back into ``q`` and returns what the
    slots decided: a ``bytearray`` of the chosen positions in
    ``perm_table(n)``, one per slot, and the list of unused-service events,
    each the flat index ``slot * n^2 + k`` of a served queue k that had no
    packet.

    The source is built from n and ``perm_table(n).pidx`` alone; the costs
    come in as an argument.  Each slot makes the choice of ``break_tie(
    argmax_kernel(cost)(q), uniform)`` bit for bit.  Every weight is the sum
    of the products m_k = c_k * q_k in the kernel's row order (c > 0 and
    q >= 0, so its first 0.0 + term is term); from n = 4 the sums of rows
    0..r, r <= n - 3, are formed once as locals ``s<columns>`` shared by every
    schedule that starts with those columns, and each weight adds its last
    two products to its prefix: the same additions in the same order.  One
    pass over the weights keeps the maximiser, and from the first tie on the
    ascending list of tied maximisers; a unique maximiser draws nothing, and
    a tie draws one uniform to index that list.  Arrivals join, then each
    served queue sends one packet if it has one, or records its event.
    """
    pidx = perm_table(n).pidx
    perms = range(len(pidx))
    lines: list[str] = []

    def emit(depth: int, *code: str):
        lines.extend("    " * depth + line for line in code)

    def names(prefix: str) -> str:
        return ", ".join(f"{prefix}{k}" for k in range(n * n))

    def serve(lo: int, hi: int, depth: int):
        # A balanced branch on p down to one permutation's served queues.
        # len(ps) is the slot's index until its position is appended.
        if hi - lo == 1:
            for k in pidx[lo]:
                emit(depth, f"if q{k}:", f"    q{k} -= 1", "else:",
                     f"    record_u(len(ps) * {n * n} + {k})")
            return
        mid = (lo + hi) // 2
        emit(depth, f"if p < {mid}:")
        serve(lo, mid, depth + 1)
        emit(depth, "else:")
        serve(mid, hi, depth + 1)

    emit(0, "def slots(c, q, uniform, rows):")
    emit(1, f"{names('c')} = c", f"{names('q')} = q",
         "ps = bytearray()", "us = []", "record_p = ps.append", "record_u = us.append")
    emit(1, f"for {names('a')} in rows:")
    # Each product c_k * q_k enters (n - 1)! weights; form it once.
    emit(2, *(f"m{k} = c{k} * q{k}" for k in range(n * n)))
    if n == 2:
        emit(2, *(f"w{p} = " + " + ".join(f"m{k}" for k in pidx[p]) for p in perms))
        # A tie at n = 2 holds both schedules, so ties[i] is i.
        emit(2, "if w0 > w1:", "    p = 0", "elif w1 > w0:", "    p = 1",
             "else:", "    p = int(uniform() * 2)")
    else:
        emit(2, "ties = None")
        for p in perms:
            idxs = pidx[p]
            # The sum of rows 0..r, r <= n - 3, is formed once, by the first
            # schedule (in ascending order) that starts with those columns.
            prefix = f"m{idxs[0]}"
            for r in range(1, n - 2):
                name = "s" + "".join(str(k % n) for k in idxs[:r + 1])
                if p == 0 or pidx[p - 1][:r + 1] != idxs[:r + 1]:
                    emit(2, f"{name} = {prefix} + m{idxs[r]}")
                prefix = name
            emit(2, f"w = {prefix} + " + " + ".join(f"m{k}" for k in idxs[max(1, n - 2):]))
            if p == 0:
                emit(2, "best = w", "p = 0")
                continue
            emit(2, "if w >= best:", "    if w > best:", "        best = w", f"        p = {p}",
                 "        ties = None", "    elif ties:", f"        ties.append({p})",
                 "    else:", f"        ties = [p, {p}]")
        emit(2, "if ties:", "    p = ties[int(uniform() * len(ties))]")
    emit(2, *(f"q{k} += a{k}" for k in range(n * n)))
    serve(0, len(pidx), 2)
    emit(2, "record_p(p)")
    emit(1, f"q[:] = {names('q')}", "return ps, us")
    namespace: dict = {}
    exec(compile("\n".join(lines) + "\n", f"<slot kernel n={n}>", "exec"), namespace)
    return namespace["slots"]


def _exact_engine(cost: CostMatrix, tiebreak_rng: np.random.Generator):
    """The recursion of the exact engine at n <= ``_GENERATED_MAX_N``:
    ``advance(A, counts, traj, served)`` runs the slots of the arrival rows
    ``A`` (int64; ``counts`` holds the same counts in their narrow type) from
    Q(t0) in row 0 of ``traj`` and writes Q(t+1) into its rows 1..m and the
    served flat indices into ``served``.  The slots run in the generated
    ``_slot_kernel(n)``, which makes the choices of ``max_weight_schedule``
    from the same tiebreak stream on queues that are Python ints, which beat
    array operations on so few, kept in a list between chunks.  The loop
    reads counts of one byte (a_max < 256) as the bytes of ``counts``, which
    is cheaper than listing ``A`` (291 against 310 ns per n = 2 slot).

    The loop records only what each slot decided, its position p and its
    rare unused-service events; ``advance`` rebuilds the chunk's Q(t+1) rows
    as Q(t0) + cumsum(A - S_of[p] + U), in place in ``traj``, and puts the
    loop's own final queues in the last row, so ``_reduce_chunk``'s update
    check covers every event and the loop's end state."""
    n2 = cost.n * cost.n
    served_of = np.array(perm_table(cost.n).pidx, dtype=np.intp)
    S_of = np.zeros((len(served_of), n2), dtype=np.int64)
    np.put_along_axis(S_of, served_of, 1, axis=1)
    queues = [0] * n2
    uniform = _uniforms(tiebreak_rng).__next__
    slots = partial(_slot_kernel(cost.n), cost._flat_tuple, queues, uniform)

    def advance(A: np.ndarray, counts: np.ndarray, traj: np.ndarray, served: np.ndarray):
        feed = counts.tobytes() if counts.itemsize == 1 else A.ravel().tolist()
        ps, us = slots(zip(*[iter(feed)] * n2))
        p = np.asarray(ps)
        # Positions are in range by construction; mode "raise" would buffer
        # the output of each take.
        Qn = np.take(S_of, p, axis=0, out=traj[1:], mode="wrap")
        np.subtract(A, Qn, out=Qn)
        Qn.reshape(-1)[np.array(us, dtype=np.intp)] += 1
        np.cumsum(traj, axis=0, out=traj)
        Qn[-1] = queues
        np.take(served_of, p, axis=0, out=served, mode="wrap")

    return advance


def _array_engine(cost: CostMatrix, tiebreak_rng: np.random.Generator, mode: str):
    """The recursion of every n that ``_exact_engine`` does not serve, with
    its ``advance`` signature; the queues are rows of ``traj``.  Each slot takes its served
    flat indices from ``solve(r, q)``, adds its arrivals to Q(t) into the
    next row and serves there in place, max(q + a - 1, 0) at the served
    queues, so that row is Q(t+1).  At ``mode == "hungarian"`` each chunk
    draws its slots' shuffles at once (``_hungarian_chunk``, the rule
    ``max_weight_schedule`` applies one slot at a time); otherwise every slot
    takes ``break_tie(argmax_kernel(cost)(q), uniform)`` from the tiebreak
    stream, the choice of exact enumeration."""
    n = cost.n
    if mode == "hungarian":
        solver = partial(_hungarian_chunk, cost, rng=tiebreak_rng)
    else:
        served_of = np.array(perm_table(n).pidx, dtype=np.intp)
        ties_of, uniform = argmax_kernel(cost), _uniforms(tiebreak_rng).__next__
        solver = lambda m: lambda r, q: served_of[break_tie(ties_of(q), uniform)]
    # Array operands, getitem and setitem: Python int operands (converted on
    # every call) and q.take/q.put cost about 2 us more of an n = 16 slot.
    one, zero = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)

    def advance(A: np.ndarray, counts: np.ndarray, traj: np.ndarray, served: np.ndarray):
        solve = solver(len(A))
        q = traj[0]
        for r, a in enumerate(A):
            idxs = served[r] = solve(r, q)
            q = np.add(q, a, out=traj[r + 1])
            q[idxs] = np.maximum(q[idxs] - one, zero)

    return advance


def run(cfg: RunConfig) -> RunStats:
    """Simulate one replication and summarize it.

    Deterministic given (seed, stream_key).  The measured window is trimmed
    down to a multiple of BATCH_COUNT so every batch has equal size.

    One loop over chunks of ``max(1, _CHUNK // n^2)`` slots: sample the
    chunk's arrivals (one draw, so about ``_CHUNK`` queue entries at any n),
    advance, reduce.  The engine (``_exact_engine`` for exact enumeration at
    n <= ``_GENERATED_MAX_N``, else ``_array_engine`` with the solver of
    ``matcher_mode(n)``) runs the slots in order and does only what the next
    slot depends on: schedule from Q(t), add the arrivals, serve, and record
    (the generated loop its decisions, from which it rebuilds Q(t+1); the
    array engine Q(t+1) itself), and hands on Q(t+1) and the served queues.
    ``_reduce_chunk`` computes unused service, the slot checks, the batch
    means, the served and unused counts and the SSC samples with numpy, for
    both engines alike, and builds each chunk's slot records for
    ``cfg.record`` only when that is set.  Chunk edges change no output bit.

    A run allocates its chunk working set once, for ``min(rows, total)``
    slots: the arrival buffers (uniforms, narrow counts, int64 counts) that
    ``ArrivalModel._sample_into`` fills, a trajectory buffer of one row more
    whose row 0 holds Q(t0) and rows 1..m the chunk's Q(t+1), so that Q(t)
    and Q(t+1) are two views of it, the served indices and the reduction's
    scratch, one buffer of which also takes the uniforms.  A chunk's last
    row becomes the next chunk's row 0.

    SSC sampling projects the sampled Q(t) and Q(t+1) rows of a chunk as
    one ``project_cone`` stack, so it keeps no state between chunks and
    draws no random numbers.
    """
    cost, model = cfg.c, cfg.model
    n = cost.n
    n2 = n * n
    batch = cfg.measured // BATCH_COUNT
    measured = batch * BATCH_COUNT
    arrival_rng, tiebreak_rng = derive_rngs(cfg.seed, cfg.stream_key)
    mode = matcher_mode(n)
    if mode == "exact-enumeration" and n <= _GENERATED_MAX_N:
        advance = _exact_engine(cost, tiebreak_rng)
    else:
        advance = _array_engine(cost, tiebreak_rng, mode)
    total = cfg.warmup + measured
    rows = min(max(1, _CHUNK // n2), total)
    red = _Reduction(cost, cfg.warmup, batch, cfg.ssc_stride, cfg.record, rows)
    u = red.products  # spent once the arrivals are counted
    counts = np.empty((rows, n2), dtype=model._count_type)
    A = np.empty((rows, n2), dtype=np.int64)
    traj = np.zeros((rows + 1, n2), dtype=np.int64)
    served = np.empty((rows, n), dtype=np.intp)

    for t0 in range(0, total, rows):
        m = min(rows, total - t0)
        model._sample_into(arrival_rng, u[:m], counts[:m], A[:m])
        advance(A[:m], counts[:m], traj[:m + 1], served[:m])
        _reduce_chunk(red, A[:m], traj[:m + 1], served[:m])
        traj[0] = traj[m]

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
