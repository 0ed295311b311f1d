"""Arrival-process models for the saturated-port base family.

A model holds a base rate matrix nu on the fully loaded face (all row and
column sums equal to 1) and a load parameter epsilon in (0, 1); the per-queue
mean is (1 - epsilon) * nu_ij.  Three integer-valued laws are supported, each
with exact analytic moments and a support bound a_max.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .wlinalg import CostMatrix, cdot, col_generator, row_generator

__all__ = [
    "ArrivalModel",
    "MomentVector",
    "face_check",
    "law_moments",
    "uniform_nu",
    "KINDS",
]

KINDS = ("bernoulli", "uniform-integer", "truncated-poisson")

FACE_TOL = 1e-12


def uniform_nu(n: int) -> np.ndarray:
    return np.full((n, n), 1.0 / n)


def face_check(nu, cost: CostMatrix | None = None) -> bool:
    """True iff nu sits on the fully loaded face.

    The face pairing conditions reduce to unit row and column sums, so the
    answer does not depend on the weights; passing a cost matrix evaluates
    the pairings literally instead (used to assert that independence).
    """
    nu = np.asarray(nu, dtype=float)
    if nu.ndim != 2 or nu.shape[0] != nu.shape[1]:
        return False
    if np.any(nu < 0):
        return False
    n = nu.shape[0]
    if cost is not None:
        row = [cdot(nu, row_generator(cost, i), cost) for i in range(n)]
        col = [cdot(nu, col_generator(cost, j), cost) for j in range(n)]
        sums = np.array(row + col)
    else:
        sums = np.concatenate([nu.sum(axis=1), nu.sum(axis=0)])
    return bool(np.all(np.abs(sums - 1.0) <= FACE_TOL))


@dataclass
class MomentVector:
    mean: np.ndarray
    var: np.ndarray
    second_moment: np.ndarray

    def __post_init__(self):
        if np.any(self.var < -1e-15):
            raise ValueError("negative variance")


def _trunc_poisson_pmf(rate: float, a_max: int) -> np.ndarray:
    k = np.arange(a_max + 1)
    logp = k * np.log(rate) - rate - np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, a_max + 1))]))
    p = np.exp(logp - logp.max())
    return p / p.sum()


def _trunc_poisson_mean(rate: float, a_max: int) -> float:
    if rate <= 0:
        return 0.0
    p = _trunc_poisson_pmf(rate, a_max)
    return float((np.arange(a_max + 1) * p).sum())


def _calibrate_trunc_poisson(target: float, a_max: int) -> float:
    """Rate whose a_max-truncated Poisson law has the requested mean."""
    if target <= 0:
        raise ValueError("target mean must be positive")
    if target >= a_max:
        raise ValueError(f"target mean {target} not reachable with support bound {a_max}")
    hi = max(4.0 * target, 1.0)
    while _trunc_poisson_mean(hi, a_max) < target:
        hi *= 2.0
    return brentq(lambda r: _trunc_poisson_mean(r, a_max) - target, 1e-300, hi, xtol=1e-15, rtol=1e-15)


def _per_distinct(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` of every entry of ``x``, evaluated once per distinct value."""
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([fn(float(v)) for v in values])[inverse].reshape(x.shape)


def _trunc_poisson_rates(mean: np.ndarray, a_max: int) -> np.ndarray:
    """Calibrated rate of every entry of ``mean``, one solve per distinct value."""
    return _per_distinct(lambda m: _calibrate_trunc_poisson(m, a_max), mean)


def law_moments(kind: str, mean: np.ndarray, a_max: int, rates: np.ndarray | None = None) -> MomentVector:
    """Analytic moments of one arrival law given its (entrywise) mean.

    bernoulli: E[A^2] = mean.  uniform-integer is a zero-inflated uniform on
    {0..a_max} hit with probability q = 2 mean / a_max, so E[A^2] =
    q * a_max (2 a_max + 1) / 6.  truncated-poisson moments come from the
    renormalized pmf at the calibrated rates.
    """
    mean = np.array(mean, dtype=float)
    if kind == "bernoulli":
        second = mean.copy()
    elif kind == "uniform-integer":
        q = 2.0 * mean / a_max
        if np.any(q > 1.0 + 1e-12):
            raise ValueError("mean not reachable: need a_max >= 2 * mean")
        second = q * a_max * (2 * a_max + 1) / 6.0
    elif kind == "truncated-poisson":
        if rates is None:
            rates = _trunc_poisson_rates(mean, a_max)
        k2 = np.arange(a_max + 1) ** 2
        second = _per_distinct(lambda r: float((k2 * _trunc_poisson_pmf(r, a_max)).sum()), rates)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return MomentVector(mean=mean, var=second - mean**2, second_moment=second)


@dataclass(eq=False)
class ArrivalModel:
    """IID per-queue integer arrivals with mean (1 - epsilon) * nu."""

    kind: str
    nu: np.ndarray
    epsilon: float
    a_max: int
    _rates: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        nu = np.array(self.nu, dtype=float)
        if not face_check(nu):
            raise ValueError("nu must have unit row and column sums")
        if nu.min() <= 0:
            raise ValueError("nu must be strictly positive")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.a_max < 1:
            raise ValueError("a_max must be a positive integer")
        nu.flags.writeable = False
        self.nu = nu
        # Feasibility is checked against the epsilon -> 0 mean (nu itself) so
        # that every epsilon in (0, 1), and the limit law, stay realizable.
        # _survival[q, k-1] = P(A_q >= k), k = 1..a_max, queues in row-major
        # order, is the table sample_block inverts.
        mean = self.mean.ravel()
        if self.kind == "bernoulli":
            if self.a_max != 1:
                raise ValueError("bernoulli arrivals have support bound 1")
            if nu.max() > 1.0:
                raise ValueError("bernoulli mean above 1")
            S = mean[:, None]
        elif self.kind == "uniform-integer":
            if 2.0 * nu.max() / self.a_max > 1.0:
                raise ValueError("mean not reachable: need a_max >= 2 * nu")
            # Zero-inflated uniform: P(A = k) = q / (a_max + 1) for k >= 1.
            q = 2.0 * mean / self.a_max
            k = np.arange(1, self.a_max + 1)
            S = q[:, None] * (self.a_max + 1 - k) / (self.a_max + 1)
        else:
            if nu.max() >= self.a_max:
                raise ValueError("need nu < a_max for the truncated law")
            self._rates = _trunc_poisson_rates(self.mean, self.a_max)
            rates, inverse = np.unique(self._rates.ravel(), return_inverse=True)
            pmf = np.array([_trunc_poisson_pmf(float(r), self.a_max) for r in rates])
            # Tail sums added from the top, so small tails keep their digits.
            S = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1][inverse, 1:]
        S.flags.writeable = False
        self._survival = S

    # -------- constructors --------

    @classmethod
    def bernoulli(cls, nu, epsilon: float) -> "ArrivalModel":
        return cls(kind="bernoulli", nu=nu, epsilon=epsilon, a_max=1)

    @classmethod
    def uniform_integer(cls, nu, epsilon: float, a_max: int = 2) -> "ArrivalModel":
        return cls(kind="uniform-integer", nu=nu, epsilon=epsilon, a_max=a_max)

    @classmethod
    def truncated_poisson(cls, nu, epsilon: float, a_max: int = 10) -> "ArrivalModel":
        return cls(kind="truncated-poisson", nu=nu, epsilon=epsilon, a_max=a_max)

    # -------- accessors --------

    @property
    def n(self) -> int:
        return self.nu.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return (1.0 - self.epsilon) * self.nu

    def moments(self) -> MomentVector:
        """Exact mean / variance / second moment of the configured law."""
        return law_moments(self.kind, self.mean, self.a_max, rates=self._rates)

    def limit_moments(self) -> MomentVector:
        """Moments of the epsilon -> 0 law (mean nu); variance limit used in
        the heavy-traffic constant."""
        return law_moments(self.kind, self.nu, self.a_max)

    # -------- sampling --------

    def sample_block(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """(count, n*n) int64 array of independent slots, by inverse transform
        (Devroye 1986, ch. II): one uniform u per queue-slot, A = #{k : u <
        P(A >= k)}.  So the arrivals depend only on how many slots have been
        drawn, not on how they are split between calls."""
        S = self._survival
        u = rng.random((count, len(S)))
        A = np.zeros(u.shape, dtype=np.int64)
        for tail in S.T:
            A += u < tail
        return A

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One slot of arrivals as an (n, n) integer matrix."""
        return self.sample_block(rng, 1)[0].reshape(self.n, self.n)
