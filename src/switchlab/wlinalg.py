"""Dense linear algebra on the n x n queue grid under an entrywise-weighted
inner product.

Every vector lives in R^(n^2) and is handled as an (n, n) float array; for a
fixed positive weight matrix c the inner product is

    cdot(x, y) = sum_ij c_ij * x_ij * y_ij.

The module provides the two projections the analytics and simulator modules
are built on:

* ``project_space``: orthogonal projection onto the "port-sum" subspace of
  vectors of the form x_ij = (w_i + wt_j) / c_ij with w, wt real, computed
  through a Gram system that ``CostMatrix`` factors once and caches.
* ``project_cone``: nearest point in the cone obtained by restricting
  w, wt >= 0, certified by the KKT conditions of the projection.  It takes
  one grid or a stack of them.  Up to ``_FACE_MAX_N`` ports it enumerates
  the generator faces, vectorised over the stack; above, it runs
  Lawson-Hanson nonnegative least squares grid by grid.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgWarning, cho_factor, cho_solve, lu_factor, lu_solve
from scipy.linalg.lapack import dposv
from scipy.optimize import nnls

__all__ = [
    "CostMatrix",
    "ConeProjection",
    "SingularMatrixError",
    "cdot",
    "cnorm2",
    "solve_dense",
    "project_space",
    "project_cone",
    "cone_kkt_residual",
    "row_generator",
    "col_generator",
    "unit_vector",
    "complement_basis_vector",
]

# Pivots below PIVOT_RTOL * max|A| are treated as zero in solve_dense.
PIVOT_RTOL = 1e-12
# project_cone enumerates the 2^(2n) - 1 generator faces up to this port
# count and runs NNLS per grid above it.  Measured per grid, in stacks of
# 1300 queue states of eps 0.05 and 0.3 runs (unit and random costs):
# enumeration 2-3 us against NNLS 44-52 us at n = 2, 5-17 us against
# 44-55 us at n = 3, but 27-123 us against 59-63 us at n = 4, where the
# sparser states of eps 0.3 reach the small faces late.
_FACE_MAX_N = 3


class SingularMatrixError(ValueError):
    """Raised when a linear system is singular to working tolerance."""


@dataclass(eq=False)
class CostMatrix:
    """Strictly positive per-queue weights defining the inner product."""

    c: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"cost matrix must be square, got shape {c.shape}")
        if c.shape[0] < 2:
            raise ValueError("port count must be at least 2")
        if not np.all(np.isfinite(c)) or not np.all(c > 0):
            raise ValueError("all cost entries must be finite and > 0")
        c.flags.writeable = False
        self.c = c

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def flat(self) -> np.ndarray:
        return self.c.ravel()

    @cached_property
    def _flat_tuple(self) -> tuple[float, ...]:
        """The row-major costs as Python floats, for per-slot Python loops."""
        return tuple(self.flat.tolist())

    @property
    def cmax(self) -> float:
        return float(self.c.max())

    @cached_property
    def _generators(self) -> np.ndarray:
        """The (n^2, 2n) matrix of the n row then n column generators of the
        port-sum subspace, read-only: both projection systems share it.  Its
        columns have exactly one linear dependency: both halves sum to 1/c."""
        n = self.n
        gens = [row_generator(self, i).ravel() for i in range(n)]
        gens += [col_generator(self, j).ravel() for j in range(n)]
        gen = np.array(gens).T
        gen.flags.writeable = False
        return gen

    @cached_property
    def _space_system(self) -> tuple[np.ndarray, tuple]:
        """Constants of ``project_space``: the 2n-1 independent generators Z
        (all but the last column generator) and the Cholesky factor of their
        weighted Gram matrix Z^T diag(c) Z."""
        Z = self._generators[:, : 2 * self.n - 1]
        return Z, cho_factor(Z.T @ (self.flat[:, None] * Z))

    @cached_property
    def _cone_system(self) -> tuple[np.ndarray, ...]:
        """Constants of ``project_cone``: the generators (whose transpose maps
        x - p to the duals <x - p, g_k>), the same scaled by sqrt(c) so that
        the weighted norm becomes the Euclidean one, its Gram matrix, sqrt(c),
        and row k of ~eye(2n) to drop generator k."""
        gen = self._generators
        sqrt_c = np.sqrt(self.flat)
        A = sqrt_c[:, None] * gen
        return gen, A, A.T @ A, sqrt_c, ~np.eye(2 * self.n, dtype=bool)

    @cached_property
    def _face_system(self) -> list[tuple[np.ndarray, ...]]:
        """Constants of the face enumeration of ``project_cone``, one entry
        per face size, largest first, faces in ``itertools.combinations``
        order within a size.  A face is a proper subset S of the 2n
        generators, so its generators are independent.  Each entry holds, per
        face, the membership mask (2n,), the solve matrix Gram_S^-1 A_S^T
        that maps b to the coefficients (2n, n^2), and Gram_S^-1 (2n, 2n),
        both zero off the face."""
        _, A, gram, _, _ = self._cone_system
        m = 2 * self.n
        groups = []
        for size in range(m - 1, -1, -1):
            faces = list(itertools.combinations(range(m), size))
            member = np.zeros((len(faces), m), dtype=bool)
            solve = np.zeros((len(faces), m, A.shape[0]))
            inv = np.zeros((len(faces), m, m))
            for f, face in enumerate(faces):
                if not face:
                    continue
                face = list(face)
                cho = cho_factor(gram[np.ix_(face, face)])
                member[f, face] = True
                solve[f, face] = cho_solve(cho, A[:, face].T)
                inv[f][np.ix_(face, face)] = cho_solve(cho, np.eye(size))
            groups.append((member, solve, inv))
        return groups


def _as_grid(x, n: int) -> np.ndarray:
    """Coerce a vector to an (n, n) float array, row-major."""
    a = np.asarray(x, dtype=float)
    if a.shape == (n, n):
        return a
    if a.shape == (n * n,):
        return a.reshape(n, n)
    raise ValueError(f"expected a {n}x{n} grid or length-{n*n} vector, got shape {a.shape}")


def cdot(x, y, cost: CostMatrix) -> float:
    """Weighted inner product sum_ij c_ij x_ij y_ij.

    x*y is formed first so the result is exactly symmetric in (x, y).
    """
    n = cost.n
    return float((cost.c * (_as_grid(x, n) * _as_grid(y, n))).sum())


def cnorm2(x, cost: CostMatrix) -> float:
    """Squared weighted norm; 0 iff x == 0."""
    n = cost.n
    g = _as_grid(x, n)
    return float((cost.c * g * g).sum())


def unit_vector(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n))
    e[i, j] = 1.0
    return e


def row_generator(cost: CostMatrix, i: int) -> np.ndarray:
    """Generator with 1/c_ij across input row i, zero elsewhere."""
    g = np.zeros((cost.n, cost.n))
    g[i, :] = 1.0 / cost.c[i, :]
    return g


def col_generator(cost: CostMatrix, j: int) -> np.ndarray:
    """Generator with 1/c_ij down output column j, zero elsewhere."""
    g = np.zeros((cost.n, cost.n))
    g[:, j] = 1.0 / cost.c[:, j]
    return g


def complement_basis_vector(cost: CostMatrix, i: int, j: int) -> np.ndarray:
    """Basis vector of the orthogonal complement of the port-sum subspace.

    For i, j in [0, n-1) it has a +1 block entry at (i, j), -1 at (i, n-1)
    and (n-1, j), and +1 at (n-1, n-1); its weighted inner product with every
    row/column generator vanishes.
    """
    n = cost.n
    if not (0 <= i < n - 1 and 0 <= j < n - 1):
        raise ValueError("complement basis indices run over the leading (n-1)x(n-1) block")
    b = np.zeros((n, n))
    b[i, j] = 1.0
    b[i, n - 1] = -1.0
    b[n - 1, j] = -1.0
    b[n - 1, n - 1] = 1.0
    return b


def solve_dense(A, b) -> np.ndarray:
    """Solve a small dense square system by LU with partial pivoting.

    Raises SingularMatrixError when any pivot falls below
    PIVOT_RTOL * max|A|.
    """
    A = np.array(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if b.shape[0] != A.shape[0]:
        raise ValueError("right-hand side length does not match matrix")
    amax = float(np.abs(A).max())
    if amax == 0.0:
        raise SingularMatrixError("zero matrix")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(A)
    if float(np.abs(np.diag(lu)).min()) < PIVOT_RTOL * amax:
        raise SingularMatrixError("matrix is singular to working tolerance")
    return lu_solve((lu, piv), b)


def project_space(x, cost: CostMatrix):
    """Split x into its port-sum component and the orthogonal remainder.

    Returns (parallel, perp) with parallel + perp == x and
    cdot(parallel, perp) == 0 up to roundoff.
    """
    g = _as_grid(x, cost.n)
    Z, cho = cost._space_system
    u = cho_solve(cho, Z.T @ (cost.flat * g.ravel()))
    parallel = (Z @ u).reshape(cost.n, cost.n)
    return parallel, g - parallel


@dataclass
class ConeProjection:
    """Result of projecting onto the nonnegative port-sum cone.  For a stack
    of grids every array has a leading stack axis.  ``sweeps`` counts the
    solves, summed over a stack: one per grid when the faces are enumerated,
    the NNLS solves otherwise."""

    parallel: np.ndarray
    perp: np.ndarray
    w: np.ndarray
    wt: np.ndarray
    sweeps: int


def _exact_residual(y: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """y_ij - (w_i + wt_j) for coef = (w, wt) >= 0, with the sum carried
    exactly (Dekker's Fast2Sum, larger term first), so the residual stays
    accurate where it cancels to a few units and w_i + wt_j is large.
    Leading axes of y and coef broadcast."""
    n = y.shape[-1]
    w, wt = coef[..., :n, None], coef[..., None, n:]
    hi, lo = np.maximum(w, wt), np.minimum(w, wt)
    s = hi + lo
    return (y - s) - (lo - (s - hi))


def _add_terms(terms) -> np.ndarray:
    """Sum of equal-shape arrays, added one at a time in the given order.
    Each element of the result depends on its own terms only, never on the
    stack it sits in, as a BLAS product across the stack axis may."""
    it = iter(terms)
    total = next(it)
    for t in it:
        total = total + t
    return total


def _enumerate_faces(g: np.ndarray, cost: CostMatrix) -> np.ndarray:
    """Coefficients (B, 2n) of the projections of a stack (B, n, n), by face
    enumeration.

    Each grid takes the first face, in ``_face_system`` order, whose least
    squares coefficients are > 0 on the face (primal test) and whose duals
    <x - p, g_k> off the face are <= 1e-9 (1 + sum|b|) (dual test, from the
    exact residual): the KKT conditions of the projection.  Largest faces come
    first, so a generator with a small positive coefficient is not dropped
    within the dual tolerance.  The grids that pass leave the stack before
    the next face size is tried.  The accepted face then gets one step of
    iterative refinement, as in ``_nnls_coef``."""
    n = cost.n
    m = 2 * n
    _, _, _, sqrt_c, _ = cost._cone_system
    y = cost.c * g
    b = sqrt_c * g.reshape(len(g), n * n)
    cinv = 1.0 / cost.c
    tol = 1e-9 * (1.0 + _add_terms(np.abs(b).T))
    coef = np.zeros((b.shape[0], m))
    todo = np.arange(b.shape[0])
    for member, solve, inv in cost._face_system:
        yt, bt = y[todo], b[todo]
        # (T, F, 2n): coefficients of every face of this size, zero off it.
        cf = _add_terms(solve[None, :, :, k] * bt[:, None, None, k] for k in range(n * n))
        rg = _exact_residual(yt[:, None], cf) * cinv
        dual = np.concatenate(
            [_add_terms(rg[..., j] for j in range(n)), _add_terms(rg[..., i, :] for i in range(n))],
            axis=-1,
        )
        ok = ((cf > 0) | ~member).all(-1) & ((dual <= tol[todo, None, None]) | member).all(-1)
        hit = ok.any(-1)
        rows = np.flatnonzero(hit)
        face = ok[rows].argmax(-1)
        d = dual[rows, face]
        delta = _add_terms(inv[face, :, k] * d[:, k, None] for k in range(m))
        coef[todo[rows]] = np.where(member[face], np.maximum(cf[rows, face] + delta, 0.0), 0.0)
        todo = todo[~hit]
        if not todo.size:
            return coef
    raise RuntimeError("cone projection: no face passed the KKT test")


def _nnls_coef(g: np.ndarray, cost: CostMatrix) -> tuple[np.ndarray, int]:
    """Coefficients (2n,) of the projection of one grid by NNLS, and the
    number of NNLS solves.

    The 2n generators have one linear dependency, on which Lawson-Hanson
    NNLS can stop at a wrong point (it does on integer grids with ties), so
    each solve drops one generator k and runs NNLS on the 2n-1 independent
    rest.  The result is the projection iff the dropped generator's dual
    <x - p, g_k> (a row or column sum of x - p) is <= 0 up to roundoff.
    Every optimal (w, wt) can be shifted along (w + d, wt - d) until some
    coefficient is 0, so some k passes within 2n solves.  The first k tried
    is the column generator of the smallest column sum of c * x, which is
    where min(wt) = 0 usually falls; each next one is the untried generator
    with the smallest coefficient (a zero one, if any), the most negative
    dual among equals.

    NNLS leaves errors of a few ulps in w, wt, so the accepted solve gets one
    step of iterative refinement on its face against the exact residual.
    """
    n = cost.n
    gen, A, gram, sqrt_c, drop = cost._cone_system
    y = cost.c * g
    b = sqrt_c * g.ravel()
    tol = 1e-9 * (1.0 + float(np.abs(b).sum()))
    k = n + int(y.sum(axis=0).argmin())
    untried = [j for j in range(2 * n) if j != k]
    solves = 0
    while True:
        solves += 1
        coef = np.zeros(2 * n)
        coef[drop[k]], _ = nnls(A[:, drop[k]], b)
        dual = _exact_residual(y, coef).ravel() @ gen
        if dual[k] <= tol:
            break
        if not untried:
            raise RuntimeError("cone projection: no NNLS solve passed the KKT test")
        k = min(untried, key=lambda j: (coef[j], dual[j]))
        untried.remove(k)
    face = np.flatnonzero(coef)
    if face.size:
        _, delta, info = dposv(gram[face[:, None], face], dual[face])
        if info:
            raise RuntimeError("cone projection: singular face Gram matrix")
        coef[face] += delta
        np.maximum(coef, 0.0, out=coef)
    return coef, solves


def project_cone(x, cost: CostMatrix) -> ConeProjection:
    """Nearest point to x, in the weighted norm, of the form
    y_ij = (w_i + wt_j) / c_ij with w, wt >= 0.

    x is one grid, (n, n) or (n^2,), or a stack (B, n, n); each grid of a
    stack gets the bits it gets alone.  Up to ``_FACE_MAX_N`` ports the
    generator faces are enumerated, vectorised over the stack
    (``_enumerate_faces``); above, each grid is solved by NNLS
    (``_nnls_coef``), since the face count grows as 4^n.

    Both end with one step of iterative refinement on the accepted face
    against the exact residual.  Potentials that are representable then come
    out exact, as the integer ones of an integer projection under integer
    costs do, so SSC drift samples that sit on their bound do not pass it by
    roundoff.
    """
    n = cost.n
    a = np.asarray(x, dtype=float)
    single = not (a.ndim == 3 and a.shape[1:] == (n, n))
    g = _as_grid(a, n)[None] if single else a
    if n <= _FACE_MAX_N:
        coef = _enumerate_faces(g, cost)
        solves = len(g)
    else:
        solved = [_nnls_coef(grid, cost) for grid in g]
        coef = np.array([c for c, _ in solved]).reshape(len(g), 2 * n)
        solves = sum(s for _, s in solved)
    w, wt = coef[:, :n], coef[:, n:]
    parallel = (w[:, :, None] + wt[:, None, :]) / cost.c
    perp = g - parallel
    if single:
        return ConeProjection(parallel=parallel[0], perp=perp[0], w=w[0], wt=wt[0], sweeps=solves)
    return ConeProjection(parallel=parallel, perp=perp, w=w, wt=wt, sweeps=solves)


def cone_kkt_residual(x, proj: ConeProjection, cost: CostMatrix) -> float:
    """Largest violation of the projection optimality conditions.

    Certifies cdot(x - p, y - p) <= 0 for every cone point y by testing
    y = 0, y = 2p and y = p + g over all row/column generators g, which
    together are equivalent to the KKT conditions of the projection.
    """
    n = cost.n
    diff = _as_grid(x, n) - proj.parallel
    # <x - p, g> for each generator reduces to row / column sums of (x - p).
    row_sums = diff.sum(axis=1)
    col_sums = diff.sum(axis=0)
    worst = max(float(row_sums.max(initial=0.0)), float(col_sums.max(initial=0.0)))
    # y = 0 and y = 2p bracket <x - p, p> around zero.
    p_dot = float((cost.c * diff * proj.parallel).sum())
    return max(worst, abs(p_dot))
