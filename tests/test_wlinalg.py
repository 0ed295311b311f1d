from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

from switchlab import wlinalg
from switchlab.analytics import _pair_indicators, zeta_projection
from switchlab.wlinalg import (
    CostMatrix,
    SingularMatrixError,
    cdot,
    cnorm2,
    col_generator,
    complement_basis_vector,
    cone_kkt_residual,
    project_cone,
    project_space,
    row_generator,
    solve_dense,
    unit_vector,
)
from conftest import oracle_cone_residual2, oracle_space_projection


def ones_cost(n):
    return CostMatrix(np.ones((n, n)))


def random_cost(rng, n, lo=0.1, hi=10.0):
    return CostMatrix(rng.uniform(lo, hi, (n, n)))


# -------- inner product --------

def test_cdot_all_ones():
    c = ones_cost(2)
    x = np.ones((2, 2))
    assert cdot(x, x, c) == 4.0


def test_cdot_disjoint_supports(rng):
    c = random_cost(rng, 2)
    assert cdot(unit_vector(2, 0, 0), unit_vector(2, 1, 1), c) == 0.0


def test_cdot_hand_expansion():
    c = CostMatrix([[1, 2], [2, 1]])
    x = np.array([[1, 2], [3, 4]])
    y = np.ones((2, 2))
    assert cdot(x, y, c) == 15.0


def test_cdot_dimension_mismatch():
    c = ones_cost(2)
    with pytest.raises(ValueError):
        cdot(np.ones((3, 3)), np.ones((3, 3)), c)


def test_cnorm2_examples():
    assert cnorm2(np.zeros((2, 2)), ones_cost(2)) == 0.0
    c = CostMatrix([[3, 1], [1, 1]])
    assert cnorm2(unit_vector(2, 0, 0), c) == 3.0
    assert cnorm2(np.ones((3, 3)), ones_cost(3)) == 9.0


def test_bilinearity_symmetry_and_positivity(rng):
    for _ in range(300):
        n = int(rng.integers(2, 7))
        c = random_cost(rng, n)
        x, y, z = (rng.normal(size=(n, n)) for _ in range(3))
        a, b = rng.normal(size=2)
        assert cdot(a * x + b * y, z, c) == pytest.approx(
            a * cdot(x, z, c) + b * cdot(y, z, c), abs=1e-9
        )
        assert cdot(x, y, c) == cdot(y, x, c)
        assert cnorm2(x, c) >= 0.0
    assert cnorm2(np.zeros((4, 4)), ones_cost(4)) == 0.0


# -------- dense solver --------

def test_solve_identity():
    u = solve_dense(np.eye(3), [1.0, 2.0, 3.0])
    assert np.allclose(u, [1, 2, 3], atol=0)


def test_solve_hand_system():
    # the 3x3 system arising from n=2 unit weights; solution known by hand
    A = np.array([[2.0, 1.0, 1.0], [0.0, 1.0, -1.0], [1.0, 2.0, 1.0]])
    u = solve_dense(A, [1.0, 0.0, 1.0])
    assert np.allclose(u, [0.25, 0.25, 0.25], atol=1e-14)


def test_solve_singular_zero_matrix():
    with pytest.raises(SingularMatrixError):
        solve_dense(np.zeros((2, 2)), [1.0, 1.0])


def test_solve_singular_rank_deficient():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        solve_dense(A, [1.0, 1.0])


def test_solve_residual_bound(rng):
    for _ in range(300):
        k = int(rng.integers(2, 12))
        A = rng.normal(size=(k, k)) + k * np.eye(k)
        b = rng.normal(size=k)
        u = solve_dense(A, b)
        assert np.abs(A @ u - b).max() <= 1e-10 * (1.0 + np.abs(b).max())


# -------- subspace projection --------

def test_project_space_idempotent_on_member(rng):
    c = random_cost(rng, 3)
    x = row_generator(c, 0)
    par, perp = project_space(x, c)
    assert np.abs(par - x).max() < 1e-12
    assert np.abs(perp).max() < 1e-12


def test_project_space_orthogonal_complement_vector():
    c = ones_cost(2)
    x = np.array([[1.0, -1.0], [-1.0, 1.0]])
    par, perp = project_space(x, c)
    assert np.abs(par).max() < 1e-12
    assert np.allclose(perp, x)


def test_project_space_unit_vector_energy():
    c = ones_cost(2)
    par, _ = project_space(unit_vector(2, 0, 0), c)
    assert cnorm2(par, c) == pytest.approx(0.75, abs=1e-12)


def test_pythagoras_and_idempotence(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        c = random_cost(rng, n)
        x = rng.normal(size=(n, n)) * rng.uniform(0.1, 50)
        par, perp = project_space(x, c)
        total = cnorm2(x, c)
        assert abs(total - cnorm2(par, c) - cnorm2(perp, c)) <= 1e-8 * (1e-12 + total)
        assert abs(cdot(par, perp, c)) <= 1e-9 * (1e-12 + total)
        par2, perp2 = project_space(par, c)
        assert np.abs(par2 - par).max() <= 1e-9 * (1.0 + np.abs(par).max())
        assert np.abs(perp2).max() <= 1e-9 * (1.0 + np.abs(par).max())


def test_project_space_matches_gram_schmidt_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(2, 6))
        c = random_cost(rng, n)
        x = rng.normal(size=(n, n)) * 5
        par, _ = project_space(x, c)
        assert np.abs(par - oracle_space_projection(x, c)).max() < 1e-9


def test_projection_basis_invariants(rng):
    for n in (2, 4, 6):
        c = random_cost(rng, n)
        Z, cho = c._space_system
        assert Z.shape == (n * n, 2 * n - 1)
        gram = Z.T @ (c.flat[:, None] * Z)
        assert np.allclose(gram, gram.T)
        assert np.all(np.linalg.eigvalsh(gram) > 0)
        # the cached factor is that of this Gram matrix
        assert np.allclose(cho_solve(cho, gram), np.eye(2 * n - 1))
        # column k <= n-1 lives on row k of the grid with entries 1/c
        col0 = Z[:, 0].reshape(n, n)
        assert np.allclose(col0[0], 1.0 / c.c[0])
        assert np.abs(col0[1:]).max() == 0.0
        # complement basis vectors are orthogonal to every generator
        for i in range(n - 1):
            for j in range(n - 1):
                b = complement_basis_vector(c, i, j)
                for k in range(n):
                    assert abs(cdot(b, row_generator(c, k), c)) < 1e-12
                    assert abs(cdot(b, col_generator(c, k), c)) < 1e-12


def test_lapack_calls_give_the_bits_of_the_scipy_wrappers(rng):
    # The cached systems, both projections' solves and solve_dense call
    # LAPACK directly; each equals, bit for bit, the same construction
    # through cho_factor/cho_solve and lu_factor/lu_solve.
    for k in range(60):
        n = 2 + k % 5
        c = random_cost(rng, n) if k % 2 else CostMatrix(rng.integers(1, 4, (n, n)))
        gens = [row_generator(c, i).ravel() for i in range(n)]
        gen = np.array(gens + [col_generator(c, j).ravel() for j in range(n)]).T
        assert np.array_equal(c._generators, gen)
        assert c._generators.T.flags.c_contiguous
        Z, (factor, lower) = c._space_system
        gram = Z.T @ (c.flat[:, None] * Z)
        cho = cho_factor(gram)
        assert lower == cho[1] and np.array_equal(factor, cho[0])
        x = rng.normal(size=(n, n)) * 5
        par = (Z @ cho_solve(cho, Z.T @ (c.flat * x.ravel()))).reshape(n, n)
        assert np.array_equal(project_space(x, c)[0], par)
        B = _pair_indicators(n)
        zeta = (B * cho_solve(cho, B)).sum(axis=0).reshape(n, n) / c.c
        assert np.array_equal(zeta_projection(c).zeta, zeta)
        A = rng.normal(size=(n + 3, n + 3)) + np.eye(n + 3)
        b = rng.normal(size=(n + 3, 2))
        assert np.array_equal(solve_dense(A, b), lu_solve(lu_factor(A), b))
        assert np.array_equal(solve_dense(A, b[:, 0]), lu_solve(lu_factor(A), b[:, 0]))


def test_face_systems_are_the_per_face_scipy_solves(rng):
    for k in range(50):
        n = 2 + k % 2
        c = random_cost(rng, n) if k % 3 else CostMatrix(rng.integers(1, 4, (n, n)))
        _, A, gram, _, _ = c._cone_system
        m = 2 * n
        groups = c._face_system
        assert len(groups) == m
        for size, (member, solve, inv) in zip(range(m - 1, -1, -1), groups):
            faces = list(itertools.combinations(range(m), size))
            assert member.shape == (len(faces), m) and solve.shape == (len(faces), m, n * n)
            for f, face in enumerate(faces):
                face = list(face)
                want_member = np.zeros(m, dtype=bool)
                want_solve = np.zeros((m, n * n))
                want_inv = np.zeros((m, m))
                if face:
                    cho = cho_factor(gram[np.ix_(face, face)])
                    want_member[face] = True
                    want_solve[face] = cho_solve(cho, A[:, face].T)
                    want_inv[np.ix_(face, face)] = cho_solve(cho, np.eye(size))
                assert np.array_equal(member[f], want_member)
                assert np.array_equal(solve[f], want_solve)
                assert np.array_equal(inv[f], want_inv)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_refused(bad):
    c = ones_cost(2)
    x = np.ones((2, 2))
    x[0, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        project_space(x, c)
    A = np.eye(3)
    A[1, 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_dense(A, np.ones(3))
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_dense(np.eye(3), [1.0, bad, 1.0])


def test_cached_systems_match_fresh_cost(rng):
    # project_space, project_cone and zeta_projection read constants that
    # CostMatrix caches on first use; reusing one CostMatrix across all three
    # gives the bits of a fresh one.
    def outputs(x, c):
        cone = project_cone(x, c)
        return [*project_space(x, c), cone.parallel, cone.w, cone.wt, zeta_projection(c).zeta]

    for n in (2, 3, 5):
        raw = rng.uniform(0.1, 10.0, (n, n))
        used = CostMatrix(raw)
        for _ in range(3):
            x = rng.normal(size=(n, n)) * 5
            for got, want in zip(outputs(x, used), outputs(x, CostMatrix(raw))):
                assert np.array_equal(got, want)


# -------- cone projection --------

def test_cone_fixed_point(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        c = random_cost(rng, n)
        w = rng.uniform(0, 5, n)
        wt = rng.uniform(0, 5, n)
        x = (w[:, None] + wt[None, :]) / c.c
        proj = project_cone(x, c)
        assert cnorm2(proj.perp, c) < 1e-18 * (1 + cnorm2(x, c))


def test_cone_orthogonal_vector_projects_to_zero():
    c = ones_cost(2)
    x = np.array([[1.0, -1.0], [-1.0, 1.0]])
    proj = project_cone(x, c)
    assert np.abs(proj.parallel).max() < 1e-9
    assert cnorm2(proj.perp, c) == pytest.approx(4.0, abs=1e-9)


def test_cone_negative_generator_projects_to_zero(rng):
    c = random_cost(rng, 3)
    proj = project_cone(-row_generator(c, 0), c)
    assert np.abs(proj.parallel).max() < 1e-9


def test_cone_nonnegative_potentials(rng):
    for _ in range(100):
        n = int(rng.integers(2, 6))
        c = random_cost(rng, n)
        proj = project_cone(rng.normal(size=(n, n)) * 5, c)
        assert proj.w.min() >= 0 and proj.wt.min() >= 0


def test_cone_matches_descent_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 7))
        c = random_cost(rng, n)
        x = rng.normal(size=(n, n)) * 5
        proj = project_cone(x, c)
        got = cnorm2(proj.perp, c)
        want = oracle_cone_residual2(x, c)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-10)


def test_cone_kkt_certificate(rng):
    for _ in range(200):
        n = int(rng.integers(2, 7))
        c = random_cost(rng, n)
        x = rng.normal(size=(n, n)) * 5
        proj = project_cone(x, c)
        assert cone_kkt_residual(x, proj, c) <= 1e-7 * (1.0 + cnorm2(x, c))


def test_cone_dominated_by_space(rng):
    for _ in range(200):
        n = int(rng.integers(2, 6))
        c = random_cost(rng, n)
        x = rng.normal(size=(n, n)) * 5
        _, perp_s = project_space(x, c)
        proj = project_cone(x, c)
        assert cnorm2(proj.perp, c) >= cnorm2(perp_s, c) - 1e-8


def test_cone_integer_tie_example():
    # The generators' one linear dependency makes NNLS on all 2n of them stop
    # at residual^2 8 here, with p = [[1, 2], [3, 4]].
    c = ones_cost(2)
    x = np.array([[3.0, 2.0], [1.0, 4.0]])
    proj = project_cone(x, c)
    assert cnorm2(proj.perp, c) == 4.0
    assert np.array_equal(proj.parallel, [[2.0, 3.0], [2.0, 3.0]])
    assert cone_kkt_residual(x, proj, c) == 0.0


def test_cone_second_solve_example():
    # Column sums of c * x tie at 7, so a first NNLS solve that drops wt_0
    # misses the optimum, whose min(wt) = 0 falls on wt_1.  At n = 2 the face
    # enumeration takes the face without wt_1 in one solve.
    c = CostMatrix([[1.0, 1.0], [1.0, 4.0]])
    x = np.array([[4.0, 3.0], [3.0, 1.0]])
    proj = project_cone(x, c)
    assert proj.sweeps == 1
    assert np.allclose(proj.w, [23 / 7, 20 / 7], rtol=1e-15)
    assert np.allclose(proj.wt, [3 / 7, 0.0], rtol=1e-15, atol=0.0)
    assert cnorm2(proj.perp, c) == pytest.approx(4 / 7, rel=1e-15)
    assert cone_kkt_residual(x, proj, c) <= 1e-14


def test_cone_nnls_second_solve():
    # Above _FACE_MAX_N each grid is solved by NNLS, dropping one generator
    # per solve; a seeded search finds an integer grid whose first dropped
    # generator fails the dual test, so a second solve is needed.
    n = wlinalg._FACE_MAX_N + 1
    rng = np.random.default_rng(2)
    for _ in range(2000):
        c = CostMatrix(rng.integers(1, 3, (n, n)))
        x = rng.integers(0, 6, (n, n)).astype(float)
        proj = project_cone(x, c)
        if proj.sweeps == 2:
            break
    assert proj.sweeps == 2
    assert proj.w.min() >= 0 and proj.wt.min() >= 0
    assert cnorm2(proj.perp, c) == pytest.approx(oracle_cone_residual2(x, c), rel=1e-9, abs=1e-10)
    assert cone_kkt_residual(x, proj, c) <= 1e-9 * (1.0 + cnorm2(x, c))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cone_stack_matches_single_grids(rng, n):
    # A grid of a stack gets the bits it gets alone, whatever the stack's
    # size and order, on both the face enumeration and the NNLS path.
    costs = [random_cost(rng, n), CostMatrix(rng.integers(1, 4, (n, n)))]
    for c in costs:
        X = rng.integers(0, 8, (24, n, n)).astype(float)
        X[:3] = 0.0
        X[3] = X[4]
        alone = [project_cone(x, c) for x in X]
        for idx in (np.arange(24), rng.permutation(24)[:11], np.array([5])):
            proj = project_cone(X[idx], c)
            assert proj.perp.shape == (len(idx), n, n) and proj.w.shape == (len(idx), n)
            assert proj.sweeps == sum(alone[i].sweeps for i in idx)
            for field in ("parallel", "perp", "w", "wt"):
                got = getattr(proj, field)
                for row, i in zip(got, idx):
                    assert np.array_equal(row, getattr(alone[i], field)), (field, i)


def test_cone_face_enumeration_matches_nnls(rng, monkeypatch):
    # NNLS is the differential oracle of the face enumeration: the same
    # projections to a few ulps of the grid.
    cases = []
    for n in range(2, wlinalg._FACE_MAX_N + 1):
        for k in range(100):
            c = random_cost(rng, n) if k % 2 else CostMatrix(rng.integers(1, 3, (n, n)))
            X = rng.integers(0, 6, (20, n, n)).astype(float)
            X[10:] = rng.normal(size=(10, n, n)) * 5
            cases.append((c, X))
    enumerated = [project_cone(X, c) for c, X in cases]
    monkeypatch.setattr(wlinalg, "_FACE_MAX_N", 0)
    for (c, X), got in zip(cases, enumerated):
        want = project_cone(X, c)
        scale = 1.0 + np.abs(X).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(got.perp - want.perp) <= 1e-13 * scale)


def test_cone_exact_on_integer_potentials(rng):
    # x = integer cone point + complement vector, under costs 1 and 2: the
    # projection is the cone point, so perp is exactly the complement vector.
    # NNLS alone is a few ulps off here, enough to put an SSC drift sample
    # above its bound n * sqrt(c_max) * a_max.
    for _ in range(300):
        n = int(rng.integers(2, 5))
        c = CostMatrix(rng.integers(1, 3, (n, n)))
        w, wt = 2 * rng.integers(0, 100, n), 2 * rng.integers(0, 100, n)
        x0 = (w[:, None] + wt[None, :]) / c.c
        comp = complement_basis_vector(c, *rng.integers(0, n - 1, 2)) * rng.choice([-1, 1])
        assert np.array_equal(project_cone(x0, c).perp, np.zeros((n, n)))
        proj = project_cone(x0 + comp, c)
        assert np.array_equal(proj.parallel, x0)
        assert cnorm2(proj.perp, c) == cnorm2(comp, c)


def test_cone_integer_queue_grids(rng):
    # Queue-shaped inputs: small integers, whose row and column sums often
    # tie.  Every 2x2 grid with entries 0..5 under unit costs (NNLS on all 2n
    # generators is wrong on 5 of them), then random grids and costs.
    cases = [
        (ones_cost(2), np.array(v, dtype=float).reshape(2, 2))
        for v in itertools.product(range(6), repeat=4)
    ]
    for n in (2, 3, 4, 5):
        for k in range(200):
            c = random_cost(rng, n) if k % 2 else CostMatrix(rng.integers(1, 3, (n, n)))
            cases.append((c, rng.integers(0, 6, (n, n)).astype(float)))
    for c, x in cases:
        proj = project_cone(x, c)
        assert 1 <= proj.sweeps <= 2 * c.n
        assert proj.w.min() >= 0 and proj.wt.min() >= 0
        want = oracle_cone_residual2(x, c)
        assert cnorm2(proj.perp, c) == pytest.approx(want, rel=1e-9, abs=1e-10)
        assert cone_kkt_residual(x, proj, c) <= 1e-9 * (1.0 + cnorm2(x, c))


def test_cost_matrix_validation():
    with pytest.raises(ValueError):
        CostMatrix(np.ones((1, 1)))
    with pytest.raises(ValueError):
        CostMatrix([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        CostMatrix([[1.0, -2.0], [1.0, 1.0]])
