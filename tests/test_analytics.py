from __future__ import annotations

import warnings

import numpy as np
import pytest

from switchlab.analytics import (
    ZetaResult,
    _g_matrix,
    _pair_indicators,
    cross_validated_zeta,
    ht_limit,
    n2_closed_form,
    pool_runs,
    ssc_curve,
    universal_lower_bound,
    zeta_gmatrix,
    zeta_projection,
)
from switchlab.simulator import RunStats
from switchlab.traffic import ArrivalModel, uniform_nu
from switchlab.wlinalg import CostMatrix
from conftest import oracle_zeta


def ones_cost(n):
    return CostMatrix(np.ones((n, n)))


def random_cost(rng, n):
    return CostMatrix(rng.uniform(0.1, 10.0, (n, n)))


# -------- zeta --------

def test_zeta_unit_weights_closed_form():
    for n in range(2, 9):
        z = zeta_projection(ones_cost(n)).zeta
        assert np.abs(z - (2 * n - 1) / n**2).max() <= 1e-12


def test_zeta_n2_unit_value():
    z = zeta_projection(ones_cost(2)).zeta
    assert np.allclose(z, 0.75, atol=1e-14)


def test_gsystem_matches_hand_matrix():
    G = _g_matrix(ones_cost(2))
    assert np.allclose(G, [[2, 1, 1], [0, 1, -1], [1, 2, 1]])
    B = _pair_indicators(2)
    assert B.shape == (3, 4)
    assert B[:, 0].tolist() == [1.0, 0.0, 1.0]  # pair (0, 0)
    assert B[:, 1].tolist() == [1.0, 0.0, 0.0]  # pair (0, 1)
    assert B[:, 2].tolist() == [0.0, 1.0, 1.0]  # pair (1, 0)
    assert B[:, 3].tolist() == [0.0, 1.0, 0.0]  # pair (1, 1)
    z = zeta_gmatrix(ones_cost(2)).zeta
    assert np.allclose(z, 0.75, atol=1e-14)


def test_zeta_routes_agree(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        rep = cross_validated_zeta(random_cost(rng, n))
        worst = max(worst, rep.cross_error)
    # An odd n and a larger one exercise the array read-out of the G route.
    for n in (16, 33):
        worst = max(worst, cross_validated_zeta(random_cost(rng, n)).cross_error)
    assert worst <= 1e-9


def test_zeta_matches_gram_schmidt_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        c = random_cost(rng, n)
        assert np.abs(zeta_projection(c).zeta - oracle_zeta(c)).max() < 1e-10


def test_zeta_scale_invariant(rng):
    for alpha in (0.1, 2.0, 37.5):
        c = random_cost(rng, 3)
        z1 = zeta_projection(c).zeta
        z2 = zeta_projection(CostMatrix(alpha * c.c)).zeta
        assert np.abs(z1 - z2).max() <= 1e-11


def test_zeta_permutation_equivariant(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        c = random_cost(rng, n)
        pr, pc = rng.permutation(n), rng.permutation(n)
        z = zeta_projection(c).zeta
        zp = zeta_projection(CostMatrix(c.c[np.ix_(pr, pc)])).zeta
        assert np.abs(zp - z[np.ix_(pr, pc)]).max() <= 1e-11


def test_zeta_entries_are_fractions(rng):
    for _ in range(50):
        z = zeta_projection(random_cost(rng, int(rng.integers(2, 6)))).zeta
        assert z.min() >= -1e-12 and z.max() <= 1 + 1e-12


def test_zeta_result_rejects_out_of_range():
    with pytest.raises(ValueError):
        ZetaResult(zeta=np.array([[0.5, 1.5], [0.5, 0.5]]))


# -------- heavy-traffic limit --------

def test_ht_limit_zero_variance():
    assert ht_limit(ones_cost(2), np.zeros((2, 2))) == 0.0


def test_ht_limit_unit_weights_n2():
    assert ht_limit(ones_cost(2), np.full((2, 2), 0.25)) == pytest.approx(0.75, abs=1e-14)


def test_ht_limit_unit_weights_n3():
    sigma2 = np.full((3, 3), (1 / 3) * (2 / 3))
    assert ht_limit(ones_cost(3), sigma2) == pytest.approx(5 / 3, abs=1e-14)


def test_ht_limit_matches_unit_weight_constant():
    for n in (2, 4, 6):
        sigma2 = np.full((n, n), 0.2)
        want = (1 - 1 / (2 * n)) * sigma2.sum()
        assert ht_limit(ones_cost(n), sigma2) == pytest.approx(want, rel=1e-13)


def test_ht_limit_linear_in_sigma2_and_homogeneous_in_c(rng):
    c = random_cost(rng, 3)
    sigma2 = rng.uniform(0.1, 1.0, (3, 3))
    base = ht_limit(c, sigma2)
    assert ht_limit(c, 2 * sigma2) == pytest.approx(2 * base, rel=1e-12)
    assert ht_limit(CostMatrix(3.0 * c.c), sigma2) == pytest.approx(3 * base, rel=1e-12)


def test_ht_limit_validation():
    with pytest.raises(ValueError):
        ht_limit(ones_cost(2), np.full((3, 3), 0.1))
    with pytest.raises(ValueError):
        ht_limit(ones_cost(2), np.array([[0.1, -0.1], [0.1, 0.1]]))


def test_n2_closed_form_values():
    assert n2_closed_form(ones_cost(2), np.full((2, 2), 0.25)) == pytest.approx(0.375)
    assert n2_closed_form(ones_cost(2), np.zeros((2, 2))) == 0.0
    ratio = ht_limit(ones_cost(2), np.full((2, 2), 0.25)) / n2_closed_form(
        ones_cost(2), np.full((2, 2), 0.25)
    )
    assert ratio == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        n2_closed_form(ones_cost(3), np.full((3, 3), 0.25))


# -------- universal lower bound --------

def test_lower_bound_ordering_counts():
    model = ArrivalModel.bernoulli(uniform_nu(2), 0.1)
    lb = universal_lower_bound(ones_cost(2), model)
    assert len(lb.per_ordering) == 2
    assert len(lb.schedules) == 2
    model3 = ArrivalModel.bernoulli(uniform_nu(3), 0.1)
    lb3 = universal_lower_bound(ones_cost(3), model3)
    assert len(lb3.per_ordering) == 720


def test_lower_bound_rejects_large_n():
    model = ArrivalModel.bernoulli(uniform_nu(4), 0.1)
    with pytest.raises(ValueError, match=r"^n=4 needs \(24\)! priority orderings; n <= 3 is supported$"):
        universal_lower_bound(ones_cost(4), model)


def test_lower_bound_bernoulli_clamps_to_zero():
    # with Bernoulli arrivals E[A^2] = E[A], so every class bound is negative
    # and the bound is vacuous (but valid); the clamping is counted, not warned
    model = ArrivalModel.bernoulli(uniform_nu(2), 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lb = universal_lower_bound(ones_cost(2), model)
    assert lb.Qstar_eps == 0.0
    assert lb.Qstar_limit == 0.0
    assert lb.clamped_classes > 0


def test_lower_bound_uniform_integer_hand_values():
    # hand-derived: q = 2 mean / a_max, E[A^2] = q a_max (2 a_max + 1) / 6;
    # at eps = 0.1 the only surviving class gives (0.255 - 0.1) / 0.2 = 0.775
    # per queue, and the limit form gives 1/3 per queue
    model = ArrivalModel.uniform_integer(uniform_nu(2), 0.1, a_max=2)
    lb = universal_lower_bound(ones_cost(2), model)
    assert lb.Qstar_eps == pytest.approx(2 * 0.775, abs=1e-12)
    assert lb.Qstar_limit == pytest.approx(2 / 3, abs=1e-12)


def test_lower_bound_below_ht_limit():
    # the limit-form bound must sit below the heavy-traffic constant
    model = ArrivalModel.uniform_integer(uniform_nu(2), 0.05, a_max=2)
    lb = universal_lower_bound(ones_cost(2), model)
    limit = ht_limit(ones_cost(2), model.limit_moments().var)
    assert lb.Qstar_limit <= limit + 1e-12


# -------- ssc curve --------

def _fake_stats(eps, par, perp, qsum):
    return RunStats(
        n=2, epsilon=eps, seed=0, stream_key=(), matcher_mode="exact-enumeration",
        warmup_slots=0, measured_slots=1000,
        mean_weighted_qsum=qsum, stderr_weighted_qsum=0.01,
        unused_service_rate=2 * eps, stderr_unused_service=0.001,
        perp_samples=np.array([perp]), par_samples=np.array([par]),
        drift_samples=np.array([0.0]),
        qu_dot_violation=0.0, conservation_ok=True,
        departure_rate=np.full((2, 2), 0.25),
    )


def test_ssc_curve_slopes():
    runs = {
        eps: [_fake_stats(eps, par=1.5 / eps, perp=0.8, qsum=0.75 / eps)]
        for eps in (0.1, 0.05, 0.02)
    }
    curve = ssc_curve(runs)
    assert curve.par_slope == pytest.approx(-1.0, abs=1e-9)
    assert curve.perp_slope == pytest.approx(0.0, abs=1e-9)


def test_ssc_curve_needs_three_points():
    runs = {eps: [_fake_stats(eps, 1.0, 1.0, 1.0)] for eps in (0.1, 0.05)}
    with pytest.raises(ValueError):
        ssc_curve(runs)


def test_pool_runs_stderr_scaling():
    reps = [_fake_stats(0.1, 1.0, 1.0, 10.0) for _ in range(4)]
    pooled = pool_runs(reps)
    assert pooled["stderr_weighted_qsum"] == pytest.approx(0.01 / 2)
    assert pooled["mean_weighted_qsum"] == pytest.approx(10.0)
