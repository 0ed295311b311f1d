from __future__ import annotations

import numpy as np
import pytest

from switchlab import traffic
from switchlab.traffic import ArrivalModel, face_check, law_moments, uniform_nu
from switchlab.wlinalg import CostMatrix


def test_face_check_examples():
    assert face_check(uniform_nu(3))
    assert not face_check(np.zeros((2, 2)))
    assert face_check(np.array([[0.3, 0.7], [0.7, 0.3]]))
    assert not face_check(np.array([[0.5, 0.4], [0.5, 0.6]]))
    assert not face_check(np.array([[1.2, -0.2], [-0.2, 1.2]]))


def test_face_check_independent_of_weights(rng):
    nu = np.array([[0.3, 0.7], [0.7, 0.3]])
    for _ in range(100):
        c = CostMatrix(rng.uniform(0.1, 10.0, (2, 2)))
        assert face_check(nu, c)


def test_moments_bernoulli():
    m = ArrivalModel.bernoulli(uniform_nu(2), epsilon=0.0000001)
    mom = m.moments()
    assert np.allclose(mom.var, mom.mean * (1 - mom.mean))
    m2 = ArrivalModel.bernoulli(uniform_nu(2), epsilon=0.5)
    assert m2.moments().var == pytest.approx(0.25 * 0.75)


def test_moments_uniform_integer_law():
    # plain uniform on {0, 1, 2} has mean 1 and variance 2/3
    mom = law_moments("uniform-integer", np.array([[1.0]]), a_max=2)
    assert mom.var[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert mom.second_moment[0, 0] == pytest.approx(5.0 / 3.0, abs=1e-15)


def test_moments_respect_epsilon_exactly():
    nu = uniform_nu(3)
    for kind, a_max in (("bernoulli", 1), ("uniform-integer", 2), ("truncated-poisson", 8)):
        m0 = ArrivalModel(kind=kind, nu=nu, epsilon=0.25, a_max=a_max)
        assert np.allclose(m0.moments().mean, 0.75 * nu, atol=0, rtol=0)
        assert np.allclose(m0.limit_moments().mean, nu, atol=0, rtol=0)


def test_truncated_poisson_moments_are_of_truncated_law():
    nu = uniform_nu(2)
    m = ArrivalModel.truncated_poisson(nu, epsilon=0.1, a_max=2)
    mom = m.moments()
    # truncation at 2 forces the variance strictly below the mean
    assert np.all(mom.var < mom.mean)
    assert np.all(mom.var > 0)


def test_sample_support_and_dtype(rng):
    nu = uniform_nu(2)
    for m in (
        ArrivalModel.bernoulli(nu, 0.2),
        ArrivalModel.uniform_integer(nu, 0.2, a_max=3),
        ArrivalModel.truncated_poisson(nu, 0.2, a_max=4),
    ):
        x = m.sample_block(rng, 50_000)
        assert x.min() >= 0 and x.max() <= m.a_max
        one = m.sample(rng)
        assert one.shape == (2, 2)


def test_sample_moments_match_analytic(rng):
    nu = uniform_nu(2)
    draws = 1_000_000
    for m in (
        ArrivalModel.bernoulli(nu, 0.1),
        ArrivalModel.uniform_integer(nu, 0.1, a_max=2),
        ArrivalModel.truncated_poisson(nu, 0.1, a_max=6),
    ):
        mom = m.moments()
        x = m.sample_block(rng, draws)
        se = np.sqrt(mom.var.ravel() / draws)
        assert np.all(np.abs(x.mean(axis=0) - mom.mean.ravel()) <= 4 * se + 1e-12)
        se_var = np.sqrt(2.0 / draws) * (mom.var.ravel() + mom.mean.ravel() ** 2 + 1.0)
        assert np.all(np.abs(x.var(axis=0) - mom.var.ravel()) <= 4 * se_var)


def _laws(nu, poisson_a_max=10):
    return (
        ArrivalModel.bernoulli(nu, 0.2),
        ArrivalModel.uniform_integer(nu, 0.2, a_max=3),
        ArrivalModel.truncated_poisson(nu, 0.2, a_max=poisson_a_max),
    )


@pytest.mark.parametrize("kind", ["bernoulli", "uniform-integer", "truncated-poisson"])
def test_sample_stream_does_not_depend_on_block_size(kind):
    # One uniform per queue-slot: one block of 2m slots, two blocks of m and
    # m single slots read the same stream.  At a_max = 2 about one
    # untruncated Poisson draw in 400 lands above the support, which a
    # sampler that redraws such values would feel.
    (model,) = [m for m in _laws(uniform_nu(3), poisson_a_max=2) if m.kind == kind]
    m = 200
    whole = model.sample_block(np.random.default_rng(5), 2 * m)
    rng = np.random.default_rng(5)
    halves = np.concatenate([model.sample_block(rng, m), model.sample_block(rng, m)])
    rng = np.random.default_rng(5)
    slots = np.array([model.sample(rng).ravel() for _ in range(2 * m)])
    assert kind == "bernoulli" or whole.max() > 1
    assert whole.dtype == halves.dtype == np.int64
    assert np.array_equal(whole, halves)
    assert np.array_equal(whole, slots)


@pytest.mark.parametrize("nu", [uniform_nu(3), np.array([[0.5, 0.25, 0.25],
                                                         [0.2, 0.5, 0.3],
                                                         [0.3, 0.25, 0.45]])],
                         ids=["uniform-nu", "nonuniform-nu"])
@pytest.mark.parametrize("poisson_a_max", [10, 2])
def test_survival_table_agrees_with_moments(nu, poisson_a_max):
    # sum_k P(A >= k) = E[A] and sum_k (2k - 1) P(A >= k) = E[A^2]: a table
    # off by one in k (P(A > k)) misses both.
    for model in _laws(nu, poisson_a_max):
        S = model._survival
        assert S.shape == (nu.size, model.a_max)
        mom = model.moments()
        k = np.arange(1, model.a_max + 1)
        assert np.allclose(S.sum(axis=1), mom.mean.ravel(), rtol=1e-12, atol=0), model.kind
        assert np.allclose(S @ (2 * k - 1), mom.second_moment.ravel(), rtol=1e-12, atol=0), model.kind


def test_high_epsilon_rarely_arrives(rng):
    m = ArrivalModel.bernoulli(uniform_nu(2), epsilon=0.999)
    x = m.sample_block(rng, 100_000)
    assert (x == 0).mean() > 0.997


def test_model_validation():
    with pytest.raises(ValueError):
        ArrivalModel.bernoulli(np.array([[0.5, 0.4], [0.5, 0.6]]), 0.1)  # off face
    with pytest.raises(ValueError):
        ArrivalModel.bernoulli(np.array([[1.0, 0.0], [0.0, 1.0]]), 0.1)  # zero entries
    with pytest.raises(ValueError):
        ArrivalModel.bernoulli(uniform_nu(2), 0.0)
    with pytest.raises(ValueError):
        ArrivalModel.bernoulli(uniform_nu(2), 1.0)
    with pytest.raises(ValueError):
        ArrivalModel.uniform_integer(uniform_nu(2), 0.1, a_max=0)
    with pytest.raises(ValueError):
        ArrivalModel(kind="bernoulli", nu=uniform_nu(2), epsilon=0.1, a_max=2)
    with pytest.raises(ValueError):
        ArrivalModel(kind="poisson", nu=uniform_nu(2), epsilon=0.1, a_max=2)


def test_truncated_poisson_calibrates_each_distinct_mean_once(monkeypatch):
    # Non-uniform nu with repeated entries: the rates equal per-entry
    # calibration bit for bit, with one solve per distinct mean.
    nu = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])

    def per_entry(mean):
        return np.array([[traffic._calibrate_trunc_poisson(float(m), 4) for m in row] for row in mean])

    m = ArrivalModel.truncated_poisson(nu, 0.1, a_max=4)
    assert np.array_equal(m._rates, per_entry(m.mean))
    lim = m.limit_moments()
    k = np.arange(5)
    want = np.array([[float((k * k * traffic._trunc_poisson_pmf(float(r), 4)).sum()) for r in row]
                     for row in per_entry(nu)])
    assert np.array_equal(lim.second_moment, want)
    assert np.array_equal(lim.var, want - nu**2)

    solves = []
    calibrate = traffic._calibrate_trunc_poisson

    def counting(target, a_max):
        solves.append(target)
        return calibrate(target, a_max)

    monkeypatch.setattr(traffic, "_calibrate_trunc_poisson", counting)
    ArrivalModel.truncated_poisson(nu, 0.1, a_max=4).limit_moments()
    assert len(solves) == 4
    ArrivalModel.truncated_poisson(uniform_nu(16), 0.1, a_max=4)
    assert len(solves) == 5
