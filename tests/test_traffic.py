from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlab import traffic
from switchlab.traffic import ArrivalModel, face_check, uniform_nu
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
    mom = ArrivalModel.uniform_integer(np.array([[1.0]]), 0.5, a_max=2).limit_moments()
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
    for model in _laws(nu, poisson_a_max):
        _assert_table_matches_moments(model)


def _assert_table_matches_moments(model):
    # sum_k P(A >= k) = E[A] and sum_k (2k - 1) P(A >= k) = E[A^2]: a table
    # off by one in k (P(A > k)) misses both.  The limit law is built by the
    # same _law call at mean nu.
    k = np.arange(1, model.a_max + 1)
    limit_table, _ = traffic._law(model.kind, model.nu, model.a_max)
    for S, mom in ((model._survival, model.moments()), (limit_table, model.limit_moments())):
        assert S.shape == (model.nu.size, model.a_max)
        assert np.allclose(S.sum(axis=1), mom.mean.ravel(), rtol=1e-12, atol=0), model.kind
        assert np.allclose(S @ (2 * k - 1), mom.second_moment.ravel(), rtol=1e-12, atol=0), model.kind


@st.composite
def face_nu(draw):
    """A strictly positive point of the face: a convex mixture of the n cyclic
    shifts, which cover every entry, and of a few other permutations."""
    n = draw(st.integers(1, 5))
    perms = [np.roll(np.arange(n), r) for r in range(n)]
    perms += [np.array(draw(st.permutations(range(n)))) for _ in range(draw(st.integers(0, 3)))]
    weights = np.array([draw(st.floats(0.05, 1.0)) for _ in perms])
    weights /= weights.sum()
    nu = np.zeros((n, n))
    for w, p in zip(weights, perms):
        nu[np.arange(n), p] += w
    return nu


@settings(max_examples=100, deadline=None)
@given(face_nu(), st.floats(0.01, 0.99), st.sampled_from(traffic.KINDS), st.integers(2, 10))
def test_survival_table_agrees_with_moments_on_the_face(nu, eps, kind, a_max):
    model = ArrivalModel(kind=kind, nu=nu, epsilon=eps, a_max=1 if kind == "bernoulli" else a_max)
    _assert_table_matches_moments(model)


def test_bernoulli_accepts_a_face_point_rounded_above_one():
    # Mixture weights normalized by their sum can land one ulp above 1 at
    # n = 1; face_check accepts that point, so the Bernoulli bound must too.
    nu = np.array([[np.nextafter(1.0, 2.0)]])
    assert traffic.face_check(nu)
    _assert_table_matches_moments(ArrivalModel.bernoulli(nu, 0.5))


def test_uniform_integer_accepts_a_face_point_rounded_above_one():
    # At a_max = 2 the hit probability 2 nu / a_max is nu itself, so the
    # face point one ulp above 1 needs face_check's slack here too.
    nu = np.array([[np.nextafter(1.0, 2.0)]])
    assert traffic.face_check(nu)
    _assert_table_matches_moments(ArrivalModel(kind="uniform-integer", nu=nu, epsilon=0.5, a_max=2))
    with pytest.raises(ValueError, match="not reachable"):
        ArrivalModel(kind="uniform-integer", nu=[[0.6, 0.4], [0.4, 0.6]], epsilon=0.5, a_max=1)


@pytest.mark.parametrize("a_max", [1, 2, 6, 127, 128, 300])
def test_sample_block_is_the_int64_count(a_max):
    # sample_block counts u < P(A >= k) in the narrowest type that holds
    # a_max; the counts must equal an int64 count of the same uniforms, also
    # where they pass the int8 and uint8 ranges.
    kind = "bernoulli" if a_max == 1 else "uniform-integer"
    model = ArrivalModel(kind=kind, nu=uniform_nu(2), epsilon=0.1, a_max=a_max)
    got = model.sample_block(np.random.default_rng(3), 50_000)
    u = np.random.default_rng(3).random((50_000, 4))
    want = np.zeros(u.shape, dtype=np.int64)
    for tail in model._survival.T:
        want += u < tail
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert got.max() >= min(a_max, 256)


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
    # Non-uniform nu with repeated entries: the table and the limit moments
    # equal per-entry calibration bit for bit, with one solve per distinct
    # mean.
    nu = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])

    def per_entry_pmf(mean):
        return [traffic._trunc_poisson_pmf(traffic._calibrate_trunc_poisson(float(m), 4), 4)
                for m in mean.ravel()]

    m = ArrivalModel.truncated_poisson(nu, 0.1, a_max=4)
    want = np.array([np.cumsum(p[::-1])[::-1][1:] for p in per_entry_pmf(m.mean)])
    assert np.array_equal(m._survival, want)
    lim = m.limit_moments()
    k = np.arange(5)
    want = np.array([float((k * k * p).sum()) for p in per_entry_pmf(nu)]).reshape(nu.shape)
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


def test_moments_cannot_change_the_model():
    m = ArrivalModel.truncated_poisson(uniform_nu(2), 0.1, a_max=4)
    mom = m.moments()
    for a in (mom.second_moment, m._survival):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
