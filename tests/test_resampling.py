import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smcphd.filter import FilterConfig
from smcphd.particles import ParticleSet
from smcphd.resampling import (
    _equalized_weights,
    multinomial_indices,
    resample,
    systematic_indices,
    target_count,
)


def _pset(weights, rng=None):
    weights = np.asarray(weights, dtype=float)
    rng = rng or np.random.default_rng(0)
    return ParticleSet(states=rng.normal(size=(len(weights), 4)), weights=weights)


def test_target_count_policy():
    config = FilterConfig(particles_per_target=200)
    assert config.min_particles == 100
    assert target_count(3.2, config) == 600
    assert target_count(0.3, config) == 100
    assert target_count(0.0, config) == 100
    assert target_count(2.5, config) == 600  # half-up rounding


def test_systematic_uniform_weights_copy_each_once():
    config = FilterConfig(particles_per_target=2, min_particles=1)
    pset = _pset([0.5, 0.5, 0.5, 0.5])  # mass 2.0 -> 4 output particles
    out = resample(pset, pset.total_weight(), config, np.random.default_rng(5))
    assert np.array_equal(out.ancestry, [0, 1, 2, 3])
    assert np.array_equal(out.states, pset.states)
    assert np.all(out.weights == 0.5)


def test_mass_preserved_exactly_random_inputs():
    rng = np.random.default_rng(6)
    config = FilterConfig(particles_per_target=150)
    for _ in range(300):
        n = int(rng.integers(1, 400))
        pset = _pset(rng.uniform(0, 0.03, size=n), rng)
        total = pset.total_weight()
        if total == 0:
            continue
        out = resample(pset, total, config, rng)
        assert out.total_weight() == total
        assert len(out) == target_count(total, config)


def test_multinomial_copy_expectation():
    # Binomial oracle: with weight share 0.9 and 10 draws, the expected
    # number of copies of the first particle is 9.
    rng = np.random.default_rng(7)
    weights = np.array([0.9, 0.1]) * 2.0
    reps = 100_000
    draws = np.array(
        [np.sum(multinomial_indices(weights, 10, rng) == 0) for _ in range(reps)]
    )
    assert abs(draws.mean() - 9.0) <= 0.01 * 9.0


def test_systematic_counts_within_floor_ceil_bounds():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        n = int(rng.integers(1, 60))
        w = rng.uniform(0, 1, size=n)
        if w.sum() == 0:
            continue
        count = int(rng.integers(1, 200))
        idx = systematic_indices(w, count, rng)
        assert np.all(np.diff(idx) >= 0)  # non-decreasing ancestry
        expected = count * w / w.sum()
        copies = np.bincount(idx, minlength=n)
        assert np.all(copies >= np.floor(expected))
        assert np.all(copies <= np.ceil(expected))


@pytest.mark.parametrize("scheme", ["systematic", "multinomial"])
def test_unbiasedness_three_sigma(scheme):
    rng = np.random.default_rng(9)
    w = np.array([0.05, 0.3, 0.15, 0.5])
    count = 20
    reps = 10_000
    fn = systematic_indices if scheme == "systematic" else multinomial_indices
    totals = np.zeros(len(w))
    for _ in range(reps):
        totals += np.bincount(fn(w, count, rng), minlength=len(w))
    mean_copies = totals / reps
    expected = count * w / w.sum()
    # Binomial variance bounds the per-draw copy-count variance of both
    # schemes (systematic's is far smaller).
    q = w / w.sum()
    se = np.sqrt(count * q * (1 - q) / reps)
    assert np.all(np.abs(mean_copies - expected) <= 3 * se)


def test_zero_mass_rejected():
    config = FilterConfig(particles_per_target=10)
    pset = _pset([0.0, 0.0])
    with pytest.raises(ValueError):
        resample(pset, pset.total_weight(), config, np.random.default_rng(0))


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(resample_scheme="stratified")
    with pytest.raises(ValueError):
        FilterConfig(particles_per_target=0)
    assert FilterConfig(particles_per_target=7).min_particles == 4


def test_equalized_weights_are_near_uniform():
    rng = np.random.default_rng(10)
    config = FilterConfig(particles_per_target=100)
    pset = _pset(rng.uniform(0, 0.05, size=123), rng)
    total = pset.total_weight()
    out = resample(pset, total, config, rng)
    assert np.allclose(out.weights, total / len(out), rtol=1e-9)
    assert math.fsum(out.weights.tolist()) == total


def _reference_equalized_weights(total, count):
    """The subnormal-mean split in exact rational arithmetic: the total is
    shared out in whole units of 2**-1074, the first `r` entries one unit
    more than the rest."""
    q, r = divmod(Fraction(total) * 2**1074, count)
    return np.array([math.ldexp(int(q) + (i < r), -1074) for i in range(count)])


@settings(max_examples=300, deadline=None)
@given(
    total=st.one_of(
        st.floats(1e-3, 1e3),
        st.floats(5e-324, 1e-300),
        st.floats(1e300, 1.7976931348623157e308),
        st.integers(1, 10**6).map(float),
    ),
    count=st.one_of(st.integers(1, 64), st.integers(1, 5000)),
)
# The largest double in three parts: no step may overflow.
@example(total=1.7976931348623157e308, count=3)
def test_equalized_weights_sum_exactly_to_the_total(total, count):
    w = _equalized_weights(total, count)
    assert len(w) == count
    assert math.fsum(w.tolist()) == total
    assert np.all(w >= 0)
    if total / count >= np.finfo(float).tiny:
        assert np.all(w[1:] == total / count)
    else:
        assert np.array_equal(w, _reference_equalized_weights(total, count))


_weight = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 1e-300),  # tiny, down to subnormal
    st.floats(1e-3, 1.0),
    st.floats(1.0, 10.0),
)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(_weight, min_size=1, max_size=40).filter(lambda w: math.fsum(w) > 0),
    per_target=st.integers(1, 50),
    scheme=st.sampled_from(["systematic", "multinomial"]),
    seed=st.integers(0, 2**32 - 1),
)
# A total of 3 units of 2**-1074 over at least 5 particles: a mean of 1 unit
# per particle overshoots the total.
@example(weights=[5e-324, 5e-324, 5e-324], per_target=9, scheme="systematic", seed=0)
def test_resampling_over_random_weight_sets(weights, per_target, scheme, seed):
    config = FilterConfig(particles_per_target=per_target, resample_scheme=scheme)
    pset = _pset(weights, np.random.default_rng(seed))
    total = pset.total_weight()
    out = resample(pset, total, config, np.random.default_rng(seed))
    assert len(out) == target_count(total, config)
    assert math.fsum(out.weights.tolist()) == total
    assert np.all(pset.weights[out.ancestry] > 0)
    if scheme == "systematic":
        w = pset.weights
        expected = len(out) * w / w.sum()
        copies = np.bincount(out.ancestry, minlength=len(w))
        assert np.all(copies >= np.floor(expected))
        assert np.all(copies <= np.ceil(expected))


def test_systematic_counts_with_subnormal_total():
    # Total 1e-323 is two ulps: unscaled, the two selection points round
    # onto the cumulative weights, and both land on the second particle.
    w = np.array([5e-324, 5e-324])
    copies = np.bincount(systematic_indices(w, 2, np.random.default_rng(0)), minlength=2)
    assert np.array_equal(copies, [1, 1])


def test_multinomial_draws_with_subnormal_total():
    # Total 2e-323 is four ulps: unscaled, the points round to whole ulps and
    # the draws come out near [1/8, 1/4, 5/8].
    w = np.array([5e-324, 5e-324, 1e-323])
    idx = multinomial_indices(w, 200_000, np.random.default_rng(0))
    freq = np.bincount(idx, minlength=3) / len(idx)
    assert np.allclose(freq, [0.25, 0.25, 0.5], atol=0.01)
