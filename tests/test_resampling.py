import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import select_reference
from smcphd.filter import FilterConfig
from smcphd.particles import MAX_PARTICLES, WEIGHT_FLOOR, ParticleSet
from smcphd.resampling import (
    _equalized_weights,
    _select,
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


def test_target_count_above_the_bound_raises():
    config = FilterConfig(particles_per_target=2**10)
    assert target_count(2**10, config) == MAX_PARTICLES
    with pytest.raises(ValueError, match="MAX_PARTICLES"):
        target_count(2**10 + 1, config)
    with pytest.raises(ValueError, match="MAX_PARTICLES"):
        target_count(1e300, config)


@pytest.mark.parametrize("mass", [-1e-300, -1.0, math.nan])
def test_target_count_rejects_a_negative_or_nan_mass(mass):
    with pytest.raises(ValueError):
        target_count(mass, FilterConfig(particles_per_target=200))


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


@settings(max_examples=300, deadline=None)
@given(
    total=st.one_of(
        st.floats(1e-3, 1e3),
        st.floats(WEIGHT_FLOOR, 1e-290),
        st.floats(1e300, 1.7976931348623157e308),
        st.integers(1, 10**6).map(float),
    ),
    count=st.one_of(st.integers(1, 64), st.integers(1, 5000), st.integers(1, MAX_PARTICLES)),
)
# The largest double in three parts: no step may overflow.
@example(total=1.7976931348623157e308, count=3)
# The smallest mean a resampled set can ask for, 1e-300 / 2**20, is normal.
@example(total=WEIGHT_FLOOR, count=MAX_PARTICLES)
# An exact mean just under the floor that rounds up to it: x stays 1e-300.
@example(total=5e-300, count=5)
# 25 copies of 1e-300: an exact mean above the floor whose remainder at
# total/count is below it.
@example(total=2.5000000000000003e-299, count=25)
def test_equalized_weights_sum_exactly_to_the_total(total, count):
    w = _equalized_weights(total, count)
    assert len(w) == count
    assert math.fsum(w.tolist()) == total
    assert np.all(w >= 0)
    # x is total/count, or one ulp below it where the remainder at
    # total/count fell under the floor and x was above it.
    x = total / count
    if float(Fraction(total) - (count - 1) * Fraction(x)) < WEIGHT_FLOOR < x:
        x = math.nextafter(x, 0.0)
    assert np.all(w[1:] == x)
    if Fraction(total) / count >= Fraction(WEIGHT_FLOOR):
        assert w.min() >= WEIGHT_FLOOR


@settings(max_examples=300, deadline=None)
@given(
    total=st.one_of(
        st.floats(1e-3, 1e3),
        st.floats(WEIGHT_FLOOR, 1e-290),
        st.integers(1, 60).map(lambda k: k * WEIGHT_FLOOR),
        st.floats(1e300, 1.7976931348623157e308),
    ),
    count=st.one_of(st.integers(1, 64), st.integers(1, 5000)),
)
def test_equalized_weights_match_the_fraction_remainder(total, count):
    # Where the remainder at total/count is at least the floor, the integer
    # form gives the weights that float(Fraction) gives, bit for bit.
    x = total / count
    first = float(Fraction(total) - Fraction(x) * (count - 1))
    assume(first >= WEIGHT_FLOOR)
    w = _equalized_weights(total, count)
    assert w[0].tobytes() == np.float64(first).tobytes()
    assert np.all(w[1:] == x)


_weight = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 1e-300),  # tiny, down to subnormal
    st.floats(1e-3, 1.0),
    st.floats(1.0, 10.0),
)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(_weight, min_size=1, max_size=40),
    per_target=st.integers(1, 50),
    scheme=st.sampled_from(["systematic", "multinomial"]),
    seed=st.integers(0, 2**32 - 1),
)
# Three weights of 1e-300 over 5 particles: a mean under the floor.
@example(weights=[WEIGHT_FLOOR] * 3, per_target=9, scheme="systematic", seed=0)
# Five over 5: the exact mean is under the floor but rounds up to 1e-300,
# and the remainder falls below it.
@example(weights=[WEIGHT_FLOOR] * 5, per_target=9, scheme="systematic", seed=0)
# 25 over 25: the exact mean is above the floor, so the mass is exact.
@example(weights=[WEIGHT_FLOOR] * 25, per_target=50, scheme="systematic", seed=0)
def test_resampling_over_random_weight_sets(weights, per_target, scheme, seed):
    config = FilterConfig(particles_per_target=per_target, resample_scheme=scheme)
    pset = _pset(weights, np.random.default_rng(seed))
    total = pset.total_weight()
    assume(total > 0)  # weights below the floor are held as zero
    out = resample(pset, total, config, np.random.default_rng(seed))
    assert len(out) == target_count(total, config)
    if Fraction(total) / len(out) >= Fraction(WEIGHT_FLOOR):
        assert math.fsum(out.weights.tolist()) == total
        assert out.weights.min() >= WEIGHT_FLOOR
    else:
        # No equal split keeps every weight at the floor: those under it
        # are held as zero.  Every total here that is this small sums
        # copies of 1e-300, and with such a total a mean under the floor
        # takes the first weight with it.
        equalized = _equalized_weights(total, len(out))
        assert np.array_equal(out.weights, np.where(equalized < WEIGHT_FLOOR, 0.0, equalized))
        if total / len(out) < WEIGHT_FLOOR:
            assert np.all(out.weights == 0.0)
    assert np.all(pset.weights[out.ancestry] > 0)
    if scheme == "systematic":
        w = pset.weights
        expected = len(out) * w / w.sum()
        copies = np.bincount(out.ancestry, minlength=len(w))
        assert np.all(copies >= np.floor(expected))
        assert np.all(copies <= np.ceil(expected))


@pytest.mark.parametrize("select", [systematic_indices, multinomial_indices])
def test_selection_rejects_a_total_below_the_floor(select):
    # A `ParticleSet` cannot hold these weights, and selection points on a
    # subnormal total would round onto the cumulative weights.
    w = np.array([5e-324, 5e-324, 1e-323])
    with pytest.raises(ValueError, match="total weight"):
        select(w, 2, np.random.default_rng(0))


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(_weight, min_size=1, max_size=40),
    trailing_zeros=st.integers(0, 3),
    count=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(weights=[0.0, 1.0, 0.0, 2.0], trailing_zeros=1, count=3, seed=0)
def test_selection_matches_the_two_step_reference(weights, trailing_zeros, count, seed):
    w = np.array(weights + [0.0] * trailing_zeros)
    total = w.sum()
    assume(total >= WEIGHT_FLOOR)
    u = np.random.default_rng(seed).random()
    expected = select_reference(w, (u + np.arange(count)) / count * total)
    assert np.array_equal(systematic_indices(w, count, np.random.default_rng(seed)), expected)
    draws = np.random.default_rng(seed).random(count)
    expected = select_reference(w, draws * total)
    assert np.array_equal(multinomial_indices(w, count, np.random.default_rng(seed)), expected)


class _FixedOffset:
    """A generator stand-in whose one uniform draw is fixed."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize(
    "weights",
    [
        [0.3, 0.0, 0.7, 0.0, 0.0],
        [1.0, 2.0, 3.0],
        [0.0, 0.0, 5.0],
        # The running sum of ten 0.7s exceeds their pairwise total, so only
        # setting the last cumulative weight to the total keeps the point at
        # the total on the last, tiny weight.
        [0.7] * 10 + [WEIGHT_FLOOR],
    ],
)
def test_a_unit_point_at_the_total_takes_the_last_positive_weight(weights):
    w = np.array(weights)
    last_positive = int(np.flatnonzero(w).max())
    assert _select(w, np.array([1.0])).tolist() == [last_positive]
    # u = 1 - 2**-53 over 3 points: (u + 2) / 3 rounds up to exactly 1.0.
    u = 1.0 - 2.0**-53
    assert (u + 2.0) / 3 == 1.0
    idx = systematic_indices(w, 3, _FixedOffset(u))
    assert idx[-1] == last_positive
    assert np.array_equal(idx, select_reference(w, (u + np.arange(3)) / 3 * w.sum()))
