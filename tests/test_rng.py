import numpy as np
import pytest

from smcphd.rng import stream


def test_same_triple_same_draws():
    a = stream(7, 3, "prediction")
    b = stream(7, 3, "prediction")
    assert np.array_equal(a.random(16), b.random(16))


def test_streams_differ_across_purposes_trials_and_seeds():
    base = stream(7, 3, "prediction").random(8)
    assert not np.array_equal(base, stream(7, 3, "resampling").random(8))
    assert not np.array_equal(base, stream(7, 4, "prediction").random(8))
    assert not np.array_equal(base, stream(8, 3, "prediction").random(8))


def test_unknown_purpose_rejected():
    with pytest.raises(ValueError, match="unknown rng purpose 'coffee'"):
        stream(1, 0, "coffee")


def test_a_float_seed_is_not_truncated():
    with pytest.raises(TypeError):
        stream(1.5, 0, "truth")
    assert np.array_equal(stream(np.int64(7), 3, "truth").random(4), stream(7, 3, "truth").random(4))


def test_zero_size_draws_leave_the_stream_in_place():
    # The filter and the scenario draw for empty sets and empty scans with
    # no special case: a zero-size request must not move the stream.
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    rng.standard_normal((0, 2))
    rng.standard_normal((0, 4))
    rng.random(0)
    rng.permutation(0)
    assert rng.bit_generator.state == before
