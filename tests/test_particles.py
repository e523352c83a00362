import numpy as np
import pytest

from smcphd.particles import WEIGHT_FLOOR, ParticleSet, empty_set, round_half_up


def test_round_half_up():
    assert round_half_up(3.6) == 4
    assert round_half_up(0.4) == 0
    assert round_half_up(2.5) == 3
    assert round_half_up(3.5) == 4
    assert round_half_up(0.0) == 0
    with pytest.raises(ValueError):
        round_half_up(-0.5)


def test_particle_set_validation():
    with pytest.raises(ValueError):
        ParticleSet(states=np.zeros((2, 3)), weights=np.ones(2))
    with pytest.raises(ValueError):
        ParticleSet(states=np.zeros((2, 4)), weights=np.ones(3))
    with pytest.raises(ValueError):
        ParticleSet(states=np.full((1, 4), np.inf), weights=np.ones(1))
    with pytest.raises(ValueError):
        ParticleSet(states=np.zeros((2, 4)), weights=[-0.1, 0.1])
    with pytest.raises(ValueError):
        ParticleSet(states=np.zeros((2, 4)), weights=np.ones(2), ancestry=[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
def test_nonfinite_or_negative_weight_rejected(bad):
    with pytest.raises(ValueError, match="weights must be finite"):
        ParticleSet(states=np.zeros((3, 4)), weights=[0.1, bad, 0.1])


def test_negative_zero_weight_accepted():
    assert ParticleSet(states=np.zeros((2, 4)), weights=[-0.0, 0.5]).total_weight() == 0.5


def test_weights_below_the_floor_are_held_as_zero():
    weights = np.array([5e-324, 1e-310, WEIGHT_FLOOR, 0.5])
    pset = ParticleSet(states=np.zeros((4, 4)), weights=weights)
    assert np.array_equal(pset.weights, [0.0, 0.0, 1e-300, 0.5])
    assert np.array_equal(weights, [5e-324, 1e-310, 1e-300, 0.5])


def test_empty_set_properties():
    pset = empty_set()
    assert len(pset) == 0
    assert pset.total_weight() == 0.0
    assert pset.states.shape == (0, 4)


def test_total_weight_is_compensated():
    # fsum handles magnitudes that naive accumulation would drop.
    weights = np.array([1e16, 1.0, -0.0, 1.0])
    pset = ParticleSet(states=np.zeros((4, 4)), weights=weights)
    assert pset.total_weight() == 1e16 + 2.0
