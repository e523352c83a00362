import io

import numpy as np
import pytest

from smcphd.particles import ParticleSet, empty_set, round_half_up, write_particles


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


def test_empty_set_properties():
    pset = empty_set(step=7)
    assert len(pset) == 0
    assert pset.total_weight() == 0.0
    assert pset.states.shape == (0, 4)
    assert pset.step == 7


def test_total_weight_is_compensated():
    # fsum handles magnitudes that naive accumulation would drop.
    weights = np.array([1e16, 1.0, -0.0, 1.0])
    pset = ParticleSet(states=np.zeros((4, 4)), weights=weights)
    assert pset.total_weight() == 1e16 + 2.0


def test_serialization_roundtrip_bitwise():
    rng = np.random.default_rng(0)
    pset = ParticleSet(
        states=rng.normal(scale=50, size=(25, 4)),
        weights=rng.uniform(0, 0.3, 25),
        step=12,
    )
    buf = io.StringIO()
    write_particles(pset, buf)
    buf.seek(0)
    rows = np.loadtxt(buf, ndmin=2)  # step px vx py vy weight
    assert np.all(rows[:, 0] == 12)
    assert np.array_equal(rows[:, 1:5], pset.states)
    assert np.array_equal(rows[:, 5], pset.weights)
