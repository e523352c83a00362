"""Microbenchmarks (pytest-benchmark), kept out of the default test run.

Run with: PYTHONPATH=src python -m pytest -m bench tests/test_bench.py
"""

import numpy as np
import pytest

from smcphd.extraction import extract_states
from smcphd.particles import ParticleSet

pytestmark = pytest.mark.bench

TARGETS = 4


def _filter_like_cloud(n_particles: int, seed: int = 0) -> ParticleSet:
    """Particles spread over TARGETS separated targets, total weight about
    TARGETS, the shape of a converged filter's posterior."""
    rng = np.random.default_rng(seed)
    centres = np.array(
        [
            [-40.0, 3.0, 30.0, -3.0],
            [-10.0, 1.0, -20.0, 2.0],
            [20.0, -2.0, 10.0, 0.0],
            [50.0, 0.0, -40.0, -1.0],
        ]
    )
    states = centres[np.arange(n_particles) % TARGETS]
    states = states + rng.normal(size=(n_particles, 4)) * [3.0, 0.5, 3.0, 0.5]
    weights = rng.uniform(0.5, 1.5, n_particles)
    weights *= TARGETS / weights.sum()
    return ParticleSet(states=states, weights=weights)


@pytest.mark.parametrize("n_particles", [800, 4000])
def test_extract_states(benchmark, n_particles):
    pset = _filter_like_cloud(n_particles)
    est = benchmark(lambda: extract_states(pset, TARGETS, np.random.default_rng(1)))
    assert est.states.shape == (TARGETS, 4)
