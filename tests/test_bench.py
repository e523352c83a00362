"""Microbenchmarks (pytest-benchmark), kept out of the default test run.

Run with: PYTHONPATH=src python -m pytest -m bench tests/test_bench.py
"""

import numpy as np
import pytest

from smcphd.extraction import extract_states, weighted_kmeans
from smcphd.filter import FilterConfig, update
from smcphd.metrics import OspaParams, ospa
from smcphd.models import ClutterModel, ModelSet
from smcphd.particles import ParticleSet
from smcphd.resampling import resample

pytestmark = pytest.mark.bench

TARGETS = 4
SURVEILLANCE = (-100.0, 100.0, -100.0, 100.0)
# A clutter band clear of every target: each detection's row has no clutter
# (kappa = 0), so `update` keeps all of its likelihoods, subnormal ones too.
CLEAR_OF_TARGETS = (-100.0, 100.0, 50.0, 100.0)


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


def _exchange_cloud(n_particles: int = 3300, seed: int = 0) -> ParticleSet:
    """Two targets 1 sigma (3 m in px) apart, weight 1 each, plus a broad
    birth cloud of a fifth of the particles, weight 0.2.  The clusters
    keep trading particles, so Lloyd takes well over ten assignments where
    `_filter_like_cloud` settles in two or three."""
    rng = np.random.default_rng(seed)
    spread = np.array([3.0, 0.5, 3.0, 0.5])
    birth_spread = np.sqrt([10.0, 1.0, 10.0, 1.0])
    centres = np.array([[20.0, 1.0, 10.0, -1.0], [23.0, 1.0, 10.0, -1.0], [0.0, 3.0, 0.0, -3.0]])
    births = n_particles // 5
    label = np.r_[np.arange(n_particles - births) % 2, np.full(births, 2)]
    noise = rng.normal(size=(n_particles, 4)) * np.where(label[:, None] == 2, birth_spread, spread)
    share = np.where(label == 2, 0.2 / births, 2.0 / (n_particles - births))
    weights = rng.uniform(0.5, 1.5, n_particles) * share
    return ParticleSet(states=centres[label] + noise, weights=weights * 2.2 / weights.sum())


def _scan(clutter_points: int, region=SURVEILLANCE, seed: int = 0) -> np.ndarray:
    """One benchmark-like scan: a detection near each target plus
    `clutter_points` clutter points over `region` (10 in the paper presets,
    50 in perfbench's clutter50 workload)."""
    rng = np.random.default_rng(seed)
    detections = _filter_like_cloud(TARGETS, seed).states[:, [0, 2]]
    xmin, xmax, ymin, ymax = region
    clutter = rng.uniform([xmin, ymin], [xmax, ymax], size=(clutter_points, 2))
    return np.vstack([detections, clutter])


@pytest.mark.parametrize("n_particles", [800, 4000])
def test_extract_states(benchmark, n_particles):
    pset = _filter_like_cloud(n_particles)
    est = benchmark(lambda: extract_states(pset, TARGETS, np.random.default_rng(1)))
    assert est.shape == (TARGETS, 4)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("n_particles", [800, 4000])
def test_weighted_kmeans(benchmark, n_particles, k):
    """Seeding and Lloyd iterations alone, on a standardized cloud as
    `extract_states` passes it."""
    pset = _filter_like_cloud(n_particles)
    points = (pset.states - pset.states.mean(axis=0)) / pset.states.std(axis=0)
    centers = benchmark(
        lambda: weighted_kmeans(points, pset.weights, k, np.random.default_rng(1))
    )
    assert centers.shape == (k, 4)


def test_extract_states_cluster_exchange(benchmark):
    pset = _exchange_cloud()
    est = benchmark(lambda: extract_states(pset, 3, np.random.default_rng(1)))
    assert est.shape == (3, 4)


def test_weighted_kmeans_cluster_exchange(benchmark):
    pset = _exchange_cloud()
    points = (pset.states - pset.states.mean(axis=0)) / pset.states.std(axis=0)
    centers = benchmark(
        lambda: weighted_kmeans(points, pset.weights, 3, np.random.default_rng(1))
    )
    assert centers.shape == (3, 4)


@pytest.mark.parametrize(
    "n_particles, clutter_points, region",
    [
        (800, 10, SURVEILLANCE),
        (4000, 10, SURVEILLANCE),
        (800, 50, SURVEILLANCE),
        (800, 50, CLEAR_OF_TARGETS),
        (4000, 116, SURVEILLANCE),
        (30_000, 56, SURVEILLANCE),
        (100_000, 56, SURVEILLANCE),
    ],
    ids=["800-10", "4000-10", "800-50", "800-50-clear", "4000-116", "30000-56", "100000-60"],
)
def test_update(benchmark, n_particles, clutter_points, region):
    """Every row with clutter drops its subnormal likelihoods; with the
    clutter clear of the targets, the detections' rows keep theirs.  A
    120-point scan at 4,000 particles runs in 8 blocks of 16 rows, and a
    60-point scan in 30 blocks of 2 rows at 30,000 particles and in 60
    one-row blocks at 100,000 (the id `100000-60` counts scan points)."""
    pset = _filter_like_cloud(n_particles)
    scan = _scan(clutter_points, region)
    models = ModelSet(clutter=ClutterModel(rate=10.0, region=region))
    post = benchmark(lambda: update(pset, scan, models))
    assert len(post) == n_particles


@pytest.mark.parametrize("n_particles", [800, 4000])
def test_resample(benchmark, n_particles):
    pset = _filter_like_cloud(n_particles)
    config = FilterConfig(particles_per_target=n_particles // TARGETS)
    mass = pset.total_weight()
    out = benchmark(lambda: resample(pset, mass, config, np.random.default_rng(1)))
    assert len(out) == n_particles


@pytest.mark.parametrize("estimated, true", [(3, 4), (4, 6), (12, 15)])
def test_ospa(benchmark, estimated, true):
    """One step's score: estimated positions against true positions over
    the benchmark's surveillance region, as `_run_variant` calls it."""
    rng = np.random.default_rng(0)
    est = rng.uniform(-100.0, 100.0, size=(estimated, 4))[:, [0, 2]]
    truth = rng.uniform(-100.0, 100.0, size=(true, 2))
    d = benchmark(lambda: ospa(est, truth, OspaParams()))
    assert 0.0 < d <= 100.0
