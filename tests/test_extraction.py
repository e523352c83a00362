import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smcphd import extraction
from smcphd.extraction import (
    MAX_ITERATIONS,
    REL_MOVE_TOL,
    _weighted_pick,
    extract_states,
    weighted_kmeans,
)
from smcphd.particles import ParticleSet


# Reference implementation: the plain formulation of the k-means++ seeding,
# the Lloyd step and the canonical sort.  The module's fast paths must
# reproduce it bit for bit.


def _reference_seed(points, weights, k, rng):
    centers = np.empty((k, points.shape[1]))
    base = np.cumsum(weights / weights.sum())
    centers[0] = points[_weighted_pick(base, rng)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        score = weights * d2
        total = score.sum()
        if total > 0:
            idx = _weighted_pick(np.cumsum(score / total), rng)
        else:
            idx = _weighted_pick(base, rng)
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _reference_kmeans(points, weights, k, rng, max_iterations=MAX_ITERATIONS, tol=REL_MOVE_TOL):
    centers = _reference_seed(points, weights, k, rng)
    for _ in range(max_iterations):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            mask = assign == j
            cluster_weight = weights[mask].sum()
            if cluster_weight > 0:
                new_centers[j] = weights[mask] @ points[mask] / cluster_weight
        move = np.linalg.norm(new_centers - centers, axis=1)
        ref = np.maximum(1.0, np.linalg.norm(centers, axis=1))
        centers = new_centers
        if np.max(move / ref) < tol:
            break
    return centers


def _reference_extract(pset, n, rng):
    total = pset.weights.sum()
    order = np.lexsort(
        (
            pset.weights,
            pset.states[:, 3],
            pset.states[:, 2],
            pset.states[:, 1],
            pset.states[:, 0],
        )
    )
    states = pset.states[order]
    weights = pset.weights[order]
    mean = weights @ states / total
    var = weights @ (states - mean) ** 2 / total
    std = np.sqrt(var)
    std[std == 0] = 1.0
    centers = _reference_kmeans((states - mean) / std, weights, n, rng)
    return centers * std + mean


def _random_cloud(seed, n_particles, n_clouds, zero_frac, tie_frac):
    """Particles around a few target states, some with zero weight, and a
    share of them with px snapped onto a coarse grid so px values repeat."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(0.0, 40.0, size=(n_clouds, 4)) * [1.0, 0.1, 1.0, 0.1]
    states = centres[rng.integers(0, n_clouds, n_particles)]
    states = states + rng.normal(size=(n_particles, 4)) * [2.0, 0.5, 2.0, 0.5]
    tied = rng.random(n_particles) < tie_frac
    states[tied, 0] = np.round(states[tied, 0] / 5.0) * 5.0
    weights = rng.uniform(0.0, 0.01, n_particles)
    weights[rng.random(n_particles) < zero_frac] = 0.0
    weights[rng.integers(n_particles)] = 0.01  # keep the total weight positive
    return ParticleSet(states=states, weights=weights)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_particles=st.integers(1, 600),
    n_clouds=st.integers(1, 5),
    k=st.integers(1, 8),
    zero_frac=st.sampled_from([0.0, 0.3, 0.9]),
    tie_frac=st.sampled_from([0.0, 0.0, 0.5, 1.0]),
)
def test_extract_states_bit_identical_to_reference(
    seed, n_particles, n_clouds, k, zero_frac, tie_frac
):
    # k may exceed the number of distinct states (a single particle, or a
    # cloud with few positive weights); duplicate centroids must match too.
    pset = _random_cloud(seed, n_particles, n_clouds, zero_frac, tie_frac)
    got = extract_states(pset, k, np.random.default_rng(seed))
    expect = _reference_extract(pset, k, np.random.default_rng(seed))
    assert np.array_equal(got, expect)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(1, 300), k=st.integers(1, 6))
def test_weighted_kmeans_bit_identical_to_reference(seed, n_points, k):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n_points, 4)) * rng.uniform(0.1, 10.0, 4)
    weights = rng.uniform(0.0, 1.0, n_points)
    got = weighted_kmeans(points, weights, k, np.random.default_rng(seed + 1))
    expect = _reference_kmeans(points, weights, k, np.random.default_rng(seed + 1))
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("max_iterations, tol", [(0, REL_MOVE_TOL), (1, REL_MOVE_TOL), (100, 0.0), (100, REL_MOVE_TOL)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_cluster_is_one_weighted_mean(seed, max_iterations, tol):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(200, 4)) * [20.0, 1.0, 20.0, 1.0]
    weights = rng.uniform(0.0, 1.0, 200)
    got = weighted_kmeans(points, weights, 1, np.random.default_rng(seed), max_iterations, tol)
    expect = _reference_kmeans(
        points, weights, 1, np.random.default_rng(seed), max_iterations, tol
    )
    assert np.array_equal(got, expect)
    if max_iterations > 0:
        assert np.array_equal(got[0], weights @ points / weights.sum())


def test_one_target_extraction_matches_reference():
    pset = _random_cloud(3, 500, 1, 0.3, 0.5)
    got = extract_states(pset, 1, np.random.default_rng(9))
    expect = _reference_extract(pset, 1, np.random.default_rng(9))
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("tol", [REL_MOVE_TOL, 0.0])
def test_assignment_repeating_on_first_step_stops_lloyd(monkeypatch, tol):
    # Two far-apart clouds: k-means++ seeds one center in each, so the first
    # weighted means leave every point where it was assigned.  With tol 0
    # the plain loop runs all its iterations; the result must not change.
    rng = np.random.default_rng(12)
    points = np.vstack([rng.normal(-50.0, 1.0, (100, 4)), rng.normal(50.0, 1.0, (100, 4))])
    weights = rng.uniform(0.5, 1.5, 200)
    calls = []
    nearest = extraction._nearest_center

    def spy(d2):
        calls.append(nearest(d2))
        return calls[-1]

    monkeypatch.setattr(extraction, "_nearest_center", spy)
    got = weighted_kmeans(points, weights, 2, np.random.default_rng(13), tol=tol)
    assert len(calls) == 2
    assert np.array_equal(calls[0], calls[1])
    expect = _reference_kmeans(points, weights, 2, np.random.default_rng(13), tol=tol)
    assert np.array_equal(got, expect)


def test_tied_px_takes_lexsort_fallback_and_matches(monkeypatch):
    calls = []
    lexsort = np.lexsort

    def spy(keys):
        calls.append(len(keys))
        return lexsort(keys)

    monkeypatch.setattr(extraction.np, "lexsort", spy)
    pset = _random_cloud(11, 300, 3, 0.0, 0.0)
    extract_states(pset, 3, np.random.default_rng(0))
    assert calls == []  # distinct px: the one-key sort suffices

    pset.states[::7, 0] = pset.states[1, 0]  # force ties in px only
    px_only = np.argsort(pset.states[:, 0], kind="stable")
    full = lexsort(pset.states.T[::-1])
    assert not np.array_equal(px_only, full)  # ties are broken by later keys
    got = extract_states(pset, 3, np.random.default_rng(0))
    assert calls == [5]
    expect = _reference_extract(pset, 3, np.random.default_rng(0))
    assert np.array_equal(got, expect)


def test_zero_targets_gives_empty_estimate():
    pset = ParticleSet(states=np.random.default_rng(0).normal(size=(10, 4)), weights=np.full(10, 0.1))
    est = extract_states(pset, 0, np.random.default_rng(1))
    assert len(est) == 0
    assert est.shape == (0, 4)


def test_two_separated_clouds_recover_weighted_means():
    # Two clouds at (-50, 0) and (+50, 0) with a shared constant velocity;
    # after standardization the separating axis dominates, so converged
    # k-means assigns each cloud to its own cluster.
    rng = np.random.default_rng(2)
    n = 400
    left = np.column_stack(
        [rng.normal(-50, 1.0, n), np.full(n, 3.0), rng.normal(0, 1.0, n), np.full(n, -3.0)]
    )
    right = np.column_stack(
        [rng.normal(50, 1.0, n), np.full(n, 3.0), rng.normal(0, 1.0, n), np.full(n, -3.0)]
    )
    weights = rng.uniform(0.5, 1.5, 2 * n) * (1.0 / n)
    pset = ParticleSet(states=np.vstack([left, right]), weights=weights)

    # Oracle: per-cloud weighted means computed directly.
    wl, wr = weights[:n], weights[n:]
    mean_left = wl @ left / wl.sum()
    mean_right = wr @ right / wr.sum()

    est = extract_states(pset, 2, np.random.default_rng(3))
    got = est[np.argsort(est[:, 0])]
    expect = np.vstack([mean_left, mean_right])
    assert np.all(np.abs(got - expect) <= 1e-6)


def test_all_identical_particles_single_cluster_is_exact():
    state = np.array([1.25, -0.5, 3.75, 0.125])
    pset = ParticleSet(states=np.tile(state, (20, 1)), weights=np.full(20, 0.05))
    est = extract_states(pset, 1, np.random.default_rng(4))
    assert np.array_equal(est[0], state)


def test_permutation_invariance_given_same_stream():
    rng = np.random.default_rng(5)
    states = rng.normal(size=(300, 4)) * [20, 1, 20, 1]
    weights = rng.uniform(0, 1, 300)
    pset = ParticleSet(states=states, weights=weights)
    perm = rng.permutation(300)
    shuffled = ParticleSet(states=states[perm], weights=weights[perm])
    a = extract_states(pset, 3, np.random.default_rng(42))
    b = extract_states(shuffled, 3, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_more_clusters_than_distinct_states_allows_duplicates():
    states = np.array([[0.0, 0, 0, 0], [10.0, 0, 0, 0]])
    pset = ParticleSet(states=states, weights=np.array([1.0, 1.0]))
    est = extract_states(pset, 3, np.random.default_rng(6))
    assert len(est) == 3
    assert est.shape == (3, 4)
    for row in est:
        assert any(np.allclose(row, s, atol=1e-12) for s in states)


def test_extract_rejects_invalid_requests():
    pset = ParticleSet(states=np.zeros((3, 4)), weights=np.zeros(3))
    with pytest.raises(ValueError):
        extract_states(pset, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        extract_states(pset, -1, np.random.default_rng(0))


def test_weighted_kmeans_respects_weights():
    # A heavy point pulls its cluster mean toward itself.
    pts = np.array([[0.0], [1.0], [10.0]])
    w = np.array([9.0, 1.0, 5.0])
    centers = weighted_kmeans(pts, w, 2, np.random.default_rng(7))
    centers = np.sort(centers.ravel())
    assert centers[0] == pytest.approx(0.1, abs=1e-9)  # (9*0 + 1*1) / 10
    assert centers[1] == pytest.approx(10.0, abs=1e-9)
