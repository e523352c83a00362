import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smcphd import extraction
from smcphd.extraction import (
    MAX_ITERATIONS,
    _distance_rows,
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


# The relative move tolerance Lloyd used to stop on: a step that moves every
# center by less than this share of its norm (at least 1) ended the loop.
OLD_REL_MOVE_TOL = 1e-6


def _reference_kmeans(
    points, weights, k, rng, max_iterations=MAX_ITERATIONS, tol=0.0, assignments=None
):
    # Plain Lloyd for `max_iterations` iterations; a `tol` above 0 stops it
    # early on the old relative move rule instead.  Each assignment is
    # appended to `assignments` if that is a list.
    centers = _reference_seed(points, weights, k, rng)
    for _ in range(max_iterations):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        if assignments is not None:
            assignments.append(assign)
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


def _exchange_points(seed, n_points, columns, zero_frac, zero_cloud, duplicate_frac):
    """A far cloud whose cluster freezes after the first assignment, beside
    two overlapping clouds that keep exchanging points.  Some points weigh
    nothing, one cloud may weigh nothing as a whole, and some points repeat
    an earlier one exactly, so two centers can coincide and tie."""
    rng = np.random.default_rng(seed)
    cloud = rng.integers(0, 3, n_points)
    spread = np.array([1.0, 1.0, 0.1])[cloud, None]
    noise = rng.normal(size=(n_points, columns)) * spread
    points = np.array([0.0, 1.0, 40.0])[cloud, None] + noise
    duplicates = rng.random(n_points) < duplicate_frac
    points[duplicates] = points[rng.integers(0, n_points, duplicates.sum())]
    weights = rng.uniform(0.5, 1.5, n_points)
    weights[rng.random(n_points) < zero_frac] = 0.0
    if zero_cloud is not None:
        weights[cloud == zero_cloud] = 0.0
    weights[rng.integers(n_points)] = 1.0  # keep the total weight positive
    return points, weights


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(1, 300),
    columns=st.sampled_from([1, 2, 4]),
    k=st.integers(1, 8),
    zero_frac=st.sampled_from([0.0, 0.3]),
    zero_cloud=st.sampled_from([None, 0, 2]),
    duplicate_frac=st.sampled_from([0.0, 0.5]),
    max_iterations=st.sampled_from([1, 2, 3, MAX_ITERATIONS]),
)
def test_skipped_rows_and_sums_keep_kmeans_bit_identical(
    seed, n_points, columns, k, zero_frac, zero_cloud, duplicate_frac, max_iterations
):
    # Lloyd reuses the seeding's distances for its first assignment and
    # stops at a repeated one; the reference runs every iteration in full.
    points, weights = _exchange_points(
        seed, n_points, columns, zero_frac, zero_cloud, duplicate_frac
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extraction, "MAX_ITERATIONS", max_iterations)
        got = weighted_kmeans(points, weights, k, np.random.default_rng(seed))
    expect = _reference_kmeans(points, weights, k, np.random.default_rng(seed), max_iterations)
    assert np.array_equal(got, expect)
    assert np.array_equal(np.signbit(got), np.signbit(expect))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(1, 300),
    columns=st.sampled_from([1, 2, 4]),
    k=st.integers(1, 8),
    zero_frac=st.sampled_from([0.0, 0.3]),
    zero_cloud=st.sampled_from([None, 0, 2]),
    duplicate_frac=st.sampled_from([0.0, 0.5]),
    max_iterations=st.sampled_from([1, 2, 3, MAX_ITERATIONS]),
)
def test_lloyd_makes_the_plain_loops_assignments(
    seed, n_points, columns, k, zero_frac, zero_cloud, duplicate_frac, max_iterations
):
    # As many assignments as plain Lloyd makes up to and including its first
    # repeated one, or the cap if that comes first: no more, no fewer.
    points, weights = _exchange_points(
        seed, n_points, columns, zero_frac, zero_cloud, duplicate_frac
    )
    calls = []
    nearest = extraction._nearest_center

    def spy(d2):
        calls.append(None)
        return nearest(d2)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extraction, "MAX_ITERATIONS", max_iterations)
        patch.setattr(extraction, "_nearest_center", spy)
        weighted_kmeans(points, weights, k, np.random.default_rng(seed))
    plain = []
    _reference_kmeans(
        points, weights, k, np.random.default_rng(seed), max_iterations, assignments=plain
    )
    repeats = [i for i in range(1, len(plain)) if np.array_equal(plain[i], plain[i - 1])]
    assert len(calls) == (repeats[0] + 1 if repeats else max_iterations)


@pytest.mark.parametrize("columns", range(1, 8))
def test_distance_rows_have_the_bits_of_numpy_row_sums(columns):
    # The distance rows sum squares left to right, the order numpy's reduce
    # sums a row of fewer than 8 columns in; from 8 columns on it does not,
    # and `weighted_kmeans` rejects such points.
    rng = np.random.default_rng(columns)
    shape = (5000, columns)
    points = 10.0 ** rng.uniform(-8, 8, shape) * rng.choice([-1.0, 1.0], shape)
    centers = points[rng.integers(0, len(points), 5)] + 10.0 ** rng.uniform(-8, 8, (5, columns))
    rows = _distance_rows(np.ascontiguousarray(points.T), centers)
    assert np.array_equal(rows, ((points[None] - centers[:, None]) ** 2).sum(axis=-1))


@pytest.mark.parametrize("columns", [0, 8])
def test_weighted_kmeans_takes_1_to_7_columns(columns):
    with pytest.raises(ValueError, match="1 to 7 columns"):
        weighted_kmeans(np.zeros((5, columns)), np.ones(5), 2, np.random.default_rng(0))


_EIGHT = np.arange(8.0).reshape(4, 2)
_NAN_POINT, _INF_POINT = _EIGHT.copy(), _EIGHT.copy()
_NAN_POINT[1, 0], _INF_POINT[1, 0] = np.nan, np.inf


@pytest.mark.parametrize(
    "points, weights, k",
    [
        pytest.param(np.zeros((0, 2)), np.zeros(0), 2, id="no-points"),
        pytest.param(_EIGHT, np.ones(3), 2, id="short-weights"),
        pytest.param(_EIGHT, np.ones((4, 1)), 2, id="column-weights"),
        pytest.param(_EIGHT, [1.0, np.nan, 1.0, 1.0], 2, id="nan"),
        pytest.param(_EIGHT, [1.0, np.inf, 1.0, 1.0], 2, id="inf"),
        pytest.param(_EIGHT, [1.0, -1.0, 1.0, 1.0], 2, id="negative"),
        pytest.param(_EIGHT, np.zeros(4), 2, id="zero-total"),
        pytest.param(_EIGHT, np.ones(4), 0, id="k-zero"),
        pytest.param(_EIGHT, np.ones(4), -1, id="k-negative"),
        pytest.param(_NAN_POINT, np.ones(4), 2, id="nan-point"),
        pytest.param(_INF_POINT, np.ones(4), 2, id="inf-point"),
    ],
)
def test_weighted_kmeans_rejects_weights_it_cannot_use(points, weights, k):
    # Each is a ValueError before any arithmetic, not an IndexError, a
    # warning or a set of centers; so are a cluster count below 1 and a
    # non-finite point.
    with pytest.raises(ValueError, match="weighted_kmeans needs"):
        weighted_kmeans(points, weights, k, np.random.default_rng(0))


@pytest.mark.parametrize(
    "max_iterations, tol",
    [(0, OLD_REL_MOVE_TOL), (1, OLD_REL_MOVE_TOL), (100, 0.0), (100, OLD_REL_MOVE_TOL)],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_cluster_is_one_weighted_mean(monkeypatch, seed, max_iterations, tol):
    # With a cap of 1 or more, one cluster is one weighted mean, and that is
    # also the reference loop's result, whether it runs plain (tol 0) or
    # stops on the old tolerance.  A cap of 0 makes no assignment and leaves
    # the seed, as it does for any k.
    monkeypatch.setattr(extraction, "MAX_ITERATIONS", max_iterations)
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(200, 4)) * [20.0, 1.0, 20.0, 1.0]
    weights = rng.uniform(0.0, 1.0, 200)
    got = weighted_kmeans(points, weights, 1, np.random.default_rng(seed))
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


@pytest.mark.parametrize("tol", [OLD_REL_MOVE_TOL, 0.0])
def test_assignment_repeating_on_first_step_stops_lloyd(monkeypatch, tol):
    # Two far-apart clouds: k-means++ seeds one center in each, so the first
    # weighted means leave every point where it was assigned.  With tol 0
    # the reference loop runs all its iterations, with the old tolerance it
    # stops on the first step that moves nothing; the result must not change.
    rng = np.random.default_rng(12)
    points = np.vstack([rng.normal(-50.0, 1.0, (100, 4)), rng.normal(50.0, 1.0, (100, 4))])
    weights = rng.uniform(0.5, 1.5, 200)
    calls = []
    nearest = extraction._nearest_center

    def spy(d2):
        calls.append(nearest(d2))
        return calls[-1]

    monkeypatch.setattr(extraction, "_nearest_center", spy)
    got = weighted_kmeans(points, weights, 2, np.random.default_rng(13))
    assert len(calls) == 2
    assert np.array_equal(calls[0], calls[1])
    expect = _reference_kmeans(points, weights, 2, np.random.default_rng(13), tol=tol)
    assert np.array_equal(got, expect)


def test_lloyd_stops_only_at_a_fixed_point(monkeypatch):
    # The tiny point flips to the other cluster in the second assignment,
    # which moves both centers by about 1e-12 of their norm.  The loop runs
    # on until an assignment repeats.
    calls = []
    nearest = extraction._nearest_center

    def spy(d2):
        calls.append(nearest(d2))
        return calls[-1]

    monkeypatch.setattr(extraction, "_nearest_center", spy)
    points, weights = [[-1.0], [1.0], [3.0], [0.2]], [1.0, 1.0, 1.0, 1e-12]
    got = weighted_kmeans(points, weights, 2, np.random.default_rng(0))
    assert not np.array_equal(calls[0], calls[1])
    assert np.array_equal(calls[-2], calls[-1])
    expect = _reference_kmeans(np.array(points), np.array(weights), 2, np.random.default_rng(0))
    assert np.array_equal(got, expect)


def test_clustering_overflow_is_a_floating_point_error():
    # Standardized, the zero-weight row at 1e10 lies about 1e160 from the
    # rest, and its squared distance to a center overflows.
    states = np.zeros((4, 4))
    states[1], states[3] = 1e-150, 1e10
    pset = ParticleSet(states=states, weights=np.array([1.0, 1.0, 1.0, 0.0]))
    with pytest.raises(FloatingPointError, match="overflow"):
        extract_states(pset, 2, np.random.default_rng(0))


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
