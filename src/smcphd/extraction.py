"""Multi-target state extraction via weighted k-means on the particle cloud.

The number of clusters equals the rounded weight sum; centroids are the
reported target states.  Determinism: particles are sorted into a canonical
order before seeding, so the result depends only on the particle population
(as a multiset) and the seeding stream, not on input ordering.

The seeding, the Lloyd step and the canonical sort take faster routes than
the plain formulation: distances built per dimension instead of as one
(N, k, 4) array, the seeding's distances reused by the first assignment,
a stop at Lloyd's fixed point (an assignment that repeats the previous
one), and a one-key sort on px when it has no ties.
These are exact re-orderings or omissions of the same floating-point
operations, not approximations: the results are bit-identical to the
plain k-means, which the tests keep as a reference.  Every cluster count,
one included, takes this one path.
"""

import numpy as np

from .models import STATE_DIM
from .particles import ParticleSet

MAX_ITERATIONS = 100


def _weighted_pick(cumulative: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn from a normalized cumulative distribution."""
    u = rng.random()
    return int(min(np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1))


def _distance_rows(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The (k, n) squared distances from every point to each row of `centers`.

    `coords` holds the points transposed, one contiguous row per dimension.
    The squares are summed over the dimensions left to right, the order
    `((points - c) ** 2).sum(axis=-1)` uses below 8 columns, so the values
    are bit-identical to it.
    """
    c = centers.T[:, :, None]
    # Squared in place: a new array per square made np1000 extraction ~4% slower.
    d2 = coords[0] - c[0]
    d2 *= d2
    for d in range(1, len(coords)):
        term = coords[d] - c[d]
        term *= term
        d2 += term
    return d2


def _seed_centers(coords: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator):
    """Weighted k-means++ seeding over `coords`, the points transposed:
    first center by weight, then by weight times squared distance to the
    nearest chosen center.

    Returns the centers and their (k, n) squared distances to every point,
    for the first Lloyd assignment.
    """
    centers = np.empty((k, len(coords)))
    rows = []
    base = cumulative = np.cumsum(weights / weights.sum())
    for j in range(k):
        centers[j] = coords[:, _weighted_pick(cumulative, rng)]
        rows.append(_distance_rows(coords, centers[j : j + 1]))
        if j + 1 < k:
            nearest = rows[0][0] if j == 0 else np.minimum(nearest, rows[j][0])
            score = weights * nearest
            total = score.sum()
            # All mass sits on already-chosen centers; duplicates are allowed.
            cumulative = np.cumsum(score / total) if total > 0 else base
    return centers, np.concatenate(rows)


def _nearest_center(d2: np.ndarray) -> np.ndarray:
    """Index of each point's nearest center, the first one on ties, from
    the (k, n) squared distances; equal to `np.argmin(d2, axis=0)`.  With
    two centers that is one comparison; a lone center compares with itself,
    so every point takes it.  Leaves `d2` as it is."""
    assign = (d2[min(1, len(d2) - 1)] < d2[0]).astype(np.min_scalar_type(len(d2) - 1))
    best = d2[0]
    for j in range(2, len(d2)):
        best = np.minimum(best, d2[j - 1])
        np.putmask(assign, d2[j] < best, j)
    return assign


def weighted_kmeans(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Lloyd iterations with weighted means; clusters that lose all weight
    keep their previous center (duplicate centroids are valid output).
    Points have 1 to 7 columns, which the distance rows sum left to right.
    k < 1, an empty point set, a non-finite point, weights of another
    length, a negative or non-finite weight and a zero total raise
    ValueError.

    The loop stops when an assignment repeats the previous one, since the
    plain loop would then repeat it bit for bit, or after MAX_ITERATIONS
    assignments, the safety cap.  One cluster is one weighted mean: its
    first assignment takes every point, and its second repeats that.
    """
    # Contiguous float64, the layout boolean-mask copies had, so the BLAS
    # products below see the same operands for any caller's arrays.
    points = np.ascontiguousarray(points, dtype=float)
    weights = np.ascontiguousarray(weights, dtype=float)
    if points.ndim != 2 or not 0 < points.shape[1] < 8:
        raise ValueError("weighted_kmeans needs points of 1 to 7 columns")
    if k < 1:
        raise ValueError(f"weighted_kmeans needs k >= 1 clusters, not {k}")
    if len(points) == 0 or weights.shape != (len(points),):
        raise ValueError("weighted_kmeans needs one or more points and one weight per point")
    if not np.isfinite(points).all():
        raise ValueError("weighted_kmeans needs finite points")
    # A NaN weight fails the first comparison and an infinite one the last.
    if not (weights.min() >= 0 and 0 < weights.sum() < np.inf):
        raise ValueError("weighted_kmeans needs finite weights >= 0 with a positive total")
    coords = np.ascontiguousarray(points.T)
    centers, d2 = _seed_centers(coords, weights, k, rng)
    assign = None
    for i in range(MAX_ITERATIONS):
        if i:
            d2 = _distance_rows(coords, centers)
        previous, assign = assign, _nearest_center(d2)
        if i and np.array_equal(assign, previous):
            break
        for j in range(k):
            # The operands boolean masks would give; a weightless cluster stays.
            members = (assign == j).nonzero()[0]
            w = weights.take(members)
            total = w.sum()
            if total > 0:
                centers[j] = w @ points.take(members, axis=0) / total
    return centers


def _canonical_order(pset: ParticleSet) -> np.ndarray:
    """Particle order by (px, vx, py, vy, weight), lexicographically.

    When the px values are all distinct, which is the usual case, sorting
    on px alone gives that order, and since the order is then unique any
    sort algorithm finds it.  A tie (or a NaN) falls back to the full
    five-key sort.
    """
    px = pset.states[:, 0]
    order = np.argsort(px)
    sorted_px = px[order]
    if np.all(sorted_px[1:] > sorted_px[:-1]):
        return order
    return np.lexsort(
        (
            pset.weights,
            pset.states[:, 3],
            pset.states[:, 2],
            pset.states[:, 1],
            px,
        )
    )


def extract_states(pset: ParticleSet, n: int, rng: np.random.Generator) -> np.ndarray:
    """Cluster the weighted particles into n target-state estimates, an
    (n, 4) array.

    States are standardized per dimension (weighted mean/std) before
    clustering so position and velocity scales contribute comparably, and
    the centroids are mapped back afterwards.  Both transforms and the
    clustering raise FloatingPointError where they overflow or give NaN,
    which a state spread near the largest double can make them do.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return np.empty((0, STATE_DIM))
    total = pset.weights.sum()
    if total <= 0:
        raise ValueError("cannot extract states from a set with zero total weight")

    order = _canonical_order(pset)
    states = pset.states.take(order, axis=0)
    weights = pset.weights.take(order)

    # Tiled to (n, 4), the mean and the std cost numpy one flat loop each,
    # not an inner loop of 4 per particle; the values are the same.
    with np.errstate(over="raise", invalid="raise"):
        mean = weights @ states / total
        centered = np.subtract(states, np.tile(mean, (len(states), 1)), out=states)
        var = weights @ centered**2 / total
        std = np.sqrt(var)
        std[std == 0] = 1.0
        normalized = np.divide(centered, np.tile(std, (len(states), 1)), out=centered)
        centers = weighted_kmeans(normalized, weights, n, rng)
        return centers * std + mean
