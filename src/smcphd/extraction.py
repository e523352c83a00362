"""Multi-target state extraction via weighted k-means on the particle cloud.

The number of clusters equals the rounded weight sum; centroids are the
reported target states.  Determinism: particles are sorted into a canonical
order before seeding, so the result depends only on the particle population
(as a multiset) and the seeding stream, not on input ordering.

The seeding, the Lloyd step and the canonical sort take faster routes than
the plain formulation: distances built per dimension instead of as one
(N, k, 4) array, the seeding's distances reused by the first assignment,
clusters summed as runs of a stable sort instead of through boolean masks,
a stop at the first repeated assignment, and a one-key sort on px when it
has no ties.  These are exact re-orderings or omissions of the same
floating-point operations, not approximations: the results are
bit-identical to the plain k-means, which the tests keep as a reference
implementation.
"""

import numpy as np

from .models import STATE_DIM
from .particles import ParticleSet

MAX_ITERATIONS = 100
REL_MOVE_TOL = 1e-6


def _weighted_pick(cumulative: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn from a normalized cumulative distribution."""
    u = rng.random()
    return int(min(np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1))


def _squared_distances(coords: np.ndarray, centers) -> np.ndarray:
    """Squared distances from every point to one center or to several.

    `coords` holds the points transposed, one contiguous row per dimension,
    and `centers[d]` is dimension d of the centers: a scalar for one center,
    a (k, 1) column for k of them.  The squares are summed over the
    dimensions left to right, the order `((points - c) ** 2).sum(axis=-1)`
    uses over four columns, so the values are bit-identical to it.
    """
    d2 = (coords[0] - centers[0]) ** 2
    for d in range(1, len(coords)):
        d2 += (coords[d] - centers[d]) ** 2
    return d2


def _seed_centers(
    points: np.ndarray,
    coords: np.ndarray | None,
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> tuple:
    """Weighted k-means++ seeding: first center by weight, then by
    weight times squared distance to the nearest chosen center.

    Returns the centers and, for k > 1, the (k, n) squared distances from
    each center to every point (`_squared_distances` over `coords`, which is
    `points` transposed): the first Lloyd assignment's distances.
    """
    centers = np.empty((k, points.shape[1]))
    base = np.cumsum(weights / weights.sum())
    centers[0] = points[_weighted_pick(base, rng)]
    if k == 1:
        return centers, None
    d2 = np.empty((k, len(points)))
    d2[0] = _squared_distances(coords, centers[0])
    nearest = d2[0]
    for j in range(1, k):
        score = weights * nearest
        total = score.sum()
        if total > 0:
            idx = _weighted_pick(np.cumsum(score / total), rng)
        else:
            # All mass sits on already-chosen centers; duplicates are allowed.
            idx = _weighted_pick(base, rng)
        centers[j] = points[idx]
        d2[j] = _squared_distances(coords, centers[j])
        if j + 1 < k:
            nearest = np.minimum(nearest, d2[j])
    return centers, d2


def _nearest_center(d2: np.ndarray) -> np.ndarray:
    """Index of each point's nearest center, the first one on ties, from
    the (k, n) squared distances; equal to `np.argmin(d2, axis=0)`.
    Overwrites `d2[0]`."""
    best = d2[0]
    assign = np.zeros(d2.shape[1], dtype=np.min_scalar_type(len(d2) - 1))
    for j in range(1, len(d2)):
        np.putmask(assign, d2[j] < best, j)
        np.minimum(best, d2[j], out=best)
    return assign


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: what `np.linalg.norm(x, axis=1)` computes
    for a real array, without its Python-level dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def weighted_kmeans(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Lloyd iterations with weighted means; clusters that lose all weight
    keep their previous center (duplicate centroids are valid output).
    The loop runs at most MAX_ITERATIONS times and stops once no center
    moves by REL_MOVE_TOL of its norm (at least 1).

    Each iteration sorts the points by cluster with a stable sort, so every
    cluster is a contiguous run holding its points in input order; its
    weight sum and weighted mean then add the same numbers in the same
    order as boolean-mask selection would, and give the same bits.

    An assignment equal to the previous one would sum the same runs again
    into bit-equal centers: a fixed point, which the plain loop leaves only
    by its move test or its iteration cap, with these same centers.  So the
    loop stops there.  With one cluster every point is always assigned to
    it, and a single weighted mean is the result.
    """
    # Contiguous float64, the layout boolean-mask copies had, so the BLAS
    # products below see the same operands for any caller's arrays.
    points = np.ascontiguousarray(points, dtype=float)
    weights = np.ascontiguousarray(weights, dtype=float)
    coords = np.ascontiguousarray(points.T) if k > 1 else None
    centers, d2 = _seed_centers(points, coords, weights, k, rng)
    if k == 1:
        total = weights.sum()
        if total > 0:
            centers[0] = weights @ points / total
        return centers
    bounds = np.zeros(k + 1, dtype=np.intp)
    bounds[-1] = len(points)
    for iteration in range(MAX_ITERATIONS):
        if iteration > 0:
            d2 = _squared_distances(coords, centers.T[:, :, None])
        assign = _nearest_center(d2)
        if iteration > 0 and (assign == previous).all():
            break
        previous = assign
        order = np.argsort(assign, kind="stable")
        ps, ws = points.take(order, axis=0), weights.take(order)
        bounds[1:] = np.cumsum(np.bincount(assign, minlength=k))
        new_centers = centers.copy()
        for j in range(k):
            lo, hi = bounds[j], bounds[j + 1]
            cluster_weight = ws[lo:hi].sum()
            if cluster_weight > 0:
                new_centers[j] = ws[lo:hi] @ ps[lo:hi] / cluster_weight
        move = _row_norms(new_centers - centers)
        ref = np.maximum(1.0, _row_norms(centers))
        centers = new_centers
        if (move / ref).max() < REL_MOVE_TOL:
            break
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
    the centroids are mapped back afterwards.  Both transforms raise
    FloatingPointError where they overflow or give NaN, which a state
    spread near the largest double can make them do.
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

    with np.errstate(over="raise", invalid="raise"):
        mean = weights @ states / total
        centered = states - mean
        var = weights @ centered**2 / total
        std = np.sqrt(var)
        std[std == 0] = 1.0
        normalized = centered / std
    centers = weighted_kmeans(normalized, weights, n, rng)
    with np.errstate(over="raise", invalid="raise"):
        return centers * std + mean
