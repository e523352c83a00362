"""Multi-target state extraction via weighted k-means on the particle cloud.

The number of clusters equals the rounded weight sum; centroids are the
reported target states.  Determinism: particles are sorted into a canonical
order before seeding, so the result depends only on the particle population
(as a multiset) and the seeding stream, not on input ordering.

The seeding, the Lloyd step and the canonical sort take faster routes than
the plain formulation: distances built per dimension into kept buffers
instead of as one (N, k, 4) array, the seeding's distances reused by the
first assignment, a stop at the first repeated assignment, and a one-key
sort on px when it has no ties.  Lloyd recomputes only the distance rows of
centers that moved, since the same center gives the same row bits, and
re-sums only the clusters whose member set changed, since the same members
taken in index order give the same operands.  These are exact re-orderings
or omissions of the same floating-point operations, not approximations:
the results are bit-identical to the plain k-means, which the tests keep
as a reference implementation.
"""

import math

import numpy as np

from .models import STATE_DIM
from .particles import ParticleSet

MAX_ITERATIONS = 100
REL_MOVE_TOL = 1e-6


def _weighted_pick(cumulative: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn from a normalized cumulative distribution."""
    u = rng.random()
    return int(min(np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1))


def _distance_rows(coords: np.ndarray, centers: np.ndarray, out: np.ndarray, term: np.ndarray):
    """Squared distances from every point to each row of `centers`, written
    into the rows of `out`; `term` is scratch of the same shape.

    `coords` holds the points transposed, one contiguous row per dimension.
    The squares are summed over the dimensions left to right, the order
    `((points - c) ** 2).sum(axis=-1)` uses below 8 columns, so the values
    are bit-identical to it.
    """
    c = centers.T[:, :, None]
    np.subtract(coords[0], c[0], out=out)
    np.multiply(out, out, out=out)
    for d in range(1, len(coords)):
        np.subtract(coords[d], c[d], out=term)
        np.multiply(term, term, out=term)
        np.add(out, term, out=out)


def _seed_centers(
    points: np.ndarray,
    coords: np.ndarray | None,
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> tuple:
    """Weighted k-means++ seeding: first center by weight, then by
    weight times squared distance to the nearest chosen center.

    Returns the centers and, for k > 1, a (3, k, n) buffer: the squared
    distances from each center to every point (over `coords`, `points`
    transposed) for the first Lloyd assignment, then two layers of scratch.
    """
    centers = np.empty((k, points.shape[1]))
    base = np.cumsum(weights / weights.sum())
    centers[0] = points[_weighted_pick(base, rng)]
    if k == 1:
        return centers, None
    buffers = np.empty((3, k, len(points)))
    d2, term = buffers[0], buffers[2]
    _distance_rows(coords, centers[:1], d2[:1], term[:1])
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
        _distance_rows(coords, centers[j : j + 1], d2[j : j + 1], term[:1])
        if j + 1 < k:
            nearest = np.minimum(nearest, d2[j])
    return centers, buffers


def _nearest_center(d2: np.ndarray) -> np.ndarray:
    """Index of each point's nearest center, the first one on ties, from
    the (k, n) squared distances; equal to `np.argmin(d2, axis=0)`.  With
    two centers that is one comparison.  Leaves `d2` as it is."""
    assign = (d2[1] < d2[0]).astype(np.min_scalar_type(len(d2) - 1))
    best = d2[0]
    for j in range(2, len(d2)):
        best = np.minimum(best, d2[j - 1])
        np.putmask(assign, d2[j] < best, j)
    return assign


def _cluster_mean(points: np.ndarray, weights: np.ndarray, members: np.ndarray):
    """Weighted mean of the points at the indices `members`, as floats, or
    None where they weigh nothing: the operands boolean masks would give."""
    w = weights.take(members)
    total = w.sum()
    return (w @ points.take(members, axis=0) / total).tolist() if total > 0 else None


def _move_ratio(new: list, old: list) -> float:
    """`norm(new - old) / max(norm(old), 1)` over Python floats.  The squares
    add left to right, the order in which numpy's reduce sums a row of
    fewer than 8 columns, so the ratio has the bits of the numpy one."""
    move = norm = 0.0
    for a, b in zip(new, old):
        move += (a - b) * (a - b)
        norm += b * b
    return math.sqrt(move) / max(math.sqrt(norm), 1.0)


def weighted_kmeans(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Lloyd iterations with weighted means; clusters that lose all weight
    keep their previous center (duplicate centroids are valid output).
    The loop runs at most MAX_ITERATIONS times and stops once no center
    moves by REL_MOVE_TOL of its norm (at least 1).  Points have 1 to 7
    columns, which numpy sums left to right.

    An iteration recomputes only the distance rows of moved centers and
    the means of clusters whose member set changed.  An assignment equal
    to the previous one changes no member set, so every center would stay
    bit-equal: a fixed point, which the plain loop leaves only by its move
    test or its iteration cap, with these same centers.  So the loop stops
    there.  With one cluster every point is always assigned to it, and a
    single weighted mean is the result.
    """
    # Contiguous float64, the layout boolean-mask copies had, so the BLAS
    # products below see the same operands for any caller's arrays.
    points = np.ascontiguousarray(points, dtype=float)
    weights = np.ascontiguousarray(weights, dtype=float)
    if not 0 < points.shape[1] < 8:
        raise ValueError("weighted_kmeans needs points of 1 to 7 columns")
    coords = np.ascontiguousarray(points.T) if k > 1 else None
    centers, buffers = _seed_centers(points, coords, weights, k, rng)
    if k == 1:
        mean = _cluster_mean(points, weights, np.arange(len(points)))
        return centers if mean is None else np.array([mean])
    d2, fresh, term = buffers
    rows = centers.tolist()
    moved, previous = [], None
    for _ in range(MAX_ITERATIONS):
        if moved:
            out = fresh[: len(moved)]
            _distance_rows(coords, np.array([rows[j] for j in moved]), out, term[: len(moved)])
            d2[moved] = out
        assign = _nearest_center(d2)
        if previous is None:
            changed = range(k)
        else:
            flips = (assign != previous).nonzero()[0]
            if len(flips) == 0:
                break
            changed = set(assign.take(flips).tolist()) | set(previous.take(flips).tolist())
        previous = assign
        moved, ratios = [], [0.0] * k
        for j in changed:
            mean = _cluster_mean(points, weights, (assign == j).nonzero()[0])
            if mean is not None:
                if mean != rows[j]:  # -0.0 == 0.0 gives equal distances too
                    ratios[j] = _move_ratio(mean, rows[j])
                    moved.append(j)
                rows[j] = mean
        if all(ratio < REL_MOVE_TOL for ratio in ratios):
            break
    return np.array(rows)


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
    with np.errstate(over="raise", invalid="raise"):
        return centers * std + mean
