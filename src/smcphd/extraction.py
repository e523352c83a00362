"""Multi-target state extraction via weighted k-means on the particle cloud.

The number of clusters equals the rounded weight sum; centroids are the
reported target states.  Determinism: particles are sorted into a canonical
order before seeding, so the result depends only on the particle population
(as a multiset) and the seeding stream, not on input ordering.

The Lloyd step and the canonical sort take faster routes than the plain
formulation: distances built per dimension instead of as one (N, k, 4)
array, clusters summed as runs of a stable sort instead of through boolean
masks, and a one-key sort on px when it has no ties.  These are exact
re-orderings of the same floating-point operations, not approximations: the
results are bit-identical to the plain k-means, which the tests keep as a
reference implementation.
"""

from dataclasses import dataclass

import numpy as np

from .models import STATE_DIM
from .particles import ParticleSet

MAX_ITERATIONS = 100
REL_MOVE_TOL = 1e-6


@dataclass
class Estimate:
    cardinality: int
    states: np.ndarray  # (cardinality, 4)


def _weighted_pick(cumulative: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn from a normalized cumulative distribution."""
    u = rng.random()
    return int(min(np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1))


def _seed_centers(
    points: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Weighted k-means++ seeding: first center by weight, then by
    weight times squared distance to the nearest chosen center."""
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
            # All mass sits on already-chosen centers; duplicates are allowed.
            idx = _weighted_pick(base, rng)
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _nearest_center(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each point's nearest center, the first one on ties.

    `coords` holds the points transposed, one contiguous row per dimension.
    Squared distances are summed over the dimensions left to right, the
    order `((points[:, None] - centers) ** 2).sum(axis=2)` uses, so the
    comparisons see bit-identical values and the result equals its `argmin`.
    """
    d2 = (coords[0] - centers[:, 0, None]) ** 2
    for d in range(1, len(coords)):
        d2 += (coords[d] - centers[:, d, None]) ** 2
    best = d2[0]
    assign = np.zeros(coords.shape[1], dtype=np.min_scalar_type(len(centers) - 1))
    for j in range(1, len(centers)):
        closer = d2[j] < best
        assign[closer] = j
        np.minimum(best, d2[j], out=best)
    return assign


def weighted_kmeans(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iterations: int = MAX_ITERATIONS,
    tol: float = REL_MOVE_TOL,
) -> np.ndarray:
    """Lloyd iterations with weighted means; clusters that lose all weight
    keep their previous center (duplicate centroids are valid output).

    Each iteration sorts the points by cluster with a stable sort, so every
    cluster is a contiguous run holding its points in input order; its
    weight sum and weighted mean then add the same numbers in the same
    order as boolean-mask selection would, and give the same bits.
    """
    # Contiguous float64, the layout boolean-mask copies had, so the BLAS
    # products below see the same operands for any caller's arrays.
    points = np.ascontiguousarray(points, dtype=float)
    weights = np.ascontiguousarray(weights, dtype=float)
    centers = _seed_centers(points, weights, k, rng)
    coords = np.ascontiguousarray(points.T)
    bounds = np.zeros(k + 1, dtype=np.intp)
    bounds[-1] = len(points)
    ps, ws = points, weights
    for _ in range(max_iterations):
        if k > 1:
            assign = _nearest_center(coords, centers)
            order = np.argsort(assign, kind="stable")
            ps, ws = points.take(order, axis=0), weights.take(order)
            bounds[1:] = np.cumsum(np.bincount(assign, minlength=k))
        new_centers = centers.copy()
        for j in range(k):
            lo, hi = bounds[j], bounds[j + 1]
            cluster_weight = ws[lo:hi].sum()
            if cluster_weight > 0:
                new_centers[j] = ws[lo:hi] @ ps[lo:hi] / cluster_weight
        move = np.linalg.norm(new_centers - centers, axis=1)
        ref = np.maximum(1.0, np.linalg.norm(centers, axis=1))
        centers = new_centers
        if np.max(move / ref) < tol:
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


def extract_states(pset: ParticleSet, n: int, rng: np.random.Generator) -> Estimate:
    """Cluster the weighted particles into n target-state estimates.

    States are standardized per dimension (weighted mean/std) before
    clustering so position and velocity scales contribute comparably, and
    the centroids are mapped back afterwards.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Estimate(cardinality=0, states=np.empty((0, STATE_DIM)))
    total = pset.weights.sum()
    if total <= 0:
        raise ValueError("cannot extract states from a set with zero total weight")

    order = _canonical_order(pset)
    states = pset.states.take(order, axis=0)
    weights = pset.weights.take(order)

    mean = weights @ states / total
    var = weights @ (states - mean) ** 2 / total
    std = np.sqrt(var)
    std[std == 0] = 1.0

    normalized = (states - mean) / std
    centers = weighted_kmeans(normalized, weights, n, rng)
    return Estimate(cardinality=n, states=centers * std + mean)
