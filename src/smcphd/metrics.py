"""Multi-object miss distance (OSPA) and the roughening gain ratio.

OSPA between point sets X (size m) and Y (size n), m <= n:
    ( (1/n) ( min over injections pi of sum_i d_c(x_i, y_pi(i))^p
              + c^p (n - m) ) )^(1/p)
with d_c the Euclidean distance cut off at c.  The production path solves
the optimal injection with an exact rectangular assignment solver; an
exhaustive enumeration oracle is provided for verification.
"""

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .models import check_number

BRUTEFORCE_LIMIT = 8


@dataclass
class OspaParams:
    cutoff: float = 100.0
    order: float = 2.0

    def __post_init__(self):
        self.cutoff = float(self.cutoff)
        self.order = float(self.order)
        check_number("ospa.cutoff", self.cutoff, 0.0, strict=True)
        check_number("ospa.order", self.order, 1.0)
        # A finite cutoff ** order keeps (d / cutoff) ** order, at least
        # cutoff ** -order, above zero for every distance d >= 1, so a pair of
        # distinct points never scores 0.  float ** raises on overflow.
        try:
            self.cutoff**self.order
        except OverflowError:
            raise ValueError(
                f"ospa.order = {self.order:g} is too large for ospa.cutoff = {self.cutoff:g}: "
                "cutoff ** order overflows a float"
            ) from None


def _as_points(points) -> np.ndarray:
    """Validate and canonicalize a point set: rows sorted lexicographically,
    so the distance is bitwise invariant under permutations of the input."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 0)
    if arr.ndim == 1:
        arr = arr[None, :]
    if not np.all(np.isfinite(arr)):
        raise ValueError("point sets must be finite")
    if len(arr) > 1:
        arr = arr[np.lexsort(arr.T[::-1])]
    return arr


def _ordered_pair(xa: np.ndarray, ya: np.ndarray):
    """Deterministic argument order (smaller set first, lexicographic
    tie-break) so swapped arguments compute the identical float result."""
    if len(xa) > len(ya):
        return ya, xa
    if len(xa) == len(ya):
        fx, fy = xa.ravel(), ya.ravel()
        neq = np.flatnonzero(fx != fy)
        if neq.size and fx[neq[0]] > fy[neq[0]]:
            return ya, xa
    return xa, ya


def _cost_matrix(x: np.ndarray, y: np.ndarray, params: OspaParams) -> np.ndarray:
    diff = x[:, None, :] - y[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return (np.minimum(dist, params.cutoff) / params.cutoff) ** params.order


def _finalize(cost: float, m: int, n: int, params: OspaParams) -> float:
    """OSPA from the optimal cost in units of c^p; working in those units
    keeps c^p (n - m) from overflowing at large orders."""
    c, p = params.cutoff, params.order
    return c * ((cost + (n - m)) / n) ** (1.0 / p)


def ospa(x, y, params: OspaParams) -> float:
    """OSPA distance between two point sets (optimal assignment, exact)."""
    xa, ya = _as_points(x), _as_points(y)
    if len(xa) == 0 and len(ya) == 0:
        return 0.0
    if len(xa) == 0 or len(ya) == 0:
        return params.cutoff
    if xa.shape[1] != ya.shape[1]:
        raise ValueError("point sets must share one dimension")
    xa, ya = _ordered_pair(xa, ya)
    costs = _cost_matrix(xa, ya, params)
    rows, cols = linear_sum_assignment(costs)
    return _finalize(float(costs[rows, cols].sum()), len(xa), len(ya), params)


def ospa_bruteforce(x, y, params: OspaParams) -> float:
    """OSPA by exhaustive enumeration of injections; oracle for `ospa`."""
    xa, ya = _as_points(x), _as_points(y)
    if max(len(xa), len(ya)) > BRUTEFORCE_LIMIT:
        raise ValueError(f"brute force limited to sets of size <= {BRUTEFORCE_LIMIT}")
    if len(xa) == 0 and len(ya) == 0:
        return 0.0
    if len(xa) == 0 or len(ya) == 0:
        return params.cutoff
    if xa.shape[1] != ya.shape[1]:
        raise ValueError("point sets must share one dimension")
    xa, ya = _ordered_pair(xa, ya)
    m, n = len(xa), len(ya)
    costs = _cost_matrix(xa, ya, params)
    perms = np.array(list(permutations(range(n), m)))
    totals = costs[np.arange(m)[None, :], perms].sum(axis=1)
    return _finalize(float(totals.min()), m, n, params)


def gain_ratio(mean_ospa_basic: float, mean_ospa_roughening: float) -> float:
    """Fractional reduction of the mean miss distance relative to the
    unroughened filter: (basic - roughening) / basic."""
    if not math.isfinite(mean_ospa_basic) or mean_ospa_basic <= 0:
        raise ValueError("baseline mean OSPA must be finite and > 0")
    return (mean_ospa_basic - mean_ospa_roughening) / mean_ospa_basic
