"""Multi-object miss distance (OSPA) and the roughening gain ratio.

OSPA between point sets X (size m) and Y (size n), m <= n:
    ( (1/n) ( min over injections pi of sum_i d_c(x_i, y_pi(i))^p
              + c^p (n - m) ) )^(1/p)
with d_c the Euclidean distance cut off at c.  `ospa` scales the float
costs by one shared power of two to exact ints and solves the optimal
injection on them with the Hungarian method, in plain Python over the
cost matrix's list form.  The int optimum divided by that power, rounded
once, is the exact optimal sum correctly rounded: one value whichever
optimal injection is taken, and whichever order or orientation the point
sets arrive in.
"""

import math
from dataclasses import dataclass

import numpy as np

from .models import check_number


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
    """Validate a point set: one point per row, every coordinate finite."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim > 2:
        raise ValueError(f"point sets must be 1-D or 2-D arrays, got {arr.ndim}-D")
    if arr.size == 0:
        return arr.reshape(0, 0)
    if arr.ndim == 1:
        arr = arr[None, :]
    if not np.isfinite(arr).all():
        raise ValueError("point sets must be finite")
    return arr


def _cost_matrix(x: np.ndarray, y: np.ndarray, params: OspaParams) -> np.ndarray:
    diff = x[:, None, :] - y[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return (np.minimum(dist, params.cutoff) / params.cutoff) ** params.order


def _min_assignment_cost(cost: list) -> int:
    """Least total cost of assigning every row of an m x n int cost matrix,
    given as m lists of n ints with m <= n, to a distinct column.

    The Hungarian method with row and column potentials (Kuhn 1955, in the
    O(m^2 n) shortest augmenting path form): each row in turn grows a
    shortest path of reduced costs until it reaches a free column, and the
    potentials keep every reduced cost non-negative.  The optimum is -v[0].
    Raises ValueError when no finite-cost assignment exists.
    """
    m, n = len(cost), len(cost[0])
    u, v = [0] * (m + 1), [0] * (n + 1)
    # Rows and columns count from 1: virtual column 0 holds the row being
    # placed, and row 0 marks a free column.
    row4col, way = [0] * (n + 1), [0] * (n + 1)
    for i in range(1, m + 1):
        row4col[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while row4col[j0]:
            used[j0] = True
            i0 = row4col[j0]
            row, u_i = cost[i0 - 1], u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    r = row[j - 1] - u_i - v[j]
                    if r < minv[j]:
                        minv[j], way[j] = r, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            if j1 == 0:
                raise ValueError("cost matrix is infeasible")
            for j in range(n + 1):
                if used[j]:
                    u[row4col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            row4col[j0] = row4col[j1]
            j0 = j1
    return -v[0]


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
    if len(xa) > len(ya):  # the solver takes rows <= columns
        xa, ya = ya, xa
    costs = _cost_matrix(xa, ya, params).tolist()
    ratios = [[c.as_integer_ratio() for c in row] for row in costs]
    den = max(d for row in ratios for _, d in row)
    total = _min_assignment_cost([[a * (den // d) for a, d in row] for row in ratios]) / den
    return _finalize(total, len(xa), len(ya), params)


def gain_ratio(mean_ospa_basic: float, mean_ospa_roughening: float) -> float:
    """Fractional reduction of the mean miss distance relative to the
    unroughened filter: (basic - roughening) / basic."""
    if not math.isfinite(mean_ospa_basic) or mean_ospa_basic <= 0:
        raise ValueError("baseline mean OSPA must be finite and > 0")
    return (mean_ospa_basic - mean_ospa_roughening) / mean_ospa_basic
