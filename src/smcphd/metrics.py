"""Multi-object miss distance (OSPA) and the roughening gain ratio.

OSPA between point sets X (size m) and Y (size n), m <= n:
    ( (1/n) ( min over injections pi of sum_i d_c(x_i, y_pi(i))^p
              + c^p (n - m) ) )^(1/p)
with d_c the Euclidean distance cut off at c.  The production path solves
the optimal injection exactly with the shortest augmenting path algorithm
for rectangular assignment (D. F. Crouse, "On implementing 2D rectangular
assignment algorithms", IEEE TAES 2016), in plain Python over the cost
matrix's list form.  It follows scipy's `linear_sum_assignment`
(`rectangular_lsap`) step for step: the same scan order, the same
arithmetic order for reduced costs, the same tie-break and dual updates.
So it returns the same assignment as scipy, with numpy as the only runtime
dependency.  The chosen costs are summed exactly (`math.fsum`), so two
optimal injections that hold the same costs give the same distance.
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
    """Validate and canonicalize a point set: rows sorted lexicographically,
    so the distance is bitwise invariant under permutations of the input."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 0)
    if arr.ndim == 1:
        arr = arr[None, :]
    if not np.isfinite(arr).all():
        raise ValueError("point sets must be finite")
    if len(arr) > 1:
        # Stable and lexicographic like np.lexsort over the columns, and
        # cheaper on the few rows a point set holds here.
        arr = np.array(sorted(arr.tolist()))
    return arr


def _ordered_pair(xa: np.ndarray, ya: np.ndarray):
    """Deterministic argument order (smaller set first, lexicographic
    tie-break) so swapped arguments compute the identical float result."""
    if len(xa) > len(ya):
        return ya, xa
    # Lists of rows compare lexicographically, first differing entry first.
    if len(xa) == len(ya) and xa.tolist() > ya.tolist():
        return ya, xa
    return xa, ya


def _cost_matrix(x: np.ndarray, y: np.ndarray, params: OspaParams) -> np.ndarray:
    diff = x[:, None, :] - y[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return (np.minimum(dist, params.cutoff) / params.cutoff) ** params.order


def _assignment_columns(cost: list) -> list:
    """Minimum-cost assignment of every row of an m x n cost matrix, given as
    m lists of n floats with m <= n, to a distinct column: the column of
    each row, in row order.

    A port of scipy's `rectangular_lsap` (Crouse's shortest augmenting
    path).  Each row in turn grows a shortest path over the remaining
    columns, scanned in reverse index order, until it reaches an unassigned
    column.  Of columns tied at the lowest path cost, the last unassigned
    one scanned wins, else the first one scanned.  Reduced costs are summed
    in scipy's order and the duals updated and the path augmented as scipy
    does, so ties between optimal assignments resolve the same way.
    Raises ValueError when no finite-cost assignment exists.
    """
    m, n = len(cost), len(cost[0])
    u = [0.0] * m
    v = [0.0] * n
    col4row = [-1] * m
    row4col = [-1] * n
    path = [-1] * n
    for cur_row in range(m):
        shortest = [math.inf] * n
        visited_rows = [cur_row]
        visited_cols = []
        remaining = list(range(n - 1, -1, -1))
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            index = -1
            lowest = math.inf
            cost_i, u_i = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + cost_i[j] - u_i - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                else:
                    r = shortest[j]
                if r < lowest or (r == lowest and row4col[j] == -1):
                    lowest = r
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
                visited_rows.append(i)
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur_row] += min_val
        for i in visited_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


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
    costs = _cost_matrix(xa, ya, params).tolist()
    cols = _assignment_columns(costs)
    total = math.fsum(row[j] for row, j in zip(costs, cols))
    return _finalize(total, len(xa), len(ya), params)


def gain_ratio(mean_ospa_basic: float, mean_ospa_roughening: float) -> float:
    """Fractional reduction of the mean miss distance relative to the
    unroughened filter: (basic - roughening) / basic."""
    if not math.isfinite(mean_ospa_basic) or mean_ospa_basic <= 0:
        raise ValueError("baseline mean OSPA must be finite and > 0")
    return (mean_ospa_basic - mean_ospa_roughening) / mean_ospa_basic
