"""Reference implementations the tests check the library against.

None of these runs in the CLI or the harness: an exhaustive OSPA, the
per-measurement mass terms of the update, resampling's selection in two
steps, and a one-variant extract of the trials table.
"""

import math
from itertools import permutations

import numpy as np

from smcphd.harness import _fmt
from smcphd.metrics import OspaParams, _as_points, _cost_matrix, _finalize
from smcphd.models import ModelSet, clutter_intensity, likelihood
from smcphd.particles import WEIGHT_FLOOR, ParticleSet

BRUTEFORCE_LIMIT = 8


def ospa_bruteforce(x, y, params: OspaParams) -> float:
    """OSPA by exhaustive enumeration of injections; oracle for `ospa`.
    Each injection's costs are summed exactly, as `ospa` sums them."""
    xa, ya = _as_points(x), _as_points(y)
    if max(len(xa), len(ya)) > BRUTEFORCE_LIMIT:
        raise ValueError(f"brute force limited to sets of size <= {BRUTEFORCE_LIMIT}")
    if len(xa) == 0 and len(ya) == 0:
        return 0.0
    if len(xa) == 0 or len(ya) == 0:
        return params.cutoff
    if xa.shape[1] != ya.shape[1]:
        raise ValueError("point sets must share one dimension")
    if len(xa) > len(ya):  # permutations(range(n), m) needs m <= n
        xa, ya = ya, xa
    m, n = len(xa), len(ya)
    costs = _cost_matrix(xa, ya, params)
    perms = np.array(list(permutations(range(n), m)))
    chosen = costs[np.arange(m)[None, :], perms].tolist()
    return _finalize(min(math.fsum(row) for row in chosen), m, n, params)


def measurement_mass_terms(pred: ParticleSet, measurements, models: ModelSet) -> np.ndarray:
    """Per-measurement posterior mass contributions C(z)/(kappa(z)+C(z)),
    with C(z) = p_D sum_j g(z|x_j) w_j.  Each C(z) takes its own `row @ w`
    dot, the independent reference for `update`'s one batched call, which
    must give the same bits.

    Each term lies in [0, 1]; together with (1-p_D) times the prior mass
    they account for the full post-update mass.  A zero denominator gives
    a zero term.
    """
    z_arr = np.asarray(measurements, dtype=float).reshape(-1, 2)
    g = likelihood(z_arr, pred.states[:, 0], pred.states[:, 2], models.measurement)
    c = models.detection.p_detect * np.array([row @ pred.weights for row in g])
    denom = clutter_intensity(z_arr, models.clutter) + c
    return np.divide(c, denom, out=np.zeros_like(c), where=denom > 0)


def select_reference(weights, points) -> np.ndarray:
    """Resampling's selection in two steps, the weights' total and then the
    inverse of the cumulative weights at `points`, absolute points on
    [0, total]; oracle for `resampling._select`.  A point that rounded to
    the total goes to the last positive weight."""
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if not total >= WEIGHT_FLOOR:
        raise ValueError(f"total weight must be >= {WEIGHT_FLOOR}, got {total}")
    cum = np.cumsum(w)
    cum[-1] = total
    last_positive = int(np.flatnonzero(w > 0).max())
    return np.minimum(np.searchsorted(cum, points, side="right"), last_positive)


def write_variant_table(results: list, variant_name: str, fileobj) -> None:
    """Single-variant extract of the trials table (no variant column);
    lets two variants' outputs be compared byte for byte."""
    fileobj.write("trial\tstep\ttrue_n\test_n\tospa\n")
    for result in results:
        steps = len(result.true_counts)
        for k in range(steps):
            fileobj.write(
                f"{result.trial}\t{k + 1}\t{result.true_counts[k]}"
                f"\t{result.est_counts[variant_name][k]}"
                f"\t{_fmt(result.ospa_values[variant_name][k])}\n"
            )
