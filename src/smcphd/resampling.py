"""Mass-preserving resampling with a particle-count budget.

The output size tracks the estimated target count (a fixed number of
particles per expected target) and never drops below a configured floor,
so the population cannot die out while the expected count is small.
"""

from fractions import Fraction

import numpy as np

from .filter import FilterConfig
from .particles import ParticleSet, round_half_up

NORMAL_MIN = float(np.finfo(float).tiny)  # the smallest normal double, 2**-1022
SUBNORMAL_SCALE = 2.0**600  # lifts any subnormal total into the normal range
SUBNORMAL_UNIT = 2.0**-1074  # the smallest subnormal; every double is a multiple of it


def target_count(mass: float, config: FilterConfig) -> int:
    """Particle budget for an expected target count: round(mass) per-target
    blocks, hard-floored at `min_particles`."""
    if mass < 0:
        raise ValueError("mass must be >= 0")
    return max(round_half_up(mass) * config.particles_per_target, config.min_particles)


def systematic_indices(weights: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Systematic selection: one uniform offset, `count` equally spaced points
    on the cumulative weight axis.  Copy counts are floor or ceil of the
    expected value; output indices are non-decreasing."""
    w, total = _selection_weights(weights)
    points = (rng.random() + np.arange(count)) / count * total
    return _points_to_indices(w, total, points)


def multinomial_indices(weights: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Independent draws proportional to weight."""
    w, total = _selection_weights(weights)
    points = rng.random(count) * total
    return _points_to_indices(w, total, points)


def _selection_weights(weights) -> tuple:
    """The weights as floats and their sum, which must be > 0.

    A subnormal sum holds only a few ulps, so selection points placed on
    it would round onto the cumulative weights; both are then scaled by a
    power of two, which is exact, into the normal range.
    """
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        raise ValueError("total weight must be > 0")
    if total < NORMAL_MIN:
        w = w * SUBNORMAL_SCALE
        total = total * SUBNORMAL_SCALE
    return w, total


def _points_to_indices(w: np.ndarray, total: float, points: np.ndarray) -> np.ndarray:
    """Invert the cumulative weight function at the given points.

    Points are in [0, total); rounding can push one to exactly `total`, in
    which case it is assigned to the last positive-weight particle so that a
    zero-weight particle can never be selected.
    """
    cum = np.cumsum(w)
    cum[-1] = total  # guard against round-off excluding the last particle
    last_positive = int(np.flatnonzero(w > 0).max())
    return np.minimum(np.searchsorted(cum, points, side="right"), last_positive)


def _equalized_weights(total: float, count: int) -> np.ndarray:
    """`count` near-equal weights whose compensated sum equals `total` exactly.

    Every weight but the first is x = total/count; the first takes the exact
    remainder total - (count - 1) x, rounded once (`float(Fraction)`).  For
    count <= 2 that remainder is exact.  For count >= 3 it lies below
    total/2, so its rounding error is at most ulp(total)/4, and math.fsum
    of the weights, correctly rounded, gives back `total`.

    A mean below the normal range has lost its precision, and (count - 1)
    copies of it can exceed `total`, which would leave the first entry
    negative.  Such a total is shared out in whole multiples of the
    smallest subnormal instead, the first entries one multiple above the
    rest; dividing by a power of two and every such weight are exact.
    """
    x = total / count
    if x < NORMAL_MIN:
        quotient, remainder = divmod(int(total / SUBNORMAL_UNIT), count)
        w = np.full(count, quotient * SUBNORMAL_UNIT)
        w[:remainder] = (quotient + 1) * SUBNORMAL_UNIT
        return w
    w = np.full(count, x)
    w[0] = float(Fraction(total) - Fraction(x) * (count - 1))
    return w


def resample(
    pset: ParticleSet, total: float, config: FilterConfig, rng: np.random.Generator
) -> ParticleSet:
    """Draw a new population proportional to weight and equalize the weights.

    `total` is the set's mass, `pset.total_weight()`, which the caller has
    already computed for its estimate.  The output has target_count(total)
    particles, total mass preserved exactly, and `ancestry` recording each
    output particle's source index.  Zero total mass is rejected; the caller
    is expected to skip resampling in that case.
    """
    if total <= 0:
        raise ValueError("cannot resample a particle set with zero total weight")
    count = target_count(total, config)
    if config.resample_scheme == "systematic":
        idx = systematic_indices(pset.weights, count, rng)
    else:
        idx = multinomial_indices(pset.weights, count, rng)
    return ParticleSet(
        states=pset.states[idx].copy(),
        weights=_equalized_weights(total, count),
        ancestry=idx,
    )
