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

    Starts from total/count everywhere and folds the residual (a few ulps)
    into the first entry until the compensated sum reproduces `total` bit
    for bit.  When the exact sum sits on a rounding midpoint a full-step
    correction oscillates between the two neighbours, so the step is halved
    until it makes progress.

    Only the first entry changes, so the sum is (count - 1) copies of x plus
    that entry: evaluated exactly as a Fraction and rounded once, it equals
    math.fsum over all entries (fsum is correctly rounded too), in O(1).
    """
    x = total / count
    rest = Fraction(x) * (count - 1)

    def residual(first: float) -> float:
        return total - float(rest + Fraction(first))

    first = x
    diff = residual(first)
    for _ in range(120):
        if diff == 0.0:
            w = np.full(count, x)
            w[0] = first
            return w
        step = diff
        while True:
            first += step
            new_diff = residual(first)
            if abs(new_diff) < abs(diff):
                diff = new_diff
                break
            first -= step
            step *= 0.5
            if step == 0.0:
                raise ArithmeticError("weight equalization failed to converge")
    raise ArithmeticError("weight equalization failed to converge")


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
