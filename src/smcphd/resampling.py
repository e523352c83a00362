"""Mass-preserving resampling with a particle-count budget.

The output size tracks the estimated target count (a fixed number of
particles per expected target) and never drops below a configured floor,
so the population cannot die out while the expected count is small.
"""

import math
from typing import TYPE_CHECKING

import numpy as np

from .particles import MAX_PARTICLES, WEIGHT_FLOOR, ParticleSet, round_half_up

if TYPE_CHECKING:  # `filter` imports this module for its scheme table
    from .filter import FilterConfig


def target_count(mass: float, config: "FilterConfig") -> int:
    """Particle budget for an expected target count: round(mass) per-target blocks,
    hard-floored at `min_particles` (if None, half a block rounded up), at most MAX_PARTICLES."""
    floor = config.min_particles or math.ceil(config.particles_per_target / 2)
    count = max(round_half_up(mass) * config.particles_per_target, floor)
    if count > MAX_PARTICLES:
        raise ValueError(f"mass {mass:g} needs {count} particles > MAX_PARTICLES {MAX_PARTICLES}")
    return count


def systematic_indices(weights: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Systematic selection: one uniform offset, `count` equally spaced points
    on the cumulative weight axis.  Copy counts are floor or ceil of the
    expected value; output indices are non-decreasing."""
    return _select(weights, (rng.random() + np.arange(count)) / count)


def multinomial_indices(weights: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Independent draws proportional to weight."""
    return _select(weights, rng.random(count))


RESAMPLE_SCHEMES = {"systematic": systematic_indices, "multinomial": multinomial_indices}


def _select(weights, unit_points: np.ndarray) -> np.ndarray:
    """Invert the cumulative weight function at `unit_points` times the total.

    The total must be at least WEIGHT_FLOOR, as any positive sum of a
    `ParticleSet`'s weights is: selection points on a smaller, subnormal
    sum would round onto the cumulative weights.  Points are in [0, total);
    rounding can push one to exactly `total`, in which case it is assigned
    to the last positive-weight particle so that a zero-weight particle can
    never be selected.
    """
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if not total >= WEIGHT_FLOOR:
        raise ValueError(f"total weight must be >= {WEIGHT_FLOOR}, got {total}")
    cum = np.cumsum(w)
    cum[-1] = total  # guard against round-off excluding the last particle
    last_positive = int(np.flatnonzero(w > 0).max())
    return np.minimum(np.searchsorted(cum, unit_points * total, side="right"), last_positive)


def _remainder(total: float, x: float, count: int) -> float:
    """total - (count - 1) x, computed exactly in integers and rounded once
    (int / int true division is correctly rounded)."""
    a, b = total.as_integer_ratio()
    c, d = x.as_integer_ratio()
    return (a * d - (count - 1) * c * b) / (b * d)


def _equalized_weights(total: float, count: int) -> np.ndarray:
    """`count` near-equal weights whose compensated sum equals `total` exactly.

    Every weight but the first is x = total/count; the first takes the exact
    remainder total - (count - 1) x, rounded once.  For count <= 2 that
    remainder is exact.  For count >= 3 it lies below total/2, so its
    rounding error is at most ulp(total)/4, and math.fsum of the weights,
    correctly rounded, gives back `total`.  A total of at least WEIGHT_FLOOR
    over at most MAX_PARTICLES leaves x a normal double, so (count - 1) x
    cannot exceed `total`.

    Where x rounded up and the remainder fell below WEIGHT_FLOOR, x steps
    down one ulp to at most the exact mean, so the remainder is at least
    that mean.  Then every weight is at least the floor whenever the exact
    mean total/count is.
    """
    x = total / count
    first = _remainder(total, x, count)
    if first < WEIGHT_FLOOR < x:
        x = math.nextafter(x, 0.0)
        first = _remainder(total, x, count)
    w = np.full(count, x)
    w[0] = first
    return w


def resample(
    pset: ParticleSet, total: float, config: "FilterConfig", rng: np.random.Generator
) -> ParticleSet:
    """Draw a new population proportional to weight and equalize the weights.

    `total` is the set's mass, `pset.total_weight()`, which the caller has
    already computed for its estimate.  The output has target_count(total)
    particles, total mass preserved exactly, and `ancestry` recording each
    output particle's source index.  The mass is exact unless the exact
    mean total/count lies below WEIGHT_FLOOR: then no equal split keeps
    every weight at the floor, and those under it are held as zero.  Zero
    total mass is rejected; the caller is expected to skip resampling in
    that case.
    """
    if total <= 0:
        raise ValueError("cannot resample a particle set with zero total weight")
    count = target_count(total, config)
    idx = RESAMPLE_SCHEMES[config.resample_scheme](pset.weights, count, rng)
    return ParticleSet(
        states=pset.states[idx],  # fancy indexing returns a new array
        weights=_equalized_weights(total, count),
        ancestry=idx,
    )
