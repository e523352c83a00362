"""Particle intensity-filter recursion: predict, update, cardinality.

The filter propagates a weighted particle approximation of the multi-target
intensity.  Prediction thins survivors by the survival probability and
appends fresh birth particles carrying the configured birth mass; the
update rescales every weight by the missed-detection probability plus the
per-measurement association terms.  Particle states are never moved by the
update.
"""

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    EXP_ZERO_BELOW,
    ModelSet,
    birth_sample,
    clutter_intensity,
    likelihood,
    propagate,
)
from .particles import ParticleSet, round_half_up

WEIGHT_FLOOR = 1e-300  # below this, weights are flushed to exactly zero
# A term under 2^-60 of a sum is under half an ulp of it (at least 2^-54 of
# the sum), so adding it rounds back to the same sum.
_VANISHES = 2.0**-60
RESAMPLE_SCHEMES = ("systematic", "multinomial")


@dataclass
class FilterConfig:
    """Particle budget and resampling scheme of the filter.

    The model assumptions (survival, detection, clutter, birth) are read
    from the `ModelSet` passed alongside, the same one the scenario
    simulates with.
    """

    particles_per_target: int = 200
    birth_particles: int | None = None  # default round(birth mass * particles_per_target)
    min_particles: int | None = None  # default ceil(particles_per_target / 2)
    resample_scheme: str = "systematic"

    def __post_init__(self):
        if self.particles_per_target < 1:
            raise ValueError(
                f"filter.particles_per_target must be >= 1, got {self.particles_per_target}"
            )
        if self.birth_particles is not None and self.birth_particles < 0:
            raise ValueError(f"filter.birth_particles must be >= 0, got {self.birth_particles}")
        if self.min_particles is None:
            self.min_particles = math.ceil(self.particles_per_target / 2)
        if self.min_particles < 1:
            raise ValueError(f"filter.min_particles must be >= 1, got {self.min_particles}")
        if self.resample_scheme not in RESAMPLE_SCHEMES:
            raise ValueError(
                f"resample.scheme must be one of {', '.join(RESAMPLE_SCHEMES)}, "
                f"got {self.resample_scheme!r}"
            )

    def birth_particle_count(self, birth_mass: float) -> int:
        if self.birth_particles is not None:
            return self.birth_particles
        return round_half_up(birth_mass * self.particles_per_target)


def predict(
    prev: ParticleSet,
    models: ModelSet,
    config: FilterConfig,
    rng: np.random.Generator,
) -> ParticleSet:
    """One prediction step: propagate survivors, append birth particles.

    Survivors are moved by the motion model itself (the bootstrap filter),
    so each survivor's weight is simply scaled by the survival probability.
    Birth particles are drawn from the birth density and each carries
    weight mass/J, so the appended birth mass equals the configured birth
    mass by construction.  Direct roughening is a motion model with
    inflated noise (`roughening.direct_motion`) passed in `models`.  Every
    weight below WEIGHT_FLOOR, survivor or birth, is then flushed to zero,
    as `update` requires; a birth mass under J * WEIGHT_FLOOR adds none.
    """
    if len(prev) > 0:
        surv_states = propagate(prev.states, models.motion, rng)
        surv_weights = models.detection.p_survive * prev.weights
    else:
        surv_states = prev.states
        surv_weights = prev.weights

    j = config.birth_particle_count(models.birth.mass)
    if models.birth.mass > 0 and j > 0:
        birth_states = birth_sample(models.birth, rng, j)
        birth_weights = np.full(j, models.birth.mass / j)
        states = np.vstack([surv_states, birth_states])
        weights = np.concatenate([surv_weights, birth_weights])
    else:
        states = surv_states
        weights = surv_weights
    # A new array: with no survivors and no births `weights` is `prev.weights`.
    weights = np.where(weights < WEIGHT_FLOOR, 0.0, weights)
    return ParticleSet(states=states, weights=weights)


def _exp_cuts(kappa: np.ndarray, weights: np.ndarray, models: ModelSet) -> np.ndarray | float:
    """The exponent cut of each scan row, for `likelihood`.

    A row drops its likelihoods below the normal range, each at most g_max
    (`MeasurementModel.subnormal_cut`), only where that leaves every weight
    bit for bit.  That holds when kappa(z) > 0 and
      - each dropped term p_D g / (kappa + C), at most p_D g_max / kappa, is
        under 2^-60 (1 - p_D), so it vanishes in the factor's partial sums,
        which start at 1 - p_D;
      - the dropped support p_D g_max sum(w) is under 2^-60 kappa, so it
        vanishes in kappa + C.
    Other rows (no clutter, p_D = 1, or too little clutter) keep every term.
    """
    p_d = models.detection.p_detect
    if p_d >= 1.0:
        return EXP_ZERO_BELOW
    cut, g_max = models.measurement.subnormal_cut()
    # n * max(w) bounds sum(w) and, in Python floats, cannot overflow.
    dropped = p_d * g_max * max(1.0 / (1.0 - p_d), len(weights) * float(weights.max()))
    return np.where(kappa * _VANISHES > dropped, cut, EXP_ZERO_BELOW)


def update(pred: ParticleSet, measurements, models: ModelSet) -> ParticleSet:
    """One data-update step; reweights particles, never moves them.

    Each particle's weight is multiplied by
    (1 - p_D) + sum_z p_D g(z|x) / (kappa(z) + C(z)) where
    C(z) = sum_j p_D g(z|x_j) w_j, the terms added in scan order.  A
    measurement whose denominator is zero (no clutter and no particle
    support) contributes nothing rather than dividing by zero, and a zero
    weight stays zero.  Likelihoods too small to move a weight are not
    computed (`_exp_cuts`).

    Every weight must be 0 or at least WEIGHT_FLOOR, as `predict` leaves
    them: each term p_D g / C(z) is bounded by 1 / w_j, which overflows for
    a positive weight below about 5.6e-309.
    """
    z_arr = np.asarray(measurements, dtype=float).reshape(-1, 2)
    if len(pred) == 0:
        return pred
    p_d = models.detection.p_detect
    kappa = clutter_intensity(z_arr, models.clutter)
    cuts = _exp_cuts(kappa, pred.weights, models)
    rows = likelihood(z_arr, pred.states, models.measurement, cuts)
    # C(z) for the whole scan in one call: a stack of (1, n) @ (n, 1)
    # products runs one ddot per measurement, the same dot `row @ w` takes.
    # A single rows @ w (gemv) sums in another order and moves bits.
    support = p_d * np.matmul(rows[:, None, :], pred.weights[:, None])[:, 0, 0]
    denom = kappa + support
    # (p_d * g) / denom stays finite for w_j > 0 even for a subnormal
    # denominator (each ratio is bounded by 1 / w_j); p_d / denom alone can
    # overflow and then turn zero likelihoods into NaNs.  A zero weight has
    # no such bound, and its column is dropped: inf * 0 would be NaN.  A
    # zero denominator becomes infinity, so its row divides to +0.0.
    dead = pred.weights == 0.0
    if dead.any():
        rows[:, dead] = 0.0
    rows *= p_d
    rows /= np.where(denom > 0, denom, np.inf)[:, None]
    if len(rows) == 0 or len(pred) == 1:
        # np.add.reduce sums a single column pairwise, which moves bits, so
        # one particle takes the terms one measurement at a time.
        factor = np.full(len(pred), 1.0 - p_d)
        for row in rows:
            factor += row
    else:
        # Over axis 0 of a C-ordered array with two or more columns the
        # reduce adds whole rows in scan order.  Folding 1 - p_D into the
        # first row is exact: IEEE addition commutes.
        rows[0] += 1.0 - p_d
        factor = np.add.reduce(rows, axis=0)
    new_weights = factor * pred.weights
    new_weights[new_weights < WEIGHT_FLOOR] = 0.0
    return ParticleSet(states=pred.states, weights=new_weights)


def estimate_cardinality(mass: float) -> int:
    """Expected-count estimate from the intensity mass (a particle set's
    `total_weight()`): the mass rounded half-up."""
    return round_half_up(mass)
