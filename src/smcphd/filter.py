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

from .models import ModelSet, birth_sample, clutter_intensity, likelihood, propagate
from .particles import ParticleSet, round_half_up

WEIGHT_FLOOR = 1e-300  # below this, weights are flushed to exactly zero
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
    inflated noise (`roughening.direct_motion`) passed in `models`.
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

    return ParticleSet(states=states, weights=weights)


def update(pred: ParticleSet, measurements, models: ModelSet) -> ParticleSet:
    """One data-update step; reweights particles, never moves them.

    Each particle's weight is multiplied by
    (1 - p_D) + sum_z p_D g(z|x) / (kappa(z) + C(z)) where
    C(z) = sum_j p_D g(z|x_j) w_j, the terms added in scan order.  A
    measurement whose denominator is zero (no clutter and no particle
    support) contributes nothing rather than dividing by zero.
    """
    z_arr = np.asarray(measurements, dtype=float).reshape(-1, 2)
    if len(pred) == 0:
        return pred
    p_d = models.detection.p_detect
    rows = likelihood(z_arr, pred.states, models.measurement)
    # C(z) with one dot product per measurement: a single g @ w (gemv) sums
    # in another order and does not reproduce these bits.
    support = p_d * np.array([row @ pred.weights for row in rows])
    denom = clutter_intensity(z_arr, models.clutter) + support
    live = denom > 0
    # (p_d * g) / denom stays finite even for a subnormal denominator (each
    # ratio is bounded by 1 / w_j); p_d / denom alone can overflow and then
    # turn zero likelihoods into NaNs.
    rows *= p_d
    np.divide(rows, denom[:, None], out=rows, where=live[:, None])
    rows[~live] = 0.0
    # Row by row: np.add.reduce over axis 0 sums pairwise when there is a
    # single particle, which moves bits.
    factor = np.full(len(pred), 1.0 - p_d)
    for row in rows:
        factor += row
    new_weights = factor * pred.weights
    new_weights[new_weights < WEIGHT_FLOOR] = 0.0
    return ParticleSet(states=pred.states, weights=new_weights)


def estimate_cardinality(mass: float) -> int:
    """Expected-count estimate from the intensity mass (a particle set's
    `total_weight()`): the mass rounded half-up."""
    return round_half_up(mass)
