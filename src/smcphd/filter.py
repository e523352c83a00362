"""Particle intensity-filter recursion: predict, update, cardinality.

The filter propagates a weighted particle approximation of the multi-target
intensity.  Prediction thins survivors by the survival probability and
appends fresh birth particles carrying the configured birth mass; the
update rescales every weight by the missed-detection probability plus the
per-measurement association terms.  Particle states are never moved by the
update.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import roughening as rough_mod
from .models import DetectionModel, ModelSet, birth_sample, clutter_intensity, likelihood, propagate
from .particles import ParticleSet, round_half_up
from .roughening import RougheningConfig

WEIGHT_FLOOR = 1e-300  # below this, weights are flushed to exactly zero


@dataclass
class FilterConfig:
    """Per-target particle budget and model assumptions used by the filter."""

    particles_per_target: int = 200
    birth_particles: int | None = None  # default round(birth mass * particles_per_target)
    min_particles: int | None = None  # default ceil(particles_per_target / 2)
    detection: DetectionModel = field(default_factory=DetectionModel)
    proposal: str = "bootstrap"
    birth_proposal: str = "birth"

    def __post_init__(self):
        if self.particles_per_target < 1:
            raise ValueError("particles_per_target must be >= 1")
        if self.birth_particles is not None and self.birth_particles < 0:
            raise ValueError(f"filter.birth_particles must be >= 0, got {self.birth_particles}")
        if self.min_particles is None:
            self.min_particles = math.ceil(self.particles_per_target / 2)
        if self.min_particles < 1:
            raise ValueError("min_particles must be >= 1")
        if self.proposal != "bootstrap":
            raise NotImplementedError(
                f"proposal {self.proposal!r} not implemented; only 'bootstrap' is supported"
            )
        if self.birth_proposal != "birth":
            raise NotImplementedError(
                f"birth proposal {self.birth_proposal!r} not implemented; "
                "only the birth density itself is supported"
            )

    def birth_particle_count(self, birth_mass: float) -> int:
        if self.birth_particles is not None:
            return self.birth_particles
        return round_half_up(birth_mass * self.particles_per_target)


def predict(
    prev: ParticleSet,
    models: ModelSet,
    config: FilterConfig,
    roughening: RougheningConfig,
    rng: np.random.Generator,
) -> ParticleSet:
    """One prediction step: propagate survivors, append birth particles.

    Under the bootstrap proposal each survivor keeps its state transition as
    the proposal, so its weight is simply scaled by the survival
    probability.  Birth particles are drawn from the birth density and each
    carries weight mass/J, so the appended birth mass equals the configured
    birth mass by construction.  With direct roughening enabled the
    propagation noise stds are inflated to sqrt(sigma_v^2 + delta^2).
    """
    if models.birth.spawn_kernel is not None:
        raise NotImplementedError("spawn intensities are not supported")

    noise_std = None
    if roughening.mode == "direct":
        channel = rough_mod.direct_channel_jitter(
            prev, roughening, models.motion, models.measurement
        )
        noise_std = rough_mod.combined_noise_std(channel, models.motion)

    if len(prev) > 0:
        surv_states = propagate(prev.states, models.motion, rng, noise_std)
        surv_weights = config.detection.p_survive * prev.weights
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

    return ParticleSet(
        states=states,
        weights=weights,
        step=prev.step + 1,
        survivor_count=len(prev),
    )


def update(
    pred: ParticleSet,
    measurements,
    models: ModelSet,
    config: FilterConfig,
) -> ParticleSet:
    """One data-update step; reweights particles, never moves them.

    Each particle's weight is multiplied by
    (1 - p_D) + sum_z p_D g(z|x) / (kappa(z) + C(z)) where
    C(z) = sum_j p_D g(z|x_j) w_j.  A measurement whose denominator is zero
    (no clutter and no particle support) contributes nothing rather than
    dividing by zero.
    """
    z_arr = np.asarray(measurements, dtype=float).reshape(-1, 2)
    if len(pred) == 0:
        return pred
    p_d = config.detection.p_detect
    w = pred.weights
    factor = np.full(len(pred), 1.0 - p_d)
    for z in z_arr:
        g = likelihood(z, pred.states, models.measurement)
        c_z = p_d * float(g @ w)
        denom = clutter_intensity(z, models.clutter) + c_z
        if denom > 0:
            # (p_d * g) / denom stays finite even for a subnormal denominator
            # (each ratio is bounded by 1 / w_j); p_d / denom alone can
            # overflow and then turn zero likelihoods into NaNs.
            factor = factor + (p_d * g) / denom
    new_weights = factor * w
    new_weights[new_weights < WEIGHT_FLOOR] = 0.0
    return ParticleSet(
        states=pred.states,
        weights=new_weights,
        step=pred.step,
        survivor_count=pred.survivor_count,
    )


def measurement_mass_terms(
    pred: ParticleSet,
    measurements,
    models: ModelSet,
    config: FilterConfig,
) -> np.ndarray:
    """Per-measurement posterior mass contributions C(z)/(kappa(z)+C(z)).

    Each term lies in [0, 1]; together with (1-p_D) times the prior mass
    they account for the full post-update mass.
    """
    z_arr = np.asarray(measurements, dtype=float).reshape(-1, 2)
    p_d = config.detection.p_detect
    terms = np.zeros(len(z_arr))
    for i, z in enumerate(z_arr):
        g = likelihood(z, pred.states, models.measurement)
        c_z = p_d * float(g @ pred.weights)
        denom = clutter_intensity(z, models.clutter) + c_z
        terms[i] = c_z / denom if denom > 0 else 0.0
    return terms


def estimate_cardinality(pset: ParticleSet) -> int:
    """Expected-count estimate: weight sum rounded half-up."""
    return round_half_up(pset.total_weight())
