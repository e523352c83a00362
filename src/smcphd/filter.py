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

# The most particles a set may be asked for (not a config key): the weight
# floor 1e-300 over 2**20 is a normal mean.  It does not depend on the scan
# length: `update` works in row blocks, so an update array holds at most
# max(_BLOCK_DOUBLES, _BLOCK_MIN_ROWS * N) doubles, 64 MiB at 2**20 particles.
MAX_PARTICLES = 2**20
# `update` reweights a scan in blocks of max(_BLOCK_MIN_ROWS,
# _BLOCK_DOUBLES // N) rows.  The row floor shares `likelihood`'s per-call
# state check and position copies among 8 rows once N exceeds 8,192.
_BLOCK_DOUBLES = 2**16
_BLOCK_MIN_ROWS = 8
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
        if self.min_particles is None:
            self.min_particles = math.ceil(self.particles_per_target / 2)
        for key, value, low in (
            ("particles_per_target", self.particles_per_target, 1),
            ("birth_particles", self.birth_particles, 0),
            ("min_particles", self.min_particles, 1),
        ):
            if value is not None and not low <= value <= MAX_PARTICLES:
                raise ValueError(
                    f"filter.{key} must be in [{low}, MAX_PARTICLES = {MAX_PARTICLES}], got {value}"
                )
        if self.resample_scheme not in RESAMPLE_SCHEMES:
            raise ValueError(
                f"resample.scheme must be one of {', '.join(RESAMPLE_SCHEMES)}, "
                f"got {self.resample_scheme!r}"
            )

    def birth_particle_count(self, birth_mass: float) -> int:
        if self.birth_particles is not None:
            return self.birth_particles
        share = birth_mass * self.particles_per_target
        if share >= MAX_PARTICLES + 0.5:  # rounds above the bound, or is inf
            raise ValueError(
                f"birth.mass: {birth_mass} births round({share:g}) particles, more than "
                f"MAX_PARTICLES = {MAX_PARTICLES}; set filter.birth_particles"
            )
        return round_half_up(share)


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
    inflated noise (`roughening.direct_motion`) passed in `models`.  The
    returned `ParticleSet` holds a survivor or birth weight under the
    weight floor (1e-300) as zero, so a birth mass under J * 1e-300 adds
    none.
    """
    surv_states = propagate(prev.states, models.motion, rng)
    surv_weights = models.detection.p_survive * prev.weights

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


def _exp_cuts(kappa: np.ndarray, weights: np.ndarray, models: ModelSet) -> np.ndarray:
    """The exponent cut of each scan row, for `likelihood`.

    A row drops its likelihoods below the normal range, each at most g_max
    (`MeasurementModel.subnormal_cut`), only where that leaves every weight
    bit for bit.  That holds when
      - each dropped term p_D g / (kappa + C), at most p_D g_max / kappa, is
        under 2^-60 (1 - p_D), so it vanishes in the factor's partial sums,
        which start at 1 - p_D;
      - the dropped support p_D g_max sum(w) is under 2^-60 kappa, so it
        vanishes in kappa + C.
    Both are tested as products, so no clutter (kappa = 0) and p_D = 1
    fail the first test and keep every term.
    """
    p_d = models.detection.p_detect
    cut, g_max = models.measurement.subnormal_cut()
    # n * max(w) bounds sum(w) and, in Python floats, cannot overflow.
    term = p_d * g_max
    support = term * (len(weights) * float(weights.max(initial=0.0)))
    scaled = kappa * _VANISHES
    return np.where((scaled * (1.0 - p_d) > term) & (scaled > support), cut, EXP_ZERO_BELOW)


def update(pred: ParticleSet, measurements, models: ModelSet) -> ParticleSet:
    """One data-update step; reweights particles, never moves them.

    Each particle's weight is multiplied by
    (1 - p_D) + sum_z p_D g(z|x) / (kappa(z) + C(z)) where
    C(z) = sum_j p_D g(z|x_j) w_j, the terms added in scan order.  A
    measurement whose denominator is zero (no clutter and no particle
    support) contributes nothing rather than dividing by zero, and a zero
    weight stays zero.  Likelihoods too small to move a weight are not
    computed (`_exp_cuts`).  A `ParticleSet` holds every weight at 0 or
    at least the weight floor (1e-300), which bounds each term p_D g / C(z)
    by 1 / w_j <= 1e300, and a new weight under the floor becomes 0.

    The scan is reweighted in blocks of max(_BLOCK_MIN_ROWS,
    _BLOCK_DOUBLES // N) rows, so no array holds more than
    max(2**16, 8 N) doubles however long the scan is.  Blocking moves no
    bit: each C(z) is one row's own dot product, and the factor still adds
    whole rows in scan order, each block's first row taking the factor
    so far (IEEE addition commutes).
    """
    z_arr = np.asarray(measurements, dtype=float).reshape(-1, 2)
    p_d = models.detection.p_detect
    kappa = clutter_intensity(z_arr, models.clutter)
    cuts = _exp_cuts(kappa, pred.weights, models)
    # (p_d * g) / denom stays finite for w_j > 0 even for a subnormal
    # denominator (each ratio is bounded by 1 / w_j); p_d / denom alone can
    # overflow and then turn zero likelihoods into NaNs.  A zero weight has
    # no such bound, and its column is dropped: inf * 0 would be NaN.
    dead = pred.weights == 0.0
    any_dead = dead.any()
    n = len(pred)
    step = max(_BLOCK_MIN_ROWS, _BLOCK_DOUBLES // max(n, 1))
    factor = np.full(n, 1.0 - p_d)
    for a in range(0, len(z_arr), step):
        b = a + step
        rows = likelihood(z_arr[a:b], pred.states, models.measurement, cuts[a:b])
        # C(z) for the block in one call: a stack of (1, n) @ (n, 1)
        # products runs one ddot per measurement, the same dot `row @ w`
        # takes.  A single rows @ w (gemv) sums in another order and moves
        # bits.
        support = p_d * np.matmul(rows[:, None, :], pred.weights[:, None])[:, 0, 0]
        denom = kappa[a:b] + support
        if any_dead:
            rows[:, dead] = 0.0
        rows *= p_d
        # A zero denominator becomes infinity, so its row divides to +0.0.
        rows /= np.where(denom > 0, denom, np.inf)[:, None]
        if n == 1:
            # np.add.reduce sums a single column pairwise, which moves bits,
            # so one particle takes the terms one measurement at a time.
            for row in rows:
                factor += row
        else:
            # Over axis 0 of a C-ordered array with any column count but
            # one, the reduce adds whole rows in scan order; the block's
            # first row carries the factor of the rows before it.
            rows[0] += factor
            factor = np.add.reduce(rows, axis=0)
    return ParticleSet(states=pred.states, weights=factor * pred.weights)


def estimate_cardinality(mass: float) -> int:
    """Expected-count estimate from the intensity mass (a particle set's
    `total_weight()`): the mass rounded half-up."""
    return round_half_up(mass)
