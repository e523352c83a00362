"""Particle intensity-filter recursion: predict and update.

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
    POSITION_IDX,
    ModelSet,
    _as_rows,
    birth_sample,
    check_count,
    clutter_intensity,
    likelihood,
    propagate,
)
from .particles import MAX_PARTICLES, ParticleSet, round_half_up
from .resampling import RESAMPLE_SCHEMES

_BLOCK_DOUBLES = 2**16  # `update` reweights a scan in blocks of this many doubles
# A term under 2^-60 of a sum is under half an ulp of it (at least 2^-54 of
# the sum), so adding it rounds back to the same sum.
_VANISHES = 2.0**-60


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
        check_count("filter.particles_per_target", self.particles_per_target, 1, MAX_PARTICLES)
        if self.birth_particles is not None:
            check_count("filter.birth_particles", self.birth_particles, 0, MAX_PARTICLES)
        if self.min_particles is None:
            self.min_particles = math.ceil(self.particles_per_target / 2)
        check_count("filter.min_particles", self.min_particles, 1, MAX_PARTICLES)
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

    mass = models.birth.mass
    j = config.birth_particle_count(mass) if mass > 0 else 0
    # A zero-size draw leaves the stream where it was, and np.full(0, m) / 0
    # is empty, so a zero birth mass or count adds no particle.
    return ParticleSet(
        states=np.vstack([surv_states, birth_sample(models.birth, rng, j)]),
        weights=np.concatenate([surv_weights, np.full(j, mass) / j]),
    )


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

    The scan, an (m, 2) array, is reweighted in blocks of max(1,
    _BLOCK_DOUBLES // N) rows, so no array holds more than max(2**16, N)
    doubles however long the scan is.  Blocking moves no bit: each C(z) is
    one row's own dot product, and the factor still adds whole rows in
    scan order, each block's first row taking the factor so far (IEEE
    addition commutes).
    """
    z_arr = _as_rows(measurements, 2)
    p_d = models.detection.p_detect
    kappa = clutter_intensity(z_arr, models.clutter)
    cuts = _exp_cuts(kappa, pred.weights, models)
    # (p_d * g) / denom stays finite for w_j > 0 even for a subnormal
    # denominator (each ratio is bounded by 1 / w_j); p_d / denom alone can
    # overflow and then turn zero likelihoods into NaNs.  A zero weight has
    # no such bound, and its column is dropped: inf * 0 would be NaN.
    dead = pred.weights == 0.0
    n = len(pred)
    px, py = np.ascontiguousarray(pred.states[:, POSITION_IDX].T)  # the set checked them
    # The reduce below adds whole rows in scan order, but sums a single
    # column pairwise: a set of at most one particle takes one-row blocks.
    step = max(1, _BLOCK_DOUBLES // n) if n > 1 else 1
    factor = np.full(n, 1.0 - p_d)
    for a in range(0, len(z_arr), step):
        b = a + step
        rows = likelihood(z_arr[a:b], px, py, models.measurement, cuts[a:b])
        # C(z) for the block in one call: a stack of (1, n) @ (n, 1)
        # products runs one ddot per measurement, the same dot `row @ w`
        # takes.  A single rows @ w (gemv) sums in another order and moves
        # bits.
        support = p_d * np.matmul(rows[:, None, :], pred.weights[:, None])[:, 0, 0]
        denom = kappa[a:b] + support
        rows[:, dead] = 0.0
        rows *= p_d
        # A zero denominator becomes infinity, so its row divides to +0.0.
        rows /= np.where(denom > 0, denom, np.inf)[:, None]
        # The block's first row carries the factor of the rows before it.
        rows[0] += factor
        factor = np.add.reduce(rows, axis=0)
    return ParticleSet(states=pred.states, weights=factor * pred.weights)

