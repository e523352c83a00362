"""Roughening: restoring particle diversity lost to resampling.

Two strategies are provided.  Separate roughening adds an independent
zero-mean Gaussian jitter to resampled particles as a post-processing step;
direct roughening folds the same jitter into the propagation noise, so the
combined per-axis noise std becomes sqrt(sigma_v^2 + delta^2).  Optional
guards restrict when roughening fires (impoverishment trigger), which
particles it touches (duplicates only), and how large the jitter may be
relative to the measurement noise.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .models import (
    POSITION_IDX,
    STATE_DIM,
    VELOCITY_IDX,
    MeasurementModel,
    MotionModel,
    check_number,
)
from .particles import ParticleSet

logger = logging.getLogger(__name__)

MODES = ("none", "separate", "direct")


@dataclass
class GordonConfig:
    """Adaptive jitter bandwidth K * E * N^(-1/d).

    E is the per-dimension spread (max - min) of the current particle states,
    N the particle count, d the state dimension.  The negative exponent makes
    the jitter shrink as the population grows; `positive_exponent` selects the
    growing variant for fidelity experiments.
    """

    tuning_constant: float
    dimension: int = STATE_DIM
    positive_exponent: bool = False

    def __post_init__(self):
        check_number("gordon_constant", self.tuning_constant, 0.0)
        if self.dimension < 1:
            raise ValueError(f"gordon_dimension must be >= 1, got {self.dimension}")


@dataclass
class RougheningConfig:
    """Strategy selection plus guards.

    `jitter_std` is a per-state-dimension std vector; a scalar is shorthand
    for jitter on the velocity dimensions only (the usual tracking choice).
    Exactly one of `jitter_std` and `gordon` must be set for an active mode;
    direct mode takes velocity jitter only (see `direct_motion`).
    `selective_threshold` skips roughening while the fraction of unique
    ancestor indices is at or above the threshold; `overlapped_only`
    restricts jitter to particles that share an ancestor with another
    particle; `cap_to_measurement` clamps the jitter so its one-step
    projection onto position space stays within the smallest measurement
    noise std.
    """

    mode: str = "none"
    jitter_std: object = None  # scalar, length-4 vector, or None
    gordon: GordonConfig | None = None
    selective_threshold: float | None = None
    overlapped_only: bool = False
    cap_to_measurement: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown roughening mode {self.mode!r}")
        if self.jitter_std is not None:
            self.jitter_std = as_jitter_vector(self.jitter_std)
            for v in self.jitter_std:
                check_number("jitter_std", v, 0.0)
        if self.jitter_std is not None and self.gordon is not None:
            raise ValueError("set either a fixed jitter_std or gordon, not both")
        if self.mode != "none" and self.jitter_std is None and self.gordon is None:
            raise ValueError(f"mode {self.mode!r} requires jitter_std or gordon")
        if self.selective_threshold is not None and not (0 < self.selective_threshold <= 1):
            raise ValueError("selective_threshold must lie in (0, 1]")
        if self.mode == "direct":
            if self.jitter_std is not None and np.any(self.jitter_std[list(POSITION_IDX)]):
                raise ValueError(
                    "jitter_std: direct roughening cannot express position-dimension jitter, "
                    f"got {self.jitter_std.tolist()}"
                )
            if self.overlapped_only or self.selective_threshold is not None:
                raise ValueError(
                    "per-particle guards (overlapped_only, selective_threshold) "
                    "apply to separate mode only; direct mode inflates all propagation noise"
                )


def as_jitter_vector(value) -> np.ndarray:
    """Normalize a jitter spec to a length-4 per-dimension std vector."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return velocity_jitter(float(arr))
    arr = arr.ravel()
    if arr.shape[0] != STATE_DIM:
        raise ValueError(f"jitter_std must be a scalar or a length-{STATE_DIM} vector")
    return arr


def velocity_jitter(delta: float) -> np.ndarray:
    """Jitter std vector acting on the velocity dimensions only."""
    out = np.zeros(STATE_DIM)
    out[list(VELOCITY_IDX)] = delta
    return out


def gordon_std(
    tuning_constant: float,
    spread,
    count: int,
    dimension: int,
    positive_exponent: bool = False,
) -> np.ndarray:
    """Jitter std K * E * N^(-1/d) per dimension (N^(+1/d) if requested)."""
    if tuning_constant < 0:
        raise ValueError("tuning_constant must be >= 0")
    if count < 1:
        raise ValueError("count must be >= 1")
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    e = np.asarray(spread, dtype=float)
    if np.any(e < 0):
        raise ValueError("spread components must be >= 0")
    exponent = 1.0 / dimension if positive_exponent else -1.0 / dimension
    return tuning_constant * e * float(count) ** exponent


def state_spread(states: np.ndarray) -> np.ndarray:
    """Per-dimension max - min over a particle population."""
    if states.shape[0] == 0:
        return np.zeros(states.shape[1] if states.ndim == 2 else STATE_DIM)
    return states.max(axis=0) - states.min(axis=0)


def position_projection_factors(motion: MotionModel) -> np.ndarray:
    """One-step projection of each state dimension onto position.

    Position jitter is position jitter (factor 1); velocity jitter integrates
    into position over one sampling interval (factor T).  Nonlinear sensors
    would need their own mapping; this covers the linear position sensor.
    """
    t = motion.sampling_interval
    return np.array([1.0, t, 1.0, t])


def effective_jitter(
    pset: ParticleSet,
    config: RougheningConfig,
    motion: MotionModel,
    meas: MeasurementModel,
) -> np.ndarray:
    """Resolve the per-dimension jitter stds for the current population.

    Applies the adaptive bandwidth when configured, then the measurement
    cap: any component whose one-step position projection would exceed
    min(sigma_w1, sigma_w2) is clamped to that bound.
    """
    if config.gordon is not None:
        jitter = gordon_std(
            config.gordon.tuning_constant,
            state_spread(pset.states),
            max(len(pset), 1),
            config.gordon.dimension,
            config.gordon.positive_exponent,
        )
    else:
        jitter = config.jitter_std.copy()
    if config.cap_to_measurement:
        factors = position_projection_factors(motion)
        # A subnormal T overflows the bound to inf, which caps nothing.
        with np.errstate(over="ignore"):
            bound = meas.min_std() / factors
        jitter = np.minimum(jitter, bound)
    return jitter


def unique_ancestor_fraction(pset: ParticleSet) -> float:
    if pset.ancestry is None:
        raise ValueError("particle set has no ancestry record (resample first)")
    if len(pset) == 0:
        return 1.0
    return np.unique(pset.ancestry).size / len(pset)


def separate_roughen(
    pset: ParticleSet,
    config: RougheningConfig,
    motion: MotionModel,
    meas: MeasurementModel,
    rng: np.random.Generator,
) -> ParticleSet:
    """Add zero-mean Gaussian jitter to a resampled population.

    Weights are never modified, so the represented mass is unchanged.  With
    an all-zero jitter vector the input is returned untouched and no random
    draws are consumed, which keeps other streams aligned when roughening
    is toggled off.
    """
    if config.mode != "separate":
        logger.warning("separate_roughen called with mode=%r; returning input unchanged", config.mode)
        return pset
    if len(pset) == 0:
        return pset
    if config.selective_threshold is not None:
        if unique_ancestor_fraction(pset) >= config.selective_threshold:
            return pset
    jitter = effective_jitter(pset, config, motion, meas)
    active = np.flatnonzero(jitter > 0)
    if active.size == 0:
        return pset
    if config.overlapped_only:
        if pset.ancestry is None:
            raise ValueError("overlapped_only requires ancestry (resample first)")
        counts = np.bincount(pset.ancestry, minlength=int(pset.ancestry.max()) + 1)
        rows = np.flatnonzero(counts[pset.ancestry] > 1)
    else:
        rows = np.arange(len(pset))
    if rows.size == 0:
        return pset
    states = pset.states.copy()
    noise = rng.standard_normal((rows.size, active.size)) * jitter[active]
    states[np.ix_(rows, active)] += noise
    return ParticleSet(
        states=states,
        weights=pset.weights,
        ancestry=pset.ancestry,
    )


def direct_motion(
    pset: ParticleSet,
    config: RougheningConfig,
    motion: MotionModel,
    meas: MeasurementModel,
) -> MotionModel:
    """The motion model of one direct-roughening step.

    The propagation noise enters velocity with gain T, so velocity jitter
    delta becomes channel jitter d = delta / T and each axis's noise std
    sqrt(sigma_v^2 + d^2).  Position components of the jitter (which a
    Gordon bandwidth has) are not expressible and are dropped.  A
    zero-jitter axis keeps the model std bit for bit, so disabling the
    jitter reproduces the unmodified dynamics exactly.
    """
    jitter = effective_jitter(pset, config, motion, meas)
    d = jitter[list(VELOCITY_IDX)] / motion.sampling_interval
    s = motion.noise_stds()
    sigma_v1, sigma_v2 = np.where(d == 0, s, np.sqrt(s * s + d * d))
    return replace(motion, sigma_v1=float(sigma_v1), sigma_v2=float(sigma_v2))
