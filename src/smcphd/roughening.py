"""Roughening: restoring particle diversity lost to resampling.

Two strategies are provided.  Separate roughening adds an independent
zero-mean Gaussian jitter to resampled particles as a post-processing step;
direct roughening folds the same jitter into the propagation noise, so the
combined per-axis noise std becomes sqrt(sigma_v^2 + delta^2).  Optional
guards restrict when roughening fires (impoverishment trigger), which
particles it touches (duplicates only), and how large the jitter may be
relative to the measurement noise.
"""

from dataclasses import dataclass, replace

import numpy as np

from .models import (
    POSITION_IDX,
    STATE_DIM,
    VELOCITY_IDX,
    MeasurementModel,
    MotionModel,
    check_number,
    check_numbers,
)
from .particles import ParticleSet

MODES = ("none", "separate", "direct")


@dataclass(frozen=True)
class RougheningConfig:
    """Strategy selection plus guards; configs are equal, and hash equal,
    exactly when every field is equal.

    `jitter_std` is a per-state-dimension std vector, stored as a 4-tuple; a
    scalar, or a one-element sequence, is shorthand for jitter on the
    velocity dimensions only.
    `gordon_constant` K instead selects the adaptive bandwidth
    K * E * N^(-1/d): E is the per-dimension spread of the particles, N
    their count, d `gordon_dimension`, and `gordon_positive_exponent` makes
    it N^(+1/d); either of the last two away from its default needs K.  An
    active mode takes exactly one of `jitter_std` and K; direct mode takes
    velocity jitter only (see `direct_motion`).  `selective_threshold` skips
    roughening while the fraction of unique ancestor indices is at or above
    it; `overlapped_only` jitters only particles that share an ancestor;
    `cap_to_measurement` clamps the jitter so its one-step position
    projection stays within the smallest measurement noise std.
    """

    mode: str = "none"
    jitter_std: tuple | None = None  # a scalar, or a length-1 or length-4 sequence
    gordon_constant: float | None = None
    gordon_dimension: int = STATE_DIM
    gordon_positive_exponent: bool = False
    selective_threshold: float | None = None
    overlapped_only: bool = False
    cap_to_measurement: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown roughening mode {self.mode!r}")
        jitter = self.jitter_std
        if jitter is not None:
            arr = np.ravel(jitter)
            if arr.size == 1:
                arr = velocity_jitter(arr[0])
            elif arr.size != STATE_DIM:
                raise ValueError(f"jitter_std must be a scalar or a length-{STATE_DIM} vector")
            jitter = check_numbers("jitter_std", arr, minimum=0.0)
            object.__setattr__(self, "jitter_std", jitter)
        if self.gordon_constant is not None:
            check_number("gordon_constant", self.gordon_constant, 0.0)
        if self.gordon_dimension < 1:
            raise ValueError(f"gordon_dimension must be >= 1, got {self.gordon_dimension}")
        gordon_options = (self.gordon_dimension, self.gordon_positive_exponent)
        if self.gordon_constant is None and gordon_options != (STATE_DIM, False):
            raise ValueError(
                "gordon_constant is required when gordon_dimension or "
                "gordon_positive_exponent is set"
            )
        if jitter is not None and self.gordon_constant is not None:
            raise ValueError("set either a fixed jitter_std or gordon_constant, not both")
        if self.mode != "none" and jitter is None and self.gordon_constant is None:
            raise ValueError(f"mode {self.mode!r} requires jitter_std or gordon_constant")
        if self.selective_threshold is not None and not (0 < self.selective_threshold <= 1):
            raise ValueError("selective_threshold must lie in (0, 1]")
        if self.mode == "direct":
            if jitter is not None and any(jitter[i] for i in POSITION_IDX):
                raise ValueError(
                    "jitter_std: direct roughening cannot express position-dimension jitter, "
                    f"got {list(jitter)}"
                )
            if self.overlapped_only or self.selective_threshold is not None:
                raise ValueError(
                    "per-particle guards (overlapped_only, selective_threshold) "
                    "apply to separate mode only; direct mode inflates all propagation noise"
                )

    @property
    def inert(self) -> bool:
        """Whether every step runs bit-identical to no roughening: mode none,
        or a fixed all-zero jitter in either mode (`separate_roughen` then
        draws nothing and `direct_motion` keeps the model's noise).  A Gordon
        bandwidth is never inert, even with K = 0, because 0 times an
        infinite spread is NaN, not 0."""
        return self.mode == "none" or (self.jitter_std is not None and not any(self.jitter_std))


def velocity_jitter(delta: float) -> np.ndarray:
    """Jitter std vector acting on the velocity dimensions only."""
    out = np.zeros(STATE_DIM)
    out[list(VELOCITY_IDX)] = delta
    return out


def effective_jitter(
    pset: ParticleSet,
    config: RougheningConfig,
    motion: MotionModel,
    meas: MeasurementModel,
) -> np.ndarray:
    """Resolve the per-dimension jitter stds for the current population.

    Applies the adaptive bandwidth when configured, then the measurement
    cap: any component whose one-step position projection would exceed
    min(sigma_w1, sigma_w2) is clamped to that bound.  A component still
    not finite, an uncapped bandwidth that overflowed, raises
    FloatingPointError.
    """
    if config.gordon_constant is not None:
        # Gordon's K * E * N^(-1/d), E the states' per-dimension range.
        d = config.gordon_dimension
        exponent = 1.0 / d if config.gordon_positive_exponent else -1.0 / d
        states = pset.states
        with np.errstate(over="ignore", invalid="ignore"):
            spread = states.max(0) - states.min(0) if len(pset) else np.zeros(STATE_DIM)
            jitter = config.gordon_constant * spread * float(max(len(pset), 1)) ** exponent
    else:
        jitter = np.array(config.jitter_std)
    if config.cap_to_measurement:
        # One-step projection onto position: position jitter is position
        # jitter (factor 1), velocity jitter integrates over one sampling
        # interval (factor T).  This covers the linear position sensor.  A
        # subnormal T overflows the bound to inf, which caps nothing.
        t = motion.sampling_interval
        with np.errstate(over="ignore"):
            bound = meas.min_std() / np.array([1.0, t, 1.0, t])
        jitter = np.minimum(jitter, bound)
    if not np.isfinite(jitter).all():
        raise FloatingPointError(f"roughening jitter is not finite: {jitter.tolist()}")
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

    `config` is a separate-mode config; `harness._run_variant` calls this
    only for such variants.  Weights are never modified, so the represented
    mass is unchanged.  With an all-zero jitter vector, or an empty set, the
    input is returned untouched and no random draws are consumed, which
    keeps other streams aligned when roughening is toggled off.
    """
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
        counts = np.bincount(pset.ancestry)
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
    Gordon bandwidth has) are not expressible and are dropped.  The squares
    are scaled by a power of two, exact where they are normal, so they
    overflow only where d or the std itself does (a T near the smallest
    double), which raises FloatingPointError.  A zero-jitter axis keeps the
    model std bit for bit (but for the sign of a -0.0), so disabling the
    jitter reproduces the unmodified dynamics: with d = 0 the scaled std a
    is 0 or lies in [0.5, 1), where sqrt(fl(a * a)) = a exactly in binary
    floating point, and the power-of-two scalings are exact.
    """
    jitter = effective_jitter(pset, config, motion, meas)
    with np.errstate(over="raise", invalid="raise"):
        d = jitter[list(VELOCITY_IDX)] / motion.sampling_interval
        s = motion.noise_stds()
        e = np.frexp(np.maximum(s, d))[1]
        a, b = np.ldexp(s, -e), np.ldexp(d, -e)
        sigma_v1, sigma_v2 = np.ldexp(np.sqrt(a * a + b * b), e)
    return replace(motion, sigma_v1=float(sigma_v1), sigma_v2=float(sigma_v2))
