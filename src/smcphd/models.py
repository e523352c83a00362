"""Single-target models shared by the filter and the simulator.

State vectors are ordered [px, vx, py, vy].  The motion model is a
nearly-constant-velocity model driven by two independent acceleration-like
noise channels (one per axis) entering through a 4x2 input matrix; the
sensor observes position with independent Gaussian noise on each axis.
"""

import math
from dataclasses import dataclass, field

import numpy as np

STATE_DIM = 4
POSITION_IDX = (0, 2)
VELOCITY_IDX = (1, 3)

_TWO_PI = 2.0 * math.pi

# np.exp returns exactly 0.0 for every argument below this: e^-750 < 2^-1082,
# far under half the smallest subnormal double (2^-1075).
EXP_ZERO_BELOW = -750.0


def check_number(key: str, value, minimum: float | None = None, *, strict: bool = False) -> None:
    """Reject a parameter that is not a finite number, or that lies below
    `minimum` (at or below it when `strict`); the message names `key`, the
    parameter's config-file key."""
    if minimum is None:
        ok = math.isfinite(value)
        bound = ""
    else:
        ok = math.isfinite(value) and (value > minimum if strict else value >= minimum)
        bound = f" {'>' if strict else '>='} {minimum:g}"
    if not ok:
        raise ValueError(f"{key} must be a finite number{bound}, got {value}")


def _as_state(x) -> np.ndarray:
    """States as a float (n, 4) array; every component must be finite."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != STATE_DIM:
        raise ValueError(f"states must be an (n, {STATE_DIM}) array, got shape {arr.shape}")
    # The array method, not np.all, whose Python wrapper costs as much as
    # the check: this runs in every kernel and on every particle set.
    if not np.isfinite(arr).all():
        raise ValueError("state contains non-finite components")
    return arr


def _as_measurements(z) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"measurements must be an (m, 2) array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("measurement contains non-finite components")
    return arr


@dataclass
class MotionModel:
    """Linear Gaussian constant-velocity dynamics."""

    sampling_interval: float = 1.0
    sigma_v1: float = 1.0
    sigma_v2: float = 0.1

    def __post_init__(self):
        check_number("motion.sampling_interval", self.sampling_interval, 0.0, strict=True)
        check_number("motion.sigma_v1", self.sigma_v1, 0.0)
        check_number("motion.sigma_v2", self.sigma_v2, 0.0)

    def transition_matrix(self) -> np.ndarray:
        t = self.sampling_interval
        return np.array(
            [
                [1.0, t, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, t],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )

    def noise_input_matrix(self) -> np.ndarray:
        t = self.sampling_interval
        return np.array(
            [
                [t * t / 2.0, 0.0],
                [t, 0.0],
                [0.0, t * t / 2.0],
                [0.0, t],
            ]
        )

    def noise_stds(self) -> np.ndarray:
        return np.array([self.sigma_v1, self.sigma_v2])


@dataclass
class MeasurementModel:
    """Position observation with independent per-axis Gaussian noise."""

    sigma_w1: float = 2.5
    sigma_w2: float = 2.5

    def __post_init__(self):
        check_number("measurement.sigma_w1", self.sigma_w1, 0.0, strict=True)
        check_number("measurement.sigma_w2", self.sigma_w2, 0.0, strict=True)

    def min_std(self) -> float:
        return min(self.sigma_w1, self.sigma_w2)


@dataclass
class BirthModel:
    """Gaussian intensity of newly appearing targets.

    `mass` is the expected number of new targets per step; the intensity is
    mass * N(x; mean, diag(cov_diag)).
    """

    mass: float = 0.2
    mean: tuple = (0.0, 3.0, 0.0, -3.0)
    cov_diag: tuple = (10.0, 1.0, 10.0, 1.0)

    def __post_init__(self):
        check_number("birth.mass", self.mass, 0.0)
        self.mean = tuple(float(v) for v in self.mean)
        self.cov_diag = tuple(float(v) for v in self.cov_diag)
        for key, values, minimum in (("mean", self.mean, None), ("cov_diag", self.cov_diag, 0.0)):
            if len(values) != STATE_DIM:
                raise ValueError(f"birth.{key} must have {STATE_DIM} components, got {len(values)}")
            for v in values:
                check_number(f"birth.{key}", v, minimum, strict=True)


@dataclass
class ClutterModel:
    """Poisson-count clutter, uniform over an axis-aligned rectangle."""

    rate: float = 10.0
    region: tuple = (-100.0, 100.0, -100.0, 100.0)  # xmin, xmax, ymin, ymax

    def __post_init__(self):
        check_number("clutter.rate", self.rate, 0.0)
        self.region = tuple(float(v) for v in self.region)
        if len(self.region) != 4:
            raise ValueError(
                f"clutter.region must have 4 values (xmin, xmax, ymin, ymax), "
                f"got {len(self.region)}"
            )
        for v in self.region:
            check_number("clutter.region", v)
        xmin, xmax, ymin, ymax = self.region
        if xmax <= xmin or ymax <= ymin:
            raise ValueError(f"clutter.region must have positive area, got {self.region!r}")

    def area(self) -> float:
        xmin, xmax, ymin, ymax = self.region
        return (xmax - xmin) * (ymax - ymin)

    def intensity_level(self) -> float:
        """Clutter intensity inside the region (integrates to `rate`)."""
        return self.rate / self.area()


@dataclass
class DetectionModel:
    p_survive: float = 0.95
    p_detect: float = 0.95

    def __post_init__(self):
        for key, p in (("p_survive", self.p_survive), ("p_detect", self.p_detect)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"detection.{key} must lie in [0, 1], got {p}")


@dataclass
class ModelSet:
    """Bundle of the five single-target models."""

    motion: MotionModel = field(default_factory=MotionModel)
    measurement: MeasurementModel = field(default_factory=MeasurementModel)
    birth: BirthModel = field(default_factory=BirthModel)
    clutter: ClutterModel = field(default_factory=ClutterModel)
    detection: DetectionModel = field(default_factory=DetectionModel)


def propagate(states, motion: MotionModel, rng: np.random.Generator) -> np.ndarray:
    """Advance (n, 4) states one step: F @ x + G @ v with v ~ N(0, diag(sigma_v^2)).

    When both noise stds are zero the noise draw is skipped entirely so the
    result is exactly F @ x.
    """
    x = _as_state(states)
    stds = motion.noise_stds()
    # A finite but huge state can overflow to inf; the next kernel's finite
    # check rejects it, so numpy's overflow warning would only be noise.
    with np.errstate(over="ignore"):
        out = x @ motion.transition_matrix().T
        if np.any(stds > 0):
            v = rng.standard_normal((x.shape[0], 2)) * stds
            out = out + v @ motion.noise_input_matrix().T
    return out


def likelihood(z, states, meas: MeasurementModel) -> np.ndarray:
    """Measurement likelihoods N(zx; px, sw1^2) * N(zy; py, sw2^2).

    For measurements z (m, 2) and states (n, 4), returns the (m, n) array
    whose row i holds g(z_i | x_j) for every state j.  Pairs whose exponent
    lies below EXP_ZERO_BELOW are set to exactly 0.0 without calling `exp`,
    which would return the same 0.0 only after a slow underflow path.
    """
    zv = _as_measurements(z)
    x = _as_state(states)
    norm = 1.0 / (_TWO_PI * meas.sigma_w1 * meas.sigma_w2)
    px = np.ascontiguousarray(x[:, 0])
    py = np.ascontiguousarray(x[:, 2])
    # In place, in the order (dx*dx + dy*dy) * -0.5, with at most two (m, n)
    # float64 arrays live at once.
    arg = zv[:, :1] - px
    arg /= meas.sigma_w1
    arg *= arg
    dy = zv[:, 1:] - py
    dy /= meas.sigma_w2
    dy *= dy
    arg += dy
    del dy
    arg *= -0.5
    live = arg >= EXP_ZERO_BELOW
    vals = arg[live]
    np.exp(vals, out=vals)
    vals *= norm
    arg.fill(0.0)
    arg[live] = vals
    return arg


def birth_sample(birth: BirthModel, rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """Draw `count` states from the birth location density N(mean, diag cov)."""
    stds = np.sqrt(np.array(birth.cov_diag))
    return np.array(birth.mean) + rng.standard_normal((count, STATE_DIM)) * stds


def clutter_intensity(z, clutter: ClutterModel) -> np.ndarray:
    """Clutter intensity at measurements z (m, 2), as an (m,) array:
    rate/area inside the region (its boundary included), 0 outside."""
    zv = _as_measurements(z)
    xmin, xmax, ymin, ymax = clutter.region
    x = zv[:, 0]
    y = zv[:, 1]
    inside = (xmin <= x) & (x <= xmax) & (ymin <= y) & (y <= ymax)
    return np.where(inside, clutter.intensity_level(), 0.0)


def clutter_sample(clutter: ClutterModel, rng: np.random.Generator) -> np.ndarray:
    """One scan of clutter: Poisson(rate) points uniform over the region."""
    n = rng.poisson(clutter.rate)
    xmin, xmax, ymin, ymax = clutter.region
    pts = rng.random((n, 2))
    pts[:, 0] = xmin + pts[:, 0] * (xmax - xmin)
    pts[:, 1] = ymin + pts[:, 1] * (ymax - ymin)
    return pts


def measure(states, meas: MeasurementModel, rng: np.random.Generator) -> np.ndarray:
    """Noisy position observations H @ x + w of (n, 4) states, as (n, 2)."""
    x = _as_state(states)
    stds = np.array([meas.sigma_w1, meas.sigma_w2])
    return x[:, POSITION_IDX] + rng.standard_normal((x.shape[0], 2)) * stds
