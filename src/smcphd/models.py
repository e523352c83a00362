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
# The smallest normal double, 2^-1022, and its log.  Below it np.exp returns
# a subnormal through a slow path, about 100 times the cost of a normal one.
_NORMAL_MIN = float(np.finfo(float).tiny)
_LN_NORMAL_MIN = math.log(_NORMAL_MIN)


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


def check_count(key: str, value, low: int, high: int | None = None) -> None:
    """Reject a parameter that is not an integer (a bool is not one), or
    that lies below `low` or above `high`; the message names `key`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{key} must be {bound}, got {value}")


def check_numbers(
    key: str, values, length: int | None = None, minimum: float | None = None, *, strict=False
) -> tuple:
    """`values` as a tuple of floats, each checked by `check_number` under
    `key`; with `length`, a different count is rejected too."""
    values = tuple(float(v) for v in values)
    if length is not None and len(values) != length:
        raise ValueError(f"{key} must have {length} values, got {len(values)}")
    for v in values:
        check_number(key, v, minimum, strict=strict)
    return values


def _as_rows(x, width: int = STATE_DIM) -> np.ndarray:
    """States as a float (n, 4) array, or with `width` 2 measurements as an
    (m, 2) one; every component must be finite."""
    what, rows = ("state", "n") if width == STATE_DIM else ("measurement", "m")
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{what}s must be an ({rows}, {width}) array, got shape {arr.shape}")
    # The array method, not np.all, whose Python wrapper costs as much as
    # the check: this runs on every scan, particle set and propagation.
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite components")
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
        # The peak is a factor of every likelihood and `subnormal_cut` takes
        # its log; a product of the stds that under- or overflows leaves none.
        product = _TWO_PI * self.sigma_w1 * self.sigma_w2
        check_number(
            "the likelihood peak 1 / (2 pi measurement.sigma_w1 measurement.sigma_w2)",
            1.0 / product if product > 0.0 else math.inf,
            0.0,
            strict=True,
        )

    def min_std(self) -> float:
        return min(self.sigma_w1, self.sigma_w2)

    def norm(self) -> float:
        """The likelihood's peak 1 / (2 pi sw1 sw2): g = norm * e^arg."""
        return 1.0 / (_TWO_PI * self.sigma_w1 * self.sigma_w2)

    def subnormal_cut(self) -> tuple[float, float]:
        """(cut, g_max): the exponent max(ln 2^-1022, ln(2^-1022 / norm))
        below which norm * e^arg leaves the normal range, or e^arg does when
        norm > 1, and a bound on every likelihood below it.  The bound,
        2^-1021 * max(1, norm), is twice the exact one: slack for the
        rounding of the cut, of exp and of the product."""
        norm = self.norm()
        cut = _LN_NORMAL_MIN - min(0.0, math.log(norm))
        return cut, 2.0 * _NORMAL_MIN * max(1.0, norm)


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
        self.mean = check_numbers("birth.mean", self.mean, STATE_DIM)
        self.cov_diag = check_numbers("birth.cov_diag", self.cov_diag, STATE_DIM, 0.0, strict=True)


@dataclass
class ClutterModel:
    """Poisson-count clutter, uniform over an axis-aligned rectangle."""

    rate: float = 10.0
    region: tuple = (-100.0, 100.0, -100.0, 100.0)  # xmin, xmax, ymin, ymax

    def __post_init__(self):
        check_number("clutter.rate", self.rate, 0.0)
        self.region = check_numbers("clutter.region", self.region, 4)
        xmin, xmax, ymin, ymax = self.region
        if xmax <= xmin or ymax <= ymin:
            raise ValueError(f"clutter.region must have positive area, got {self.region!r}")
        # kappa = rate / area: an area that under- or overflows would divide
        # by zero or silently zero the clutter intensity.
        check_number("clutter.region area", self.area(), 0.0, strict=True)

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
    x = _as_rows(states)
    stds = motion.noise_stds()
    # A finite but huge state can overflow to inf; the next kernel's finite
    # check rejects it, so numpy's overflow warning would only be noise.
    with np.errstate(over="ignore"):
        out = x @ motion.transition_matrix().T
        if np.any(stds > 0):
            v = rng.standard_normal((x.shape[0], 2)) * stds
            out = out + v @ motion.noise_input_matrix().T
    return out


def likelihood(z, px, py, meas: MeasurementModel, cut=EXP_ZERO_BELOW) -> np.ndarray:
    """Measurement likelihoods N(zx; px, sw1^2) * N(zy; py, sw2^2).

    For checked measurements z (m, 2) and position columns px, py (n,),
    returns the (m, n) array of g(z_i | x_j); only shapes are checked here.
    Pairs whose exponent lies below `cut`, a scalar or one value per row,
    are exactly 0.0, with no call to `exp`.  The default, EXP_ZERO_BELOW,
    gives what `exp` gives after its slow underflow path; `update` raises
    the cut where it drops subnormal g (`MeasurementModel.subnormal_cut`).
    """
    if z.ndim != 2 or z.shape[1] != 2:
        raise ValueError(f"measurements must be an (m, 2) array, got shape {z.shape}")
    if px.ndim != 1 or px.shape != py.shape:
        raise ValueError(f"px and py must be two (n,) arrays, got shapes {px.shape}, {py.shape}")
    norm = meas.norm()
    # In place, in the order (dx*dx + dy*dy) * -0.5, with at most two (m, n)
    # float64 arrays live at once.  An exponent that overflows is -inf,
    # below every cut, and its likelihood the exact 0.0, so numpy's overflow
    # warning would only be noise.
    with np.errstate(over="ignore"):
        arg = z[:, :1] - px
        arg /= meas.sigma_w1
        arg *= arg
        dy = z[:, 1:] - py
        dy /= meas.sigma_w2
        dy *= dy
        arg += dy
        del dy
        arg *= -0.5
    live = arg >= np.reshape(cut, (-1, 1))
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
    zv = _as_rows(z, 2)
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
    x = _as_rows(states)
    stds = np.array([meas.sigma_w1, meas.sigma_w2])
    return x[:, POSITION_IDX] + rng.standard_normal((x.shape[0], 2)) * stds
