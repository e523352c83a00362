import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from smcphd.models import (
    EXP_ZERO_BELOW,
    BirthModel,
    ClutterModel,
    DetectionModel,
    MeasurementModel,
    MotionModel,
    birth_sample,
    clutter_intensity,
    clutter_sample,
    likelihood,
    measure,
    propagate,
)


def test_propagate_zero_noise_is_matrix_product():
    motion = MotionModel(sampling_interval=1.0, sigma_v1=0.0, sigma_v2=0.0)
    rng = np.random.default_rng(0)
    out = propagate(np.array([[0.0, 3.0, 0.0, -3.0]]), motion, rng)
    assert np.array_equal(out, np.array([[3.0, 3.0, -3.0, -3.0]]))
    assert np.array_equal(propagate(np.zeros((1, 4)), motion, rng), np.zeros((1, 4)))


def test_propagate_zero_noise_bit_reproducible():
    motion = MotionModel(sigma_v1=0.0, sigma_v2=0.0)
    x = np.array([[1.7, -2.3, 0.9, 4.1]])
    a = propagate(x, motion, np.random.default_rng(1))
    b = propagate(x, motion, np.random.default_rng(2))
    assert np.array_equal(a, b)
    assert np.array_equal(a[0], motion.transition_matrix() @ x[0])


def test_propagate_noise_covariance_matches_analytic():
    # Analytic covariance of the (px, vx) block: G diag(s^2) G^T restricted
    # to axis 1, i.e. [[T^4/4, T^3/2], [T^3/2, T^2]] * sigma_v1^2.
    t = 1.0
    sigma1 = 1.0
    motion = MotionModel(sampling_interval=t, sigma_v1=sigma1, sigma_v2=0.1)
    rng = np.random.default_rng(42)
    start = np.tile([1.0, 0.0, 2.0, 0.0], (100_000, 1))
    out = propagate(start, motion, rng)
    sample_cov = np.cov(out[:, 0], out[:, 1])
    expected = np.array([[t**4 / 4, t**3 / 2], [t**3 / 2, t**2]]) * sigma1**2
    assert np.all(np.abs(sample_cov - expected) <= 0.05 * np.abs(expected))


def test_propagate_rejects_non_finite_state():
    motion = MotionModel()
    with pytest.raises(ValueError):
        propagate(np.array([[np.nan, 0.0, 0.0, 0.0]]), motion, np.random.default_rng(0))


def test_kernels_take_batches_only():
    # A single (4,) state must not broadcast into a batch by accident, nor a
    # (2,) scan point, a 2-D position column or columns of unequal length.
    rng = np.random.default_rng(0)
    meas = MeasurementModel()
    with pytest.raises(ValueError, match=r"\(n, 4\)"):
        propagate(np.zeros(4), MotionModel(), rng)
    with pytest.raises(ValueError, match=r"\(n, 4\)"):
        measure(np.zeros(4), meas, rng)
    with pytest.raises(ValueError, match=r"\(m, 2\)"):
        likelihood(np.zeros(2), np.zeros(1), np.zeros(1), meas)
    with pytest.raises(ValueError, match=r"\(n,\)"):
        likelihood(np.zeros((1, 2)), np.zeros((1, 1)), np.zeros(1), meas)
    with pytest.raises(ValueError, match=r"\(n,\)"):
        likelihood(np.zeros((1, 2)), np.zeros(2), np.zeros(3), meas)
    with pytest.raises(ValueError, match=r"\(m, 2\)"):
        clutter_intensity(np.zeros(2), ClutterModel())


def test_likelihood_examples():
    meas = MeasurementModel(sigma_w1=2.5, sigma_w2=2.5)
    x = np.array([[0.0, 1.0, 0.0, -1.0]])
    px, py = x[:, 0], x[:, 2]
    mode = 1.0 / (2 * math.pi * 2.5 * 2.5)
    assert likelihood(np.array([[0.0, 0.0]]), px, py, meas)[0, 0] == pytest.approx(mode, rel=1e-12)
    one_sigma = likelihood(np.array([[2.5, 0.0]]), px, py, meas)[0, 0]
    assert one_sigma == pytest.approx(mode * math.exp(-0.5), rel=1e-12)
    expected = stats.norm.pdf(5.0, 0.0, 2.5) ** 2
    at_five = likelihood(np.array([[5.0, 5.0]]), px, py, meas)[0, 0]
    assert at_five == pytest.approx(expected, rel=1e-12)


def test_likelihood_vectorized_nonnegative_finite():
    meas = MeasurementModel()
    rng = np.random.default_rng(3)
    states = rng.uniform(-200, 200, size=(500, 4))
    vals = likelihood(np.array([[0.0, 0.0]]), states[:, 0], states[:, 2], meas)
    assert vals.shape == (1, 500)
    assert np.all(vals >= 0) and np.all(np.isfinite(vals))


def _reference_likelihood(z, states, meas):
    """The plain row-by-row formulation, `exp` called on every pair; the
    module's kernel must reproduce it bit for bit."""
    norm = 1.0 / (2.0 * math.pi * meas.sigma_w1 * meas.sigma_w2)
    out = np.empty((len(z), len(states)))
    for row, (zx, zy) in zip(out, z):
        dx = (zx - states[:, 0]) / meas.sigma_w1
        dy = (zy - states[:, 2]) / meas.sigma_w2
        np.exp(-0.5 * (dx * dx + dy * dy), out=row)
        row *= norm
    return out


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 200),
    m=st.integers(0, 30),
    sigma=st.tuples(st.floats(0.1, 50.0), st.floats(0.1, 50.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_likelihood_matches_row_by_row_reference(n, m, sigma, seed):
    # Normalised distances r = |z - x| / sigma, spread so that the exponent
    # -r^2/2 straddles EXP_ZERO_BELOW (r about 38.7), the subnormal range
    # (r from 37.6 to 38.6) and the point where exp underflows to 0 (r 38.6).
    rng = np.random.default_rng(seed)
    meas = MeasurementModel(sigma_w1=sigma[0], sigma_w2=sigma[1])
    states = rng.normal(size=(n, 4)) * 10.0
    z = rng.normal(size=(m, 2)) * 10.0
    if n and m:
        near = rng.random(m) < 0.5
        r = np.where(near, rng.uniform(37.0, 39.5, size=m), rng.uniform(0.0, 45.0, size=m))
        angle = rng.uniform(0, 2 * np.pi, size=m)
        picked = states[rng.integers(0, n, size=m)]
        z[:, 0] = picked[:, 0] + r * np.cos(angle) * sigma[0]
        z[:, 1] = picked[:, 2] + r * np.sin(angle) * sigma[1]
    got = likelihood(z, states[:, 0], states[:, 2], meas)
    want = _reference_likelihood(z, states, meas)
    assert got.shape == (m, n)
    assert np.array_equal(got, want)


def test_likelihood_is_exactly_zero_where_the_exponent_overflows():
    # Scan points about 1e156 sigma from a particle: (dx / sigma)^2
    # overflows, the exponent is -inf and the likelihood the exact 0.0.  The
    # suite turns the overflow warning numpy would raise into an error.
    meas = MeasurementModel(sigma_w1=0.001, sigma_w2=0.001)
    states = np.array([[0.0, 1.0, 0.0, -1.0], [1e153, 0.0, 0.0, 0.0]])
    z = np.array([[1e153, 0.0], [0.001, 0.0]])
    got = likelihood(z, states[:, 0], states[:, 2], meas)
    assert got[0, 0] == 0.0 and got[1, 1] == 0.0
    assert got[0, 1] == meas.norm()
    with np.errstate(over="ignore"):
        assert np.array_equal(got, _reference_likelihood(z, states, meas))


def test_exp_is_exactly_zero_below_threshold():
    # The kernel writes 0.0 instead of calling exp below EXP_ZERO_BELOW;
    # that is only sound if exp itself returns exactly 0.0 there.
    grid = np.linspace(-2000.0, EXP_ZERO_BELOW, 1_000_001)
    assert grid[-1] == EXP_ZERO_BELOW
    assert np.all(np.exp(grid) == 0.0)
    assert np.all(np.exp(np.nextafter(grid, -np.inf)) == 0.0)
    assert np.exp(-np.inf) == 0.0
    # The smallest subnormal is still reached well above the threshold.
    assert np.exp(-745.0) > 0.0


# Likelihood peaks 1 / (2 pi sigma1 sigma2) from 6e-5 to 64, both sides of 1.
@pytest.mark.parametrize("sigma", [(50.0, 50.0), (2.5, 2.5), (0.4, 0.4), (0.1, 0.1), (0.05, 0.05)])
def test_subnormal_cut_bounds_every_dropped_likelihood(sigma):
    # `update` certifies a row by the bound g_max on every likelihood that
    # the cut drops; that is only sound if norm * exp(arg) stays at or
    # below it for every exponent below the cut.
    meas = MeasurementModel(sigma_w1=sigma[0], sigma_w2=sigma[1])
    norm = meas.norm()
    cut, g_max = meas.subnormal_cut()
    tiny = 2.0**-1022
    assert cut == pytest.approx(max(math.log(tiny), math.log(tiny) - math.log(norm)), rel=1e-15)
    grid = np.linspace(cut - 40.0, cut, 1_000_001)
    assert grid[-1] == cut
    below = np.append(grid[:-1], np.nextafter(cut, -np.inf))
    assert np.all(norm * np.exp(below) <= g_max)
    # The cut drops no more than it must: at the cut itself both exp's
    # result and the likelihood are normal.
    assert np.exp(cut) >= tiny and norm * np.exp(cut) >= tiny


@pytest.mark.parametrize("sigma", [(2.5, 2.5), (0.1, 0.1)])
def test_likelihood_per_row_cut_drops_only_pairs_below_it(sigma):
    meas = MeasurementModel(sigma_w1=sigma[0], sigma_w2=sigma[1])
    cut, _ = meas.subnormal_cut()
    rng = np.random.default_rng(5)
    states = rng.uniform(-100, 100, size=(300, 4))
    # Scan points 36 to 40 sigma from a particle: the exponents straddle
    # the cut and EXP_ZERO_BELOW.
    r = rng.uniform(36.0, 40.0, size=40)
    angle = rng.uniform(0, 2 * np.pi, size=40)
    picked = states[rng.integers(0, 300, size=40)]
    z = np.column_stack(
        [
            picked[:, 0] + r * np.cos(angle) * sigma[0],
            picked[:, 2] + r * np.sin(angle) * sigma[1],
        ]
    )
    certified = np.arange(40) % 2 == 0
    cuts = np.where(certified, cut, EXP_ZERO_BELOW)
    default = likelihood(z, states[:, 0], states[:, 2], meas)
    got = likelihood(z, states[:, 0], states[:, 2], meas, cuts)
    assert np.array_equal(got[~certified], default[~certified])
    dx = (z[:, :1] - states[:, 0]) / sigma[0]
    dy = (z[:, 1:] - states[:, 2]) / sigma[1]
    arg = (dx * dx + dy * dy) * -0.5
    dropped = certified[:, None] & (arg < cut)
    assert np.all(got[dropped] == 0.0)
    assert np.array_equal(got[~dropped], default[~dropped])
    # The cut did drop nonzero likelihoods.
    assert np.any(default[dropped] > 0.0)


def test_clutter_intensity_values():
    clutter = ClutterModel(rate=10.0, region=(-100, 100, -100, 100))
    z = np.array([[0.0, 0.0], [99.0, -99.0], [100.0, -100.0], [200.0, 0.0], [0.0, -100.5]])
    kappa = clutter_intensity(z, clutter)
    assert kappa.shape == (5,)
    assert np.array_equal(kappa, [10.0 / 200**2] * 3 + [0.0, 0.0])
    assert clutter_intensity(np.empty((0, 2)), clutter).shape == (0,)


def test_clutter_sample_poisson_moments():
    clutter = ClutterModel(rate=10.0, region=(-100, 100, -100, 100))
    rng = np.random.default_rng(11)
    counts = np.array([len(clutter_sample(clutter, rng)) for _ in range(10_000)])
    assert abs(counts.mean() - 10.0) <= 0.02 * 10.0
    assert abs(counts.var() - 10.0) <= 0.05 * 10.0
    pts = clutter_sample(clutter, rng)
    assert np.all(pts[:, 0] >= -100) and np.all(pts[:, 0] <= 100)
    assert np.all(pts[:, 1] >= -100) and np.all(pts[:, 1] <= 100)


def test_measure_is_position_plus_noise():
    meas = MeasurementModel(sigma_w1=2.5, sigma_w2=2.5)
    rng = np.random.default_rng(13)
    state = np.array([[5.0, 1.0, -7.0, 2.0]])
    zs = np.array([measure(state, meas, rng)[0] for _ in range(20_000)])
    assert np.allclose(zs.mean(axis=0), [5.0, -7.0], atol=0.06)
    assert np.allclose(zs.std(axis=0), [2.5, 2.5], rtol=0.03)


def test_birth_sample_moments():
    birth = BirthModel()
    rng = np.random.default_rng(17)
    draws = birth_sample(birth, rng, 50_000)
    assert np.allclose(draws.mean(axis=0), np.array(birth.mean), atol=0.06)
    assert np.allclose(draws.var(axis=0), birth.cov_diag, rtol=0.05)


def test_model_validation():
    with pytest.raises(ValueError):
        MotionModel(sampling_interval=0.0)
    with pytest.raises(ValueError):
        MeasurementModel(sigma_w1=-1.0)
    with pytest.raises(ValueError):
        BirthModel(cov_diag=(10, 0, 10, 1))
    with pytest.raises(ValueError):
        ClutterModel(region=(0, 0, -1, 1))
    with pytest.raises(ValueError):
        DetectionModel(p_detect=1.5)
