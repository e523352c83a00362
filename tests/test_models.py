import math

import numpy as np
import pytest
from scipy import stats

from smcphd.models import (
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
    # A single (4,) state must not broadcast into a batch by accident.
    rng = np.random.default_rng(0)
    meas = MeasurementModel()
    with pytest.raises(ValueError, match=r"\(n, 4\)"):
        propagate(np.zeros(4), MotionModel(), rng)
    with pytest.raises(ValueError, match=r"\(n, 4\)"):
        measure(np.zeros(4), meas, rng)
    with pytest.raises(ValueError, match=r"\(n, 4\)"):
        likelihood(np.zeros((1, 2)), np.zeros(4), meas)
    with pytest.raises(ValueError, match=r"\(m, 2\)"):
        likelihood(np.zeros(2), np.zeros((1, 4)), meas)


def test_likelihood_examples():
    meas = MeasurementModel(sigma_w1=2.5, sigma_w2=2.5)
    x = np.array([[0.0, 1.0, 0.0, -1.0]])
    mode = 1.0 / (2 * math.pi * 2.5 * 2.5)
    assert likelihood(np.array([[0.0, 0.0]]), x, meas)[0, 0] == pytest.approx(mode, rel=1e-12)
    one_sigma = likelihood(np.array([[2.5, 0.0]]), x, meas)[0, 0]
    assert one_sigma == pytest.approx(mode * math.exp(-0.5), rel=1e-12)
    expected = stats.norm.pdf(5.0, 0.0, 2.5) ** 2
    at_five = likelihood(np.array([[5.0, 5.0]]), x, meas)[0, 0]
    assert at_five == pytest.approx(expected, rel=1e-12)


def test_likelihood_vectorized_nonnegative_finite():
    meas = MeasurementModel()
    rng = np.random.default_rng(3)
    states = rng.uniform(-200, 200, size=(500, 4))
    vals = likelihood(np.array([[0.0, 0.0]]), states, meas)
    assert vals.shape == (1, 500)
    assert np.all(vals >= 0) and np.all(np.isfinite(vals))


def test_clutter_intensity_values():
    clutter = ClutterModel(rate=10.0, region=(-100, 100, -100, 100))
    assert clutter_intensity(np.array([0.0, 0.0]), clutter) == pytest.approx(
        10.0 / 200**2, rel=1e-12
    )
    assert clutter_intensity(np.array([99.0, -99.0]), clutter) == pytest.approx(
        2.5e-4, rel=1e-12
    )
    assert clutter_intensity(np.array([200.0, 0.0]), clutter) == 0.0


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
