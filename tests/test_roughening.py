import math
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smcphd.filter import FilterConfig, predict
from smcphd.models import MeasurementModel, ModelSet, MotionModel, propagate
from smcphd.particles import ParticleSet, empty_set
from smcphd.roughening import (
    RougheningConfig,
    direct_motion,
    effective_jitter,
    separate_roughen,
    unique_ancestor_fraction,
    velocity_jitter,
)

MOTION = MotionModel(sampling_interval=1.0, sigma_v1=1.0, sigma_v2=0.1)
MEAS = MeasurementModel(sigma_w1=2.5, sigma_w2=2.5)


def _cloud(n, rng, ancestry=None):
    return ParticleSet(
        states=rng.normal(size=(n, 4)),
        weights=np.full(n, 2.0 / n),
        ancestry=ancestry,
    )


def _gordon_jitter(constant, spread, count, **options):
    """Uncapped `effective_jitter` of `count` particles spanning `spread`."""
    states = np.outer(np.linspace(0.0, 1.0, count), np.broadcast_to(spread, 4))
    cfg = RougheningConfig(
        mode="separate", gordon_constant=constant, cap_to_measurement=False, **options
    )
    return effective_jitter(ParticleSet(states, np.ones(count)), cfg, MOTION, MEAS)


def test_gordon_std_values():
    assert np.all(_gordon_jitter(0.0, [3.0, 5.0, 1.0, 2.0], 50) == 0.0)
    val = _gordon_jitter(0.2, 10.0, 100)
    assert np.all(val == 0.2 * 10.0 * 100.0 ** (-1.0 / 4))
    assert float(val[0]) == pytest.approx(2.0 / math.sqrt(10.0), rel=1e-12)
    # One particle spans nothing, and an empty set counts as N = 1.
    assert np.all(_gordon_jitter(0.3, 7.0, 1) == 0.0)
    assert np.all(_gordon_jitter(0.3, 7.0, 0) == 0.0)


def test_gordon_std_shrinks_with_population():
    # The bandwidth must shrink as the particle count grows; the positive
    # exponent variant grows instead.
    small = _gordon_jitter(0.2, 10.0, 100)
    large = _gordon_jitter(0.2, 10.0, 10_000)
    assert np.all(large < small)
    assert np.all(_gordon_jitter(0.2, 10.0, 10_000, gordon_positive_exponent=True) > small)
    assert np.all(large == 0.2 * 10.0 * 10_000.0 ** (-1.0 / 4))


def test_zero_jitter_is_bitwise_noop_and_consumes_no_draws():
    rng = np.random.default_rng(21)
    pset = _cloud(500, rng, ancestry=np.zeros(500, dtype=np.intp))
    cfg = RougheningConfig(mode="separate", jitter_std=0.0)
    probe_a = np.random.default_rng(99)
    out = separate_roughen(pset, cfg, MOTION, MEAS, probe_a)
    assert out is pset
    probe_b = np.random.default_rng(99)
    assert probe_a.random() == probe_b.random()


@pytest.mark.parametrize(
    "guard",
    [
        {"jitter_std": 0.4},
        {"jitter_std": 0.4, "overlapped_only": True},
        {"jitter_std": 0.4, "selective_threshold": 0.5},
        {"gordon_constant": 0.2},
    ],
)
def test_empty_resampled_set_is_returned_untouched(guard):
    empty = ParticleSet(
        states=np.empty((0, 4)), weights=np.empty(0), ancestry=np.empty(0, dtype=np.intp)
    )
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    out = separate_roughen(empty, RougheningConfig(mode="separate", **guard), MOTION, MEAS, rng)
    assert out is empty
    assert rng.bit_generator.state == before


def test_jitter_moments_and_untouched_positions():
    rng = np.random.default_rng(22)
    n = 100_000
    pset = ParticleSet(
        states=np.tile([1.0, -2.0, 3.0, 4.0], (n, 1)),
        weights=np.full(n, 1e-3),
    )
    cfg = RougheningConfig(mode="separate", jitter_std=velocity_jitter(0.4))
    out = separate_roughen(pset, cfg, MOTION, MEAS, rng)
    assert np.array_equal(out.states[:, [0, 2]], pset.states[:, [0, 2]])
    assert np.array_equal(out.weights, pset.weights)  # weights never modified
    dv = out.states[:, [1, 3]] - pset.states[:, [1, 3]]
    assert np.all(np.abs(dv.mean(axis=0)) <= 0.005)
    assert np.all(np.abs(dv.std(axis=0) - 0.4) <= 0.004)


def test_overlapped_only_targets_shared_ancestors():
    rng = np.random.default_rng(23)
    pset = _cloud(4, rng, ancestry=np.array([0, 0, 1, 2]))
    cfg = RougheningConfig(
        mode="separate", jitter_std=velocity_jitter(0.4), overlapped_only=True
    )
    out = separate_roughen(pset, cfg, MOTION, MEAS, np.random.default_rng(1))
    assert not np.array_equal(out.states[0], pset.states[0])
    assert not np.array_equal(out.states[1], pset.states[1])
    assert np.array_equal(out.states[2], pset.states[2])
    assert np.array_equal(out.states[3], pset.states[3])


def test_selective_threshold_skips_diverse_populations():
    rng = np.random.default_rng(24)
    diverse = _cloud(8, rng, ancestry=np.arange(8))
    impoverished = _cloud(8, rng, ancestry=np.array([0, 0, 0, 0, 1, 1, 2, 3]))
    assert unique_ancestor_fraction(diverse) == 1.0
    assert unique_ancestor_fraction(impoverished) == 0.5
    cfg = RougheningConfig(
        mode="separate", jitter_std=velocity_jitter(0.4), selective_threshold=0.6
    )
    assert separate_roughen(diverse, cfg, MOTION, MEAS, np.random.default_rng(2)) is diverse
    out = separate_roughen(impoverished, cfg, MOTION, MEAS, np.random.default_rng(2))
    assert not np.array_equal(out.states, impoverished.states)


def test_measurement_cap_clamps_projected_jitter():
    rng = np.random.default_rng(25)
    pset = _cloud(10, rng)
    cfg = RougheningConfig(mode="separate", jitter_std=np.array([9.0, 9.0, 9.0, 9.0]))
    jitter = effective_jitter(pset, cfg, MOTION, MEAS)
    t = MOTION.sampling_interval
    assert np.all(t * jitter[[1, 3]] <= MEAS.min_std())
    assert np.all(jitter[[0, 2]] <= MEAS.min_std())
    uncapped = RougheningConfig(
        mode="separate", jitter_std=np.array([9.0, 9.0, 9.0, 9.0]), cap_to_measurement=False
    )
    assert np.all(effective_jitter(pset, uncapped, MOTION, MEAS) == 9.0)


def test_measurement_cap_with_subnormal_interval_is_silent():
    # With T = 5e-324 the velocity bound min_std / T overflows to inf, which
    # caps nothing; the overflow is not worth a warning.
    motion = MotionModel(sampling_interval=5e-324)
    cfg = RougheningConfig(mode="separate", jitter_std=velocity_jitter(0.4))
    pset = _cloud(10, np.random.default_rng(27))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jitter = effective_jitter(pset, cfg, motion, MEAS)
    assert np.array_equal(jitter, velocity_jitter(0.4))


def test_gordon_auto_uses_population_spread():
    rng = np.random.default_rng(26)
    pset = _cloud(100, rng)
    cfg = RougheningConfig(mode="separate", gordon_constant=0.2, cap_to_measurement=False)
    jitter = effective_jitter(pset, cfg, MOTION, MEAS)
    expected = 0.2 * (pset.states.max(0) - pset.states.min(0)) * 100 ** (-0.25)
    assert np.array_equal(jitter, expected)


def test_direct_scale_values():
    cfg = RougheningConfig(mode="direct", jitter_std=velocity_jitter(0.4))
    combined = direct_motion(empty_set(), cfg, MOTION, MEAS).noise_stds()
    assert combined[0] == pytest.approx(math.sqrt(1.16), rel=1e-12)
    assert combined[1] == pytest.approx(math.sqrt(0.17), rel=1e-12)


def test_direct_scale_zero_jitter_is_exact_identity():
    cfg = RougheningConfig(mode="direct", jitter_std=0.0)
    combined = direct_motion(empty_set(), cfg, MOTION, MEAS).noise_stds()
    assert np.array_equal(combined, MOTION.noise_stds())  # bitwise


def test_direct_noise_with_zero_model_noise_is_the_jitter():
    motion = MotionModel(sigma_v1=0.0, sigma_v2=0.1)
    cfg = RougheningConfig(mode="direct", jitter_std=velocity_jitter(0.4))
    combined = direct_motion(empty_set(), cfg, motion, MEAS).noise_stds()
    assert combined[0] == pytest.approx(0.4, rel=1e-12)  # absolute std still defined


# Every finite std, subnormals included, up to 2^1023: the root sum of
# squares of two of them, at most 2^1023 sqrt(2), is still finite.
_STDS = st.floats(0.0, 2.0**1023)


@settings(max_examples=300, deadline=None)
@given(sigma_v1=_STDS, sigma_v2=_STDS, delta=_STDS)
@example(sigma_v1=5e-324, sigma_v2=2.0**1023, delta=2.0**1023)
def test_direct_noise_has_the_bits_of_the_root_sum_of_squares(sigma_v1, sigma_v2, delta):
    # The std is np.hypot, within one ulp of Python's math.hypot.
    motion = MotionModel(sampling_interval=1.0, sigma_v1=sigma_v1, sigma_v2=sigma_v2)
    cfg = RougheningConfig(
        mode="direct", jitter_std=velocity_jitter(delta), cap_to_measurement=False
    )
    combined = direct_motion(empty_set(), cfg, motion, MEAS).noise_stds()
    for std, sigma_v in zip(combined, (sigma_v1, sigma_v2)):
        exact = math.hypot(sigma_v, delta)
        assert abs(std - exact) <= math.ulp(exact)


def test_mode_equivalence_velocity_moments():
    # Jitter-then-propagate vs. propagate-with-combined-noise must agree in
    # the velocity moments after one step (the jitter enters position with
    # different gains, so only the velocity components are comparable).
    n = 100_000
    delta = 0.4
    base = ParticleSet(states=np.tile([0.0, 1.0, 0.0, -1.0], (n, 1)), weights=np.full(n, 1e-3))
    sep_cfg = RougheningConfig(mode="separate", jitter_std=velocity_jitter(delta))
    jittered = separate_roughen(base, sep_cfg, MOTION, MEAS, np.random.default_rng(31))
    sep_out = propagate(jittered.states, MOTION, np.random.default_rng(32))
    dir_cfg = RougheningConfig(mode="direct", jitter_std=velocity_jitter(delta))
    dir_motion = direct_motion(base, dir_cfg, MOTION, MEAS)
    dir_out = propagate(base.states, dir_motion, np.random.default_rng(33))
    for axis in (1, 3):
        s_sep = sep_out[:, axis].std()
        s_dir = dir_out[:, axis].std()
        assert abs(s_sep - s_dir) <= 0.01 * s_dir
        sigma = MOTION.sigma_v1 if axis == 1 else MOTION.sigma_v2
        expected = math.sqrt(sigma**2 + delta**2) * MOTION.sampling_interval
        assert abs(s_dir - expected) <= 0.01 * expected


def test_config_validation():
    with pytest.raises(ValueError):
        RougheningConfig(mode="separate")  # needs jitter_std or gordon_constant
    with pytest.raises(ValueError):
        RougheningConfig(mode="separate", jitter_std=0.4, gordon_constant=0.1)
    with pytest.raises(ValueError, match="^gordon_constant"):
        RougheningConfig(mode="separate", gordon_constant=-0.1)
    with pytest.raises(ValueError, match="^gordon_dimension must be >= 1"):
        RougheningConfig(mode="separate", gordon_constant=0.1, gordon_dimension=0)
    # The Gordon options need the constant whether built here or from a file.
    with pytest.raises(ValueError, match="^gordon_constant is required"):
        RougheningConfig(mode="separate", jitter_std=0.4, gordon_dimension=3)
    with pytest.raises(ValueError, match="^gordon_constant is required"):
        RougheningConfig(mode="none", gordon_positive_exponent=True)
    with pytest.raises(ValueError):
        RougheningConfig(mode="direct", jitter_std=0.4, overlapped_only=True)
    with pytest.raises(ValueError):
        RougheningConfig(mode="separate", jitter_std=-0.1)
    with pytest.raises(ValueError):
        RougheningConfig(mode="jitterbug")
    with pytest.raises(ValueError, match="^jitter_std: "):
        RougheningConfig(mode="direct", jitter_std=[1, 0, 0, 0])


def test_configs_compare_and_hash_by_value():
    a = RougheningConfig(mode="separate", jitter_std=0.4)
    b = RougheningConfig(mode="separate", jitter_std=np.array([0.0, 0.4, 0.0, 0.4]))
    assert a == b and hash(a) == hash(b)
    assert a.jitter_std == (0.0, 0.4, 0.0, 0.4)
    assert a != replace(a, overlapped_only=True)
    with pytest.raises(FrozenInstanceError):
        a.jitter_std = None


@pytest.mark.parametrize(
    "kwargs, inert",
    [
        ({"mode": "none"}, True),
        ({"mode": "none", "jitter_std": 0.4}, True),
        ({"mode": "separate", "jitter_std": 0.0}, True),
        ({"mode": "direct", "jitter_std": [0.0, -0.0, 0.0, 0.0]}, True),
        ({"mode": "separate", "jitter_std": [0.0, 0.0, 1e-300, 0.0]}, False),
        ({"mode": "direct", "jitter_std": 0.4}, False),
        # 0 times an infinite spread is NaN, so K = 0 is not a no-op.
        ({"mode": "separate", "gordon_constant": 0.0}, False),
    ],
)
def test_inert_configs_are_exactly_the_no_op_ones(kwargs, inert):
    assert RougheningConfig(**kwargs).inert is inert


def test_roughening_preserves_mass_exactly():
    rng = np.random.default_rng(28)
    pset = _cloud(1000, rng)
    cfg = RougheningConfig(mode="separate", jitter_std=velocity_jitter(0.4))
    out = separate_roughen(pset, cfg, MOTION, MEAS, rng)
    assert out.total_weight() == pset.total_weight()


def test_direct_mode_with_adaptive_bandwidth_runs():
    rng = np.random.default_rng(29)
    pset = _cloud(200, rng)
    cfg = RougheningConfig(mode="direct", gordon_constant=0.2, cap_to_measurement=False)
    combined = direct_motion(pset, cfg, MOTION, MEAS).noise_stds()
    spread = pset.states.max(0) - pset.states.min(0)
    channel = 0.2 * spread[[1, 3]] * 200 ** (-0.25) / MOTION.sampling_interval
    # Position spread is dropped: only the velocity bandwidth enters the noise.
    expected = np.sqrt(MOTION.noise_stds() ** 2 + channel**2)
    assert np.allclose(combined, expected, rtol=1e-12)


_SIGMA_V = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
_SIGMA_W = st.floats(1e-3, 100.0)
_UNIT_MODELS = {"interval": 1.0, "sigma_w": (1.0, 1.0)}


@settings(max_examples=100, deadline=None)
@given(
    interval=st.floats(0.0, 5.0, exclude_min=True),
    sigma_v=st.tuples(_SIGMA_V, _SIGMA_V),
    sigma_w=st.tuples(_SIGMA_W, _SIGMA_W),
    n=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
    gordon=st.booleans(),
    cap=st.booleans(),
)
# The smallest subnormal and normal stds, zero, and a std near the largest
# double; no particles there, whose noise would overflow to inf.
@example(sigma_v=(0.0, 5e-324), n=4, seed=0, gordon=False, cap=True, **_UNIT_MODELS)
@example(sigma_v=(5e-324, 0.0), n=4, seed=1, gordon=True, cap=False, **_UNIT_MODELS)
@example(sigma_v=(2.0**-1022, 5e-324), n=4, seed=2, gordon=False, cap=False, **_UNIT_MODELS)
@example(sigma_v=(1e308, 2.0**-1022), n=0, seed=3, gordon=False, cap=True, **_UNIT_MODELS)
@example(sigma_v=(0.0, 1e308), n=0, seed=4, gordon=True, cap=True, **_UNIT_MODELS)
def test_zero_jitter_keeps_the_model_bit_for_bit(interval, sigma_v, sigma_w, n, seed, gordon, cap):
    motion = MotionModel(interval, *sigma_v)
    meas = MeasurementModel(*sigma_w)
    rng = np.random.default_rng(seed)
    pset = ParticleSet(
        states=rng.normal(size=(n, 4)) * [50.0, 2.0, 50.0, 2.0],
        weights=rng.uniform(0.0, 0.1, n),
        ancestry=rng.integers(0, max(n, 1), n),
    )
    zero = {"gordon_constant": 0.0} if gordon else {"jitter_std": 0.0}

    direct_cfg = RougheningConfig("direct", cap_to_measurement=cap, **zero)
    direct = direct_motion(pset, direct_cfg, motion, meas)
    assert direct.noise_stds().tobytes() == motion.noise_stds().tobytes()
    models = ModelSet(motion=motion, measurement=meas)
    plain = predict(pset, models, FilterConfig(), np.random.default_rng(seed))
    rough = predict(pset, replace(models, motion=direct), FilterConfig(), np.random.default_rng(seed))
    assert np.array_equal(plain.states, rough.states)
    assert np.array_equal(plain.weights, rough.weights)

    separate = RougheningConfig("separate", cap_to_measurement=cap, **zero)
    probe = np.random.default_rng(seed)
    assert separate_roughen(pset, separate, motion, meas, probe) is pset
    assert probe.random() == np.random.default_rng(seed).random()  # nothing drawn
