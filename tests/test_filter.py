import contextlib
import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import smcphd.filter
import smcphd.models
import smcphd.particles
from oracles import measurement_mass_terms
from smcphd.filter import FilterConfig, _exp_cuts, predict, update
from smcphd.models import (
    EXP_ZERO_BELOW,
    BirthModel,
    ClutterModel,
    DetectionModel,
    MeasurementModel,
    ModelSet,
    MotionModel,
    clutter_intensity,
    likelihood,
    propagate,
)
from smcphd.particles import MAX_PARTICLES, WEIGHT_FLOOR, ParticleSet, empty_set, round_half_up
from smcphd.resampling import target_count
from smcphd.roughening import RougheningConfig, direct_motion, velocity_jitter


def _row_blocks(rows, n):
    """Make `update` reweight the scan of a set of `n` particles `rows` rows
    at a time (one row for n <= 1); None keeps the module's block size."""
    if rows is None:
        return contextlib.nullcontext()
    return mock.patch.object(smcphd.filter, "_BLOCK_DOUBLES", rows * n)


def _models(**overrides):
    base = dict(
        motion=MotionModel(sigma_v1=1.0, sigma_v2=0.1),
        measurement=MeasurementModel(sigma_w1=2.5, sigma_w2=2.5),
        birth=BirthModel(mass=0.2),
        clutter=ClutterModel(rate=10.0, region=(-100, 100, -100, 100)),
        detection=DetectionModel(p_survive=0.95, p_detect=0.95),
    )
    base.update(overrides)
    return ModelSet(**base)


def _config():
    return FilterConfig(particles_per_target=200)


def test_predict_survivor_weights_are_exact_products():
    rng = np.random.default_rng(0)
    prev = ParticleSet(states=rng.normal(size=(50, 4)), weights=rng.uniform(0, 0.1, 50))
    out = predict(prev, _models(), _config(), np.random.default_rng(1))
    assert len(out) == 50 + 40  # survivors first, then round(0.2 * 200) births
    assert np.array_equal(out.weights[:50], 0.95 * prev.weights)
    single = ParticleSet(states=np.zeros((1, 4)), weights=[0.04])
    out = predict(single, _models(), _config(), np.random.default_rng(2))
    assert out.weights[0] == 0.95 * 0.04


def test_predict_birth_mass_and_weights():
    out = predict(empty_set(), _models(), _config(), np.random.default_rng(3))
    assert len(out) == 40  # round(0.2 * 200)
    assert np.all(out.weights == 0.2 / 40)
    assert math.fsum(out.weights.tolist()) == 0.2


def test_predict_survivor_mass_exact_for_dyadic_weights():
    # Power-of-two weights make the per-particle products exact, so the
    # survivor-mass identity holds with zero tolerance.
    weights = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125])
    prev = ParticleSet(states=np.zeros((5, 4)), weights=weights)
    models = _models(birth=BirthModel(mass=0.0))
    out = predict(prev, models, _config(), np.random.default_rng(4))
    assert math.fsum(out.weights.tolist()) == 0.95 * math.fsum(weights.tolist())


def test_predict_zero_survival_and_no_births():
    models = _models(birth=BirthModel(mass=0.0), detection=DetectionModel(p_survive=0.0))
    rng = np.random.default_rng(5)
    prev = ParticleSet(states=rng.normal(size=(10, 4)), weights=np.full(10, 0.1))
    out = predict(prev, models, _config(), rng)
    assert out.total_weight() == 0.0
    assert len(out) == 10


def test_predict_empty_input_zero_birth_gives_empty_output():
    models = _models(birth=BirthModel(mass=0.0))
    out = predict(empty_set(), models, _config(), np.random.default_rng(6))
    assert len(out) == 0


def test_predict_flushes_weights_below_the_floor():
    # Survivors: 0.95 * 1e-300 falls under the floor, 0.95 * 2e-300 does
    # not.  Births: 1e-308 over 400 particles is about 2.5e-311 each.
    models = _models(birth=BirthModel(mass=1e-308))
    config = FilterConfig(particles_per_target=200, birth_particles=400)
    prev = ParticleSet(states=np.zeros((3, 4)), weights=[2e-300, 1e-300, 0.5])
    out = predict(prev, models, config, np.random.default_rng(7))
    assert len(out) == 3 + 400
    assert np.array_equal(out.weights[:3], [0.95 * 2e-300, 0.0, 0.95 * 0.5])
    assert np.all(out.weights[3:] == 0.0)
    assert np.array_equal(prev.weights, [2e-300, 1e-300, 0.5])


def test_predict_zero_birth_mass_adds_no_particle_and_draws_nothing():
    # A birth count set but no birth mass: the survivors alone, drawn from
    # the stream exactly as propagating them alone draws.
    models = _models(birth=BirthModel(mass=0.0))
    config = FilterConfig(particles_per_target=200, birth_particles=5)
    prev = ParticleSet(states=np.ones((3, 4)), weights=[0.1, 0.2, 0.3])
    rng, alone = np.random.default_rng(8), np.random.default_rng(8)
    out = predict(prev, models, config, rng)
    assert len(out) == 3
    assert np.array_equal(out.states, propagate(prev.states, models.motion, alone))
    assert rng.bit_generator.state == alone.bit_generator.state


def _direct_models(prev, roughening, models=None):
    """The models of a direct-roughening prediction from `prev`."""
    models = models or _models()
    motion = direct_motion(prev, roughening, models.motion, models.measurement)
    return replace(models, motion=motion)


def test_predict_direct_zero_jitter_bitwise_equals_basic():
    rng = np.random.default_rng(8)
    prev = ParticleSet(states=rng.normal(size=(30, 4)), weights=np.full(30, 0.05))
    basic = predict(prev, _models(), _config(), np.random.default_rng(9))
    direct0 = predict(
        prev,
        _direct_models(prev, RougheningConfig(mode="direct", jitter_std=0.0)),
        _config(),
        np.random.default_rng(9),
    )
    assert np.array_equal(basic.states, direct0.states)
    assert np.array_equal(basic.weights, direct0.weights)


def test_predict_direct_inflates_velocity_noise():
    n = 50_000
    prev = ParticleSet(states=np.zeros((n, 4)), weights=np.full(n, 1e-4))
    models = _models(birth=BirthModel(mass=0.0))
    direct = RougheningConfig(mode="direct", jitter_std=velocity_jitter(0.4))
    out = predict(prev, _direct_models(prev, direct, models), _config(), np.random.default_rng(10))
    expected = [math.sqrt(1.0 + 0.16), math.sqrt(0.01 + 0.16)]
    assert np.allclose(out.states[:, [1, 3]].std(axis=0), expected, rtol=0.01)


def test_update_identity_when_undetectable():
    rng = np.random.default_rng(11)
    pred = ParticleSet(states=rng.normal(size=(20, 4)), weights=rng.uniform(0, 1, 20))
    models = _models(detection=DetectionModel(p_detect=0.0))
    out = update(pred, rng.uniform(-50, 50, (5, 2)), models)
    assert np.array_equal(out.weights, pred.weights)


def test_update_empty_scan_scales_by_missed_detection():
    rng = np.random.default_rng(12)
    pred = ParticleSet(states=rng.normal(size=(20, 4)), weights=rng.uniform(0, 1, 20))
    out = update(pred, np.empty((0, 2)), _models())
    assert np.allclose(out.weights, 0.05 * pred.weights, rtol=1e-15)


@pytest.mark.parametrize("p_detect", [0.95, 1.0])
@pytest.mark.parametrize("scan", [np.empty((0, 2)), [[0.0, 0.0], [5.0, -5.0], [500.0, 0.0]]])
def test_update_of_an_empty_set_is_empty(p_detect, scan):
    # Whole scans, then blocks of 2 rows with a short last one.
    models = _models(detection=DetectionModel(p_detect=p_detect))
    for block in (None, 2):
        with _row_blocks(block, 0):
            out = update(empty_set(), scan, models)
        assert out.states.shape == (0, 4) and out.weights.shape == (0,)


def test_exp_cuts_keep_every_term_without_clutter_or_at_certain_detection():
    # A row cuts its subnormal likelihoods only when its clutter outweighs
    # them both in the missed-detection mass 1 - p_D and in the support.
    cut, _ = _models().measurement.subnormal_cut()
    kappa = np.array([0.0, 25.0])
    for weights in (np.full(10, 0.1), np.empty(0)):
        assert _exp_cuts(kappa, weights, _models()).tolist() == [EXP_ZERO_BELOW, cut]
        certain = _models(detection=DetectionModel(p_detect=1.0))
        assert _exp_cuts(kappa, weights, certain).tolist() == [EXP_ZERO_BELOW] * 2


def test_update_single_particle_hand_computed():
    # Arrange g(z|x) = 0.1 exactly at the likelihood mode by solving
    # 1/(2 pi s^2) = 0.1, with clutter intensity 10/200^2 = 2.5e-4.
    sigma = math.sqrt(1.0 / (0.2 * math.pi))
    models = _models(measurement=MeasurementModel(sigma_w1=sigma, sigma_w2=sigma))
    pred = ParticleSet(states=np.zeros((1, 4)), weights=[1.0])
    out = update(pred, np.zeros((1, 2)), models)
    g = 0.1
    c = 0.95 * g * 1.0
    expected = (1 - 0.95 + 0.95 * g / (2.5e-4 + c)) * 1.0
    assert expected == pytest.approx(1.04737, rel=1e-5)  # cross-check the scalar path
    assert out.weights[0] == pytest.approx(expected, rel=1e-12)


def test_update_mass_decomposition_identity():
    rng = np.random.default_rng(13)
    models = _models()
    for _ in range(200):
        n = int(rng.integers(1, 300))
        pred = ParticleSet(
            states=rng.uniform(-80, 80, size=(n, 4)),
            weights=rng.uniform(0, 0.05, size=n),
        )
        scan = rng.uniform(-90, 90, size=(int(rng.integers(0, 10)), 2))
        post = update(pred, scan, models)
        terms = measurement_mass_terms(pred, scan, models)
        assert np.all(terms >= 0.0) and np.all(terms <= 1.0)
        expected = 0.05 * pred.total_weight() + math.fsum(terms)
        assert post.total_weight() == pytest.approx(expected, rel=1e-10)


def test_update_never_moves_particles():
    rng = np.random.default_rng(14)
    pred = ParticleSet(states=rng.normal(size=(40, 4)), weights=np.full(40, 0.02))
    before = pred.states.copy()
    out = update(pred, rng.uniform(-5, 5, (3, 2)), _models())
    assert np.array_equal(out.states, before)


def test_update_huge_clutter_discounts_measurements():
    # kappa -> infinity: the posterior mass tends to (1 - p_D) * prior mass.
    rng = np.random.default_rng(15)
    area = 200.0 * 200.0
    models = _models(clutter=ClutterModel(rate=1e12 * area, region=(-100, 100, -100, 100)))
    pred = ParticleSet(
        states=rng.uniform(-50, 50, size=(100, 4)), weights=rng.uniform(0, 0.05, 100)
    )
    scan = rng.uniform(-50, 50, size=(6, 2))
    out = update(pred, scan, models)
    assert out.total_weight() == pytest.approx(0.05 * pred.total_weight(), rel=1e-9)


def test_update_zero_denominator_contributes_nothing():
    # No clutter and a measurement with zero likelihood support under
    # far-away particles flushed to zero: the term is dropped, not a crash.
    models = _models(clutter=ClutterModel(rate=0.0, region=(-100, 100, -100, 100)))
    pred = ParticleSet(states=np.full((3, 4), 1e4), weights=np.full(3, 0.1))
    out = update(pred, np.array([[-1e4, -1e4]]), models)
    assert np.allclose(out.weights, 0.05 * pred.weights, rtol=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 300),
    m=st.integers(0, 60),
    p_detect=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    clutter_rate=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    birth_mass=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_update_over_model_space(n, m, p_detect, clutter_rate, birth_mass, seed):
    # Particles and measurements reach past the clutter region, where
    # kappa(z) = 0, so with no particle support a denominator is zero.
    rng = np.random.default_rng(seed)
    models = _models(
        birth=BirthModel(mass=birth_mass),
        clutter=ClutterModel(rate=clutter_rate, region=(-100, 100, -100, 100)),
        detection=DetectionModel(p_survive=0.95, p_detect=p_detect),
    )
    prev = ParticleSet(
        states=rng.uniform(-150, 150, size=(n, 4)), weights=rng.uniform(0, 0.05, size=n)
    )
    pred = predict(prev, models, FilterConfig(particles_per_target=50), rng)
    scan = rng.uniform(-150, 150, size=(m, 2))
    post = update(pred, scan, models)
    assert np.all(np.isfinite(post.weights)) and np.all(post.weights >= 0)
    px, py = pred.states[:, 0], pred.states[:, 2]
    g = likelihood(scan, px, py, models.measurement)
    assert g.shape == (m, len(pred))
    for i in range(m):
        row = likelihood(scan[i : i + 1], px, py, models.measurement)[0]
        assert np.array_equal(g[i], row)
    # Without clutter, a C(z) below the normal range is summed from
    # underflowed products and breaks the identity: a known fault, pinned
    # by test_update_mass_identity_when_support_underflows.
    kappa = clutter_intensity(scan, models.clutter)
    c = p_detect * (g @ pred.weights)
    if np.any((kappa == 0) & (c > 0) & (c < np.finfo(float).tiny)):
        return
    terms = measurement_mass_terms(pred, scan, models)
    expected = (1 - p_detect) * pred.total_weight() + math.fsum(terms)
    # Weights flushed below WEIGHT_FLOOR leave at most n * 1e-300 of mass.
    assert post.total_weight() == pytest.approx(expected, rel=1e-10, abs=1e-250)


# Reference implementation: the plain per-measurement loop, one kappa, C(z)
# and factor update at a time.  The module's whole-scan version must
# reproduce it bit for bit.


def _reference_support(pred, z, models):
    meas = models.measurement
    norm = 1.0 / (2.0 * math.pi * meas.sigma_w1 * meas.sigma_w2)
    out = []
    for zi in z:
        dx = (zi[0] - pred.states[:, 0]) / meas.sigma_w1
        dy = (zi[1] - pred.states[:, 2]) / meas.sigma_w2
        g = np.exp(-0.5 * (dx * dx + dy * dy)) * norm
        c_z = models.detection.p_detect * float(g @ pred.weights)
        xmin, xmax, ymin, ymax = models.clutter.region
        inside = xmin <= zi[0] <= xmax and ymin <= zi[1] <= ymax
        kappa = models.clutter.intensity_level() if inside else 0.0
        out.append((g, c_z, kappa + c_z))
    return out


def _reference_update_weights(pred, z, models):
    # A zero weight stays zero, and its terms are not formed: it has no share
    # in C(z), so p_D g / C(z) can overflow, and inf * 0 is NaN.
    p_d = models.detection.p_detect
    live = pred.weights > 0
    factor = np.full(len(pred), 1.0 - p_d)
    for g, _, denom in _reference_support(pred, z, models):
        if denom > 0:
            factor[live] = factor[live] + (p_d * g[live]) / denom
    new_weights = factor * pred.weights
    new_weights[new_weights < WEIGHT_FLOOR] = 0.0
    return new_weights


def _reference_mass_terms(pred, z, models):
    return np.array(
        [c_z / denom if denom > 0 else 0.0 for _, c_z, denom in _reference_support(pred, z, models)]
    )


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.integers(1, 3), st.integers(1, 120)),
    m=st.integers(0, 40),
    p_detect=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    clutter_rate=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    spread=st.sampled_from([1.0, 30.0, 100.0, 400.0]),
    zero_frac=st.sampled_from([0.0, 0.1, 0.5]),
    on_particles=st.integers(0, 5),
    block=st.sampled_from([None, 1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
# One particle and 16 measurements within 1 m of the origin: a column that a
# pairwise sum would add in another order.
@example(
    n=1, m=16, p_detect=0.95, clutter_rate=10.0, spread=1.0, zero_frac=0.0, on_particles=0,
    block=None, seed=0,
)
def test_update_matches_per_measurement_reference(
    n, m, p_detect, clutter_rate, spread, zero_frac, on_particles, block, seed
):
    # Spreads from 1 m to 400 m put the likelihoods anywhere from all normal
    # to all exactly zero, with subnormal supports in between, and a scan
    # reaching past the clutter region has no clutter there.  Scan points
    # placed on particles, some of them of zero weight, give rows with
    # nonzero likelihoods but a zero denominator.  Few particles exercise
    # the sum over a scan along a single column.  Blocks of 1, 2 and 3 rows,
    # most scans ending in a short one, carry the factor from block to block.
    rng = np.random.default_rng(seed)
    models = _models(
        clutter=ClutterModel(rate=clutter_rate, region=(-100, 100, -100, 100)),
        detection=DetectionModel(p_survive=0.95, p_detect=p_detect),
    )
    weights = rng.uniform(0, 0.05, size=n)
    weights[rng.random(n) < zero_frac] = 0.0
    pred = ParticleSet(states=rng.uniform(-1, 1, size=(n, 4)) * spread, weights=weights)
    scan = rng.uniform(-1, 1, size=(m, 2)) * rng.choice([spread, 150.0, 400.0])
    k = min(on_particles, m)
    scan[:k] = pred.states[rng.integers(0, n, size=k)][:, [0, 2]]
    with _row_blocks(block, n):
        post = update(pred, scan, models)
    assert np.array_equal(post.weights, _reference_update_weights(pred, scan, models))
    terms = measurement_mass_terms(pred, scan, models)
    assert np.array_equal(terms, _reference_mass_terms(pred, scan, models))


@pytest.mark.parametrize("scan", [np.zeros((3, 4)), np.zeros(2), np.zeros((1, 1, 2))])
def test_update_rejects_a_scan_that_is_not_m_by_2(scan):
    pred = ParticleSet(states=np.zeros((2, 4)), weights=[0.1, 0.2])
    with pytest.raises(ValueError, match=r"measurements must be an \(m, 2\) array"):
        update(pred, scan, _models())


@pytest.mark.parametrize("block", [None, 3, 8, 16])
@pytest.mark.parametrize("n", [0, 1])
def test_update_of_at_most_one_particle_sums_the_scan_in_order(n, block):
    # A 40-point scan near the particle, so every term is normal.  Here a
    # block of 8 or more rows would be one column, which numpy sums
    # pairwise, and that moves bits: the set takes one-row blocks instead.
    models = _models()
    pred = ParticleSet(states=np.tile([1.0, 0.5, -2.0, 0.1], (n, 1)), weights=np.full(n, 0.8))
    scan = np.array([1.0, -2.0]) + np.random.default_rng(0).normal(0, 2.5, size=(40, 2))
    with _row_blocks(block, n):
        post = update(pred, scan, models)
    assert np.array_equal(post.weights, _reference_update_weights(pred, scan, models))


def test_update_single_particle_sums_the_scan_in_order():
    # A lone particle with 16 measurements within a few sigma of it: every
    # term is normal, and summing the column pairwise instead of in scan
    # order moves bits.
    models = _models()
    pred = ParticleSet(states=np.array([[1.0, 0.5, -2.0, 0.1]]), weights=[0.8])
    scan = pred.states[0, [0, 2]] + np.random.default_rng(0).normal(0, 2.5, size=(16, 2))
    post = update(pred, scan, models)
    assert np.array_equal(post.weights, _reference_update_weights(pred, scan, models))


def test_update_zero_weight_particle_on_an_unsupported_measurement_stays_zero():
    # No clutter, and the scan point sits on a zero-weight particle 96 m
    # from the only weighted one: C(z) is subnormal, p_D g / C(z) overflows
    # for the zero-weight particle, and inf * 0 would be NaN.
    models = _models(clutter=ClutterModel(rate=0.0, region=(-100, 100, -100, 100)))
    pred = ParticleSet(states=[[0, 0, 0, 0], [96, 0, 0, 0]], weights=[0.0, 0.05])
    scan = np.array([[0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        post = update(pred, scan, models)
    alone = ParticleSet(states=pred.states[1:], weights=pred.weights[1:])
    assert post.weights[0] == 0.0
    assert np.array_equal(post.weights[1:], _reference_update_weights(alone, scan, models))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 120),
    m=st.integers(1, 40),
    p_detect=st.one_of(st.sampled_from([0.95, 1.0 - 2.0**-40, 1.0]), st.floats(0.0, 1.0)),
    clutter=st.one_of(
        st.none(),
        st.tuples(st.just("bound"), st.floats(-40.0, 8.0)),
        st.tuples(st.just("level"), st.floats(-20.0, 5.0)),
    ),
    sigma=st.tuples(st.floats(0.02, 3.0), st.floats(0.02, 3.0)),
    weight_scale=st.sampled_from([0.05, 1.0, 50.0]),
    zero_frac=st.sampled_from([0.0, 0.1, 0.5]),
    clustered=st.booleans(),
    at_cut=st.booleans(),
    block=st.sampled_from([None, 1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_update_matches_reference_at_the_subnormal_cut(
    n, m, p_detect, clutter, sigma, weight_scale, zero_frac, clustered, at_cut, block, seed
):
    # update drops a row's subnormal likelihoods only where kappa(z) bounds
    # every dropped term and the dropped support.  Clutter "bound" puts
    # kappa from 2^-40 to 2^8 times that bound, far enough below it to
    # catch a rule that drops terms which move bits; "level" gives kappa =
    # 2^x, and None no clutter.  Half the scan points lie 36 to 40 sigma
    # from a particle, where the likelihoods turn subnormal (37.6 to 38.6
    # sigma), or within 0.1 sigma past the cut, where the dropped terms
    # are largest; the rest reach past the clutter region, where kappa = 0.
    # A clustered cloud drops many particles in one row, which tests the
    # bound on the dropped support.  sigma1 * sigma2 < 1 / (2 pi) gives a
    # likelihood peak above 1, where the cut is set by exp alone.
    rng = np.random.default_rng(seed)
    measurement = MeasurementModel(sigma_w1=sigma[0], sigma_w2=sigma[1])
    cut, g_max = measurement.subnormal_cut()
    weights = rng.uniform(0, weight_scale, size=n)
    weights[rng.random(n) < zero_frac] = 0.0
    kappa = 0.0
    if clutter is not None:
        kind, x = clutter
        kappa = 2.0**x
        if kind == "bound":
            # p_D = 1 never drops a term; it takes the bound of the largest
            # p_D below 1.
            q = max(1.0 - p_detect, 2.0**-53)
            kappa *= 2.0**60 * p_detect * g_max * max(1.0 / q, n * weights.max())
    models = _models(
        measurement=measurement,
        clutter=ClutterModel(rate=kappa * 200.0 * 200.0, region=(-100, 100, -100, 100)),
        detection=DetectionModel(p_survive=0.95, p_detect=p_detect),
    )
    if clustered:
        states = rng.uniform(-50, 50, size=4) + rng.normal(size=(n, 4)) * 0.01 * min(sigma)
    else:
        states = rng.uniform(-150, 150, size=(n, 4))
    pred = ParticleSet(states=states, weights=weights)
    scan = rng.uniform(-150, 150, size=(m, 2))
    near = rng.random(m) < 0.5
    if at_cut:
        r = math.sqrt(-2.0 * cut) + rng.uniform(0.0, 0.1, size=m)
    else:
        r = rng.uniform(36.0, 40.0, size=m)
    angle = rng.uniform(0, 2 * np.pi, size=m)
    picked = states[rng.integers(0, n, size=m)]
    scan[near, 0] = (picked[:, 0] + r * np.cos(angle) * sigma[0])[near]
    scan[near, 1] = (picked[:, 2] + r * np.sin(angle) * sigma[1])[near]
    with _row_blocks(block, n):
        post = update(pred, scan, models)
    assert np.array_equal(post.weights, _reference_update_weights(pred, scan, models))


def test_update_keeps_the_denominator_of_a_row_dropping_a_whole_cloud():
    # 100 particles of weight 50 lie just past the cut from the scan point,
    # and one of weight 2^-980 sits on it.  Near kappa = 2^-10 of the
    # bound, the cloud's dropped support (about 100 * 50 * 2^-1023) would
    # show in kappa + C, and with it the lone particle's term p_D g / (kappa
    # + C): only the bound on the dropped support keeps these rows whole.
    measurement = MeasurementModel(sigma_w1=2.5, sigma_w2=2.5)
    cut, g_max = measurement.subnormal_cut()
    r = (math.sqrt(-2.0 * cut) + 0.001) * 2.5
    states = np.zeros((101, 4))
    states[-1, 2] = r
    weights = np.append(np.full(100, 50.0), 2.0**-980)
    pred = ParticleSet(states=states, weights=weights)
    scan = np.array([[0.0, r]])
    bound = 2.0**60 * 0.5 * g_max * 101 * 50.0
    for shift in range(-16, 3):
        models = _models(
            measurement=measurement,
            clutter=ClutterModel(rate=bound * 2.0**shift * 200.0 * 200.0),
            detection=DetectionModel(p_survive=0.95, p_detect=0.5),
        )
        post = update(pred, scan, models)
        assert np.array_equal(post.weights, _reference_update_weights(pred, scan, models))


def test_update_memory_is_bounded_by_the_block_not_the_scan():
    # 100,000 particles and 60 scan points: a whole-scan update would hold
    # (60, 10^5) likelihood arrays, 46 MiB each.  In blocks of one row each
    # array is 0.8 MiB, and the traced peak stays under 32 MiB.
    rng = np.random.default_rng(16)
    n = 100_000
    pred = ParticleSet(states=rng.uniform(-100, 100, (n, 4)), weights=rng.uniform(0, 0.01, n))
    scan = rng.uniform(-100, 100, (60, 2))
    models = _models(clutter=ClutterModel(rate=50.0, region=(-100, 100, -100, 100)))
    tracemalloc.start()
    try:
        update(pred, scan, models)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_update_checks_do_not_grow_with_the_block_count():
    # The scan is checked as it enters `update`, and the states when their
    # set was built; `likelihood` checks only shapes.  So, in one-row
    # blocks, a 6-point scan runs as many `_as_rows` checks as a 2-point one.
    rng = np.random.default_rng(17)
    pred = ParticleSet(states=rng.uniform(-50, 50, (5, 4)), weights=np.full(5, 0.1))
    counts = []
    for m in (2, 6):
        counter = mock.Mock(wraps=smcphd.models._as_rows)
        with contextlib.ExitStack() as stack:
            stack.enter_context(_row_blocks(1, len(pred)))
            for module in (smcphd.models, smcphd.filter, smcphd.particles):
                stack.enter_context(mock.patch.object(module, "_as_rows", counter))
            update(pred, rng.uniform(-50, 50, (m, 2)), _models())
        counts.append(counter.call_count)
    assert counts[0] == counts[1] > 0


@pytest.mark.xfail(strict=True, reason="update loses mass once the products in C(z) underflow")
def test_update_mass_identity_when_support_underflows():
    # No clutter, and a measurement 96 m from every particle: each
    # g(z|x_j) w_j is subnormal, so C(z) is rounded far off.  The term
    # C/(kappa + C) is exactly 1, but the update adds 0.775 of mass.
    models = _models(clutter=ClutterModel(rate=0.0, region=(-100, 100, -100, 100)))
    pred = ParticleSet(states=np.zeros((4, 4)), weights=np.full(4, 0.05))
    scan = np.array([[96.0, 0.0]])
    post = update(pred, scan, models)
    expected = 0.05 * pred.total_weight() + math.fsum(measurement_mass_terms(pred, scan, models))
    assert post.total_weight() == pytest.approx(expected, rel=1e-10)


def test_update_of_weights_below_the_floor_stays_finite():
    # Two weights of 1e-310 and no clutter: C(z) is subnormal, and each
    # p_D g / C(z), bounded only by 1 / w_j, would overflow.  The set holds
    # such weights as zero, so there is no term to form.
    models = _models(clutter=ClutterModel(rate=0.0, region=(-100, 100, -100, 100)))
    pred = ParticleSet(states=np.zeros((2, 4)), weights=[1e-310, 1e-310])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        post = update(pred, np.array([[0.0, 0.0]]), models)
    assert np.array_equal(post.weights, [0.0, 0.0])


def test_estimate_cardinality_rounding():
    def pset_with_mass(mass, n=8):
        return ParticleSet(states=np.zeros((n, 4)), weights=np.full(n, mass / n))

    # The harness estimates the target count as the mass rounded half-up.
    assert round_half_up(pset_with_mass(3.6).total_weight()) == 4
    assert round_half_up(pset_with_mass(0.4).total_weight()) == 0
    assert round_half_up(2.5) == 3
    assert round_half_up(empty_set().total_weight()) == 0


def test_filter_config_defaults_and_validation():
    config = FilterConfig(particles_per_target=200)
    assert target_count(0.0, config) == 100
    assert config.birth_particle_count(0.2) == 40
    assert FilterConfig(particles_per_target=1000).birth_particle_count(0.2) == 200
    assert FilterConfig(particles_per_target=200, birth_particles=17).birth_particle_count(0.2) == 17
    assert config.resample_scheme == "systematic"
    with pytest.raises(ValueError, match="filter.particles_per_target"):
        FilterConfig(particles_per_target=0)
    with pytest.raises(ValueError, match="filter.min_particles"):
        FilterConfig(min_particles=0)
    with pytest.raises(ValueError, match="resample.scheme"):
        FilterConfig(resample_scheme="stratified")
    # A birth count is bounded at the rounding edge; checking allocates nothing.
    one = FilterConfig(particles_per_target=1)
    assert one.birth_particle_count(MAX_PARTICLES + 0.49) == MAX_PARTICLES
    with pytest.raises(ValueError, match="birth.mass"):
        one.birth_particle_count(MAX_PARTICLES + 0.5)
    with pytest.raises(ValueError, match="birth.mass"):
        config.birth_particle_count(1e308)  # the product overflows to inf


def test_predict_direct_with_adaptive_bandwidth():
    rng = np.random.default_rng(16)
    prev = ParticleSet(states=rng.normal(size=(100, 4)), weights=np.full(100, 0.02))
    cfg = RougheningConfig(mode="direct", gordon_constant=0.2)
    out = predict(prev, _direct_models(prev, cfg), _config(), np.random.default_rng(17))
    assert len(out) == 140
    assert np.all(np.isfinite(out.states))
