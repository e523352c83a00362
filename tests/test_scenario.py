import numpy as np
import pytest

from smcphd.models import (
    BirthModel,
    ClutterModel,
    DetectionModel,
    MeasurementModel,
    ModelSet,
    MotionModel,
)
from smcphd.rng import stream
from smcphd.scenario import (
    ScenarioConfig,
    GroundTruth,
    TargetScript,
    generate_truth,
    benchmark_targets,
    simulate_scans,
)


def _models(**overrides):
    base = dict(
        motion=MotionModel(sigma_v1=1.0, sigma_v2=0.1),
        measurement=MeasurementModel(),
        birth=BirthModel(),
        clutter=ClutterModel(rate=10.0),
        detection=DetectionModel(p_detect=0.95),
    )
    base.update(overrides)
    return ModelSet(**base)


def single_stream_scan(truth_states, config, rng):
    """One scan of the given (n, 4) states, drawn from a single stream for
    every noise source."""
    tracks = {tid: (1, state[None]) for tid, state in enumerate(truth_states, start=1)}
    truth = GroundTruth(steps=1, tracks=tracks)
    return simulate_scans(truth, config, rng, rng, rng, rng).at(1)


def _scan_streams(seed):
    """Trial 0's detection, measurement, clutter and shuffle streams."""
    return [stream(seed, 0, p) for p in ("detection", "measurement", "clutter", "shuffle")]


def test_noise_free_single_target_integrates_velocity():
    models = _models(motion=MotionModel(sigma_v1=0.0, sigma_v2=0.0))
    config = ScenarioConfig(
        steps=10,
        targets=[TargetScript(1, 10, initial_state=[0.0, 3.0, 0.0, -3.0])],
        models=models,
    )
    truth = generate_truth(config, np.random.default_rng(0))
    for k in range(1, 11):
        state = truth.states_at(k)[0]
        assert np.array_equal(state, [3.0 * (k - 1), 3.0, -3.0 * (k - 1), -3.0])


def test_default_schedule_bookkeeping():
    config = ScenarioConfig(steps=40, targets=benchmark_targets(), models=_models())
    truth = generate_truth(config, np.random.default_rng(1))
    assert len(truth.tracks) == 4
    expected_counts = {1: 2, 7: 2, 8: 3, 14: 3, 15: 4, 28: 4, 29: 3, 40: 3}
    for step, count in expected_counts.items():
        assert len(truth.states_at(step)) == count
    # track lengths match the schedules
    for tid, script in zip(truth.tracks, benchmark_targets()):
        birth, states = truth.tracks[tid]
        assert birth == script.birth_step
        assert len(states) == script.death_step - script.birth_step + 1


def test_sampled_initial_states_follow_birth_density():
    config = ScenarioConfig(steps=5, targets=[TargetScript(1, 5)] * 4, models=_models())
    rng = np.random.default_rng(2)
    initials = []
    for _ in range(100):
        truth = generate_truth(config, rng)
        for _, (birth, states) in truth.tracks.items():
            initials.append(states[0])
    initials = np.asarray(initials)
    birth = config.models.birth
    se = np.sqrt(np.array(birth.cov_diag) / len(initials))
    assert np.all(np.abs(initials.mean(axis=0) - np.array(birth.mean)) <= 3 * se)


def test_scan_with_certain_detection_no_clutter():
    models = _models(
        detection=DetectionModel(p_detect=1.0), clutter=ClutterModel(rate=0.0)
    )
    config = ScenarioConfig(steps=1, targets=[TargetScript(1, 1)], models=models)
    state = np.array([[10.0, 0.0, -5.0, 0.0]])
    rng = np.random.default_rng(3)
    scans = [single_stream_scan(state, config, rng) for _ in range(2000)]
    assert all(len(s) == 1 for s in scans)
    zs = np.vstack(scans)
    assert np.allclose(zs.mean(axis=0), [10.0, -5.0], atol=0.2)
    assert np.allclose(zs.std(axis=0), [2.5, 2.5], rtol=0.1)


def test_scan_clutter_only():
    models = _models(detection=DetectionModel(p_detect=0.0))
    config = ScenarioConfig(steps=1, targets=[TargetScript(1, 1)], models=models)
    state = np.array([[0.0, 0.0, 0.0, 0.0]])
    rng = np.random.default_rng(4)
    counts = [len(single_stream_scan(state, config, rng)) for _ in range(5000)]
    assert abs(np.mean(counts) - 10.0) <= 0.15


def test_empty_truth_no_clutter_gives_empty_scan():
    models = _models(clutter=ClutterModel(rate=0.0))
    config = ScenarioConfig(steps=1, targets=[TargetScript(1, 1)], models=models)
    streams = [np.random.default_rng(seed) for seed in range(4)]
    before = [rng.bit_generator.state for rng in streams]
    scan = simulate_scans(GroundTruth(steps=1, tracks={}), config, *streams).at(1)
    assert scan.shape == (0, 2)
    # Nothing to detect, measure, scatter or shuffle: no stream moves.
    assert [rng.bit_generator.state for rng in streams] == before


def test_detection_frequency_matches_probability():
    models = _models(clutter=ClutterModel(rate=0.0))
    config = ScenarioConfig(steps=1, targets=[TargetScript(1, 1)], models=models)
    state = np.array([[0.0, 0.0, 0.0, 0.0]])
    rng = np.random.default_rng(6)
    n = 10_000
    hits = sum(len(single_stream_scan(state, config, rng)) for _ in range(n))
    p = models.detection.p_detect
    se = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 3 * se


def test_same_seed_reproduces_truth_and_scans_bitwise():
    config = ScenarioConfig(
        steps=15, targets=[TargetScript(1, 15), TargetScript(4, 11)], models=_models()
    )

    def realize(seed):
        truth = generate_truth(config, stream(seed, 0, "truth"))
        scans = simulate_scans(truth, config, *_scan_streams(seed))
        return truth, scans

    t1, s1 = realize(123)
    t2, s2 = realize(123)
    for tid in t1.tracks:
        assert np.array_equal(t1.tracks[tid][1], t2.tracks[tid][1])
    assert len(s1.scans) == len(s2.scans)
    for a, b in zip(s1.scans, s2.scans):
        assert np.array_equal(a, b)
    t3, s3 = realize(124)
    assert not all(np.array_equal(a, b) for a, b in zip(s1.scans, s3.scans))


def test_detections_bounded_by_alive_targets():
    # With clutter off, every measurement is target-originated, so the scan
    # size cannot exceed the number of alive targets.
    models = _models(clutter=ClutterModel(rate=0.0))
    config = ScenarioConfig(steps=40, targets=benchmark_targets(), models=models)
    truth = generate_truth(config, stream(9, 0, "truth"))
    scans = simulate_scans(truth, config, *_scan_streams(9))
    for step in range(1, 41):
        assert len(scans.at(step)) <= len(truth.states_at(step))


def test_schedule_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(steps=10, targets=[TargetScript(0, 5)], models=_models())
    with pytest.raises(ValueError):
        ScenarioConfig(steps=10, targets=[TargetScript(3, 11)], models=_models())
    with pytest.raises(ValueError):
        TargetScript(1, 5, initial_state=[1.0, 2.0])
