"""Acceptance suite: one test per criterion, each printing a PASS line.

The Monte Carlo criteria (7-9) are stochastic and evaluated at a fixed
master seed with the documented tolerance bands; everything else is exact
or tightly toleranced.  Run with `pytest tests/test_acceptance.py -v -s`.
Full-suite runtime is a few minutes (dominated by the Np=1000 run and the
jitter sweep).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import measurement_mass_terms, ospa_bruteforce, write_variant_table
from smcphd import harness
from smcphd.cli import main as cli_main
from smcphd.config import VariantSpec, benchmark_preset, default_variants
from smcphd.filter import FilterConfig, predict, update
from smcphd.harness import run, sweep, sweep_variants
from smcphd.metrics import OspaParams, ospa
from smcphd.models import BirthModel, MeasurementModel, MotionModel, propagate
from smcphd.particles import ParticleSet, empty_set
from smcphd.resampling import multinomial_indices, resample
from smcphd.roughening import (
    RougheningConfig,
    direct_motion,
    separate_roughen,
    velocity_jitter,
)

MASTER_SEED = 1
WORKERS = 2
OSPA_PARAMS = OspaParams(cutoff=100.0, order=2.0)


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {detail}")


@pytest.fixture(scope="module")
def run_np1000():
    config = benchmark_preset(particles_per_target=1000, trials=100, master_seed=MASTER_SEED)
    summary, results = run(config, workers=WORKERS)
    return config, summary, results


@pytest.fixture(scope="module")
def sweep_np200():
    config = benchmark_preset(particles_per_target=200, trials=100, master_seed=MASTER_SEED)
    result, summary, _ = sweep(config, workers=WORKERS)
    # Criteria 07 and 08 read the default variants' columns from the sweep:
    # its baseline and 0.4 arms are those variants' configs, and a column
    # does not depend on which other variants run.
    arms = {v.name: v.roughening for v in sweep_variants(config)}
    defaults = [v.roughening for v in default_variants()]
    assert [arms["basic"], arms["separate@0.4"], arms["direct@0.4"]] == defaults
    return config, result, summary


def test_criterion_01_ospa_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(10_000):
        x = rng.uniform(-100, 100, size=(int(rng.integers(0, 7)), 2))
        y = rng.uniform(-100, 100, size=(int(rng.integers(0, 7)), 2))
        worst = max(worst, abs(ospa(x, y, OSPA_PARAMS) - ospa_bruteforce(x, y, OSPA_PARAMS)))
    elapsed = time.monotonic() - start
    assert worst < 1e-9
    assert elapsed < 60.0
    _report(1, f"10^4 instances, max |solver - enumeration| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_ospa_metric_axioms():
    rng = np.random.default_rng(102)
    worst_slack = 0.0
    for _ in range(10_000):
        x = rng.uniform(-100, 100, size=(int(rng.integers(0, 6)), 2))
        y = rng.uniform(-100, 100, size=(int(rng.integers(0, 6)), 2))
        z = rng.uniform(-100, 100, size=(int(rng.integers(0, 6)), 2))
        assert ospa(x, y, OSPA_PARAMS) == ospa(y, x, OSPA_PARAMS)  # symmetry, exact
        if len(x):
            assert ospa(x, x, OSPA_PARAMS) == 0.0
        slack = ospa(x, z, OSPA_PARAMS) - ospa(x, y, OSPA_PARAMS) - ospa(y, z, OSPA_PARAMS)
        worst_slack = max(worst_slack, slack)
        assert slack <= 1e-9
    _report(2, f"symmetry exact, identity exact, max triangle slack = {worst_slack:.2e}")


def test_criterion_03_update_mass_identity():
    rng = np.random.default_rng(103)
    config = benchmark_preset()
    models = config.scenario.models
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 400))
        pset = ParticleSet(
            states=rng.uniform(-90, 90, size=(n, 4)),
            weights=rng.uniform(0, 0.05, size=n),
        )
        scan = rng.uniform(-100, 100, size=(int(rng.integers(0, 12)), 2))
        post = update(pset, scan, models)
        terms = measurement_mass_terms(pset, scan, models)
        assert np.all(terms >= 0.0) and np.all(terms <= 1.0)
        expected = (1 - 0.95) * pset.total_weight() + math.fsum(terms)
        if expected > 0:
            worst = max(worst, abs(post.total_weight() - expected) / expected)
    assert worst < 1e-10
    _report(3, f"10^3 random sets, max relative mass error = {worst:.2e}, terms in [0,1]")


def test_criterion_04_prediction_mass_identity():
    config = benchmark_preset()
    models = config.scenario.models
    rng = np.random.default_rng(104)

    # Survivor weights are the exact per-particle products p_S * w.
    prev = ParticleSet(states=rng.normal(size=(200, 4)), weights=rng.uniform(0, 0.02, 200))
    out = predict(prev, models, config.filter, rng)
    assert np.array_equal(out.weights[:200], 0.95 * prev.weights)

    # With dyadic weights the products are exact, so the mass identity holds
    # with zero tolerance through compensated summation.
    dyadic = ParticleSet(states=np.zeros((6, 4)), weights=2.0 ** -np.arange(1, 7))
    models_nobirth = replace(models, birth=BirthModel(mass=0.0))
    out_d = predict(dyadic, models_nobirth, config.filter, rng)
    assert math.fsum(out_d.weights.tolist()) == 0.95 * math.fsum(dyadic.weights.tolist())

    # Birth mass appended equals the birth-mass parameter exactly.
    for particles in (200, 1000):
        cfg = benchmark_preset(particles_per_target=particles)
        birth_out = predict(empty_set(), models, cfg.filter, rng)
        j = cfg.filter.birth_particle_count(0.2)
        assert len(birth_out) == j
        assert np.all(birth_out.weights == 0.2 / j)
        assert math.fsum(birth_out.weights.tolist()) == 0.2
    _report(4, "survivor mass out = 0.95 x in (exact); birth mass out = 0.2 (exact, J=40/200)")


def test_criterion_05_resampling_guarantees():
    rng = np.random.default_rng(105)
    config = FilterConfig(particles_per_target=120, resample_scheme="systematic")

    for _ in range(300):
        n = int(rng.integers(1, 500))
        pset = ParticleSet(states=rng.normal(size=(n, 4)), weights=rng.uniform(0, 0.02, n))
        total = pset.total_weight()
        if total == 0:
            continue
        out = resample(pset, total, config, rng)
        assert out.total_weight() == total  # exact mass preservation
        expected = len(out) * pset.weights / total
        copies = np.bincount(out.ancestry, minlength=n)
        assert np.all(copies >= np.floor(expected))
        assert np.all(copies <= np.ceil(expected))

    w = np.array([0.05, 0.3, 0.15, 0.5])
    q = w / w.sum()
    count, reps = 20, 10_000
    totals = np.zeros(4)
    for _ in range(reps):
        totals += np.bincount(multinomial_indices(w, count, rng), minlength=4)
    se = np.sqrt(count * q * (1 - q) / reps)
    deviation = np.abs(totals / reps - count * q)
    assert np.all(deviation <= 3 * se)
    _report(
        5,
        "mass exact on 300 random sets; systematic counts in floor/ceil bounds; "
        f"multinomial deviations within 3 sigma (max {np.max(deviation / se):.2f} sigma)",
    )


def test_criterion_06_zero_roughening_bitwise_equivalence(tmp_path, monkeypatch):
    # `run_trial` shares the baseline's filter run with zero-jitter variants.
    # Keyed by config identity instead, each variant gets a run of its own,
    # so the zero-jitter paths really run.  Serial, so the patch is in force
    # whatever the process pool's start method.
    monkeypatch.setattr(harness, "_roughening_key", id)
    config = benchmark_preset(particles_per_target=200, trials=10, master_seed=MASTER_SEED)
    config = replace(
        config,
        variants=[
            VariantSpec("basic", RougheningConfig(mode="none")),
            VariantSpec("sep0", RougheningConfig(mode="separate", jitter_std=0.0)),
            VariantSpec("dir0", RougheningConfig(mode="direct", jitter_std=0.0)),
        ],
    )
    _, results = run(config)
    paths = {}
    for name in ("basic", "sep0", "dir0"):
        path = tmp_path / f"{name}.txt"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_variant_table(results, name, fh)
        paths[name] = path.read_bytes()
    assert paths["sep0"] == paths["basic"]
    assert paths["dir0"] == paths["basic"]
    _report(6, "separate(0) and direct(0) output files byte-identical to the baseline")


def test_criterion_07_headline_gain_ratios(sweep_np200):
    config, _, summary = sweep_np200
    sep_gain = summary.gain_ratios["separate@0.4"]
    dir_gain = summary.gain_ratios["direct@0.4"]
    assert 0.05 <= sep_gain <= 0.30
    assert 0.05 <= dir_gain <= 0.30
    tail = slice(9, config.scenario.steps)
    basic_tail = float(np.mean(summary.mean_step_ospa["basic"][tail]))
    for name in ("separate@0.4", "direct@0.4"):
        assert float(np.mean(summary.mean_step_ospa[name][tail])) < basic_tail
    _report(
        7,
        f"Np=200 gains: separate {sep_gain:+.4f}, direct {dir_gain:+.4f} in [0.05, 0.30]; "
        "both curves below baseline over steps 10-40",
    )


def test_criterion_08_sample_size_contrast(sweep_np200, run_np1000):
    _, _, s200 = sweep_np200
    _, s1000, _ = run_np1000
    for name in ("separate", "direct"):
        assert s1000.gain_ratios[name] < s200.gain_ratios[f"{name}@0.4"]
        assert -0.05 <= s1000.gain_ratios[name] <= 0.15
    _report(
        8,
        "Np=1000 gains "
        f"(separate {s1000.gain_ratios['separate']:+.4f}, direct {s1000.gain_ratios['direct']:+.4f}) "
        "below their Np=200 counterparts and within [-0.05, 0.15]",
    )


def test_criterion_09_sweep_shape(sweep_np200):
    _, result, _ = sweep_np200
    details = []
    for mode in result.modes:
        gains = {delta: result.gain_ratios[(mode, delta)] for delta in result.grid}
        best_delta = max(gains, key=gains.get)
        assert gains[2.5] < gains[best_delta]
        assert best_delta <= 0.8
        details.append(f"{mode}: max {gains[best_delta]:+.4f} at delta={best_delta:g}")
    _report(9, "; ".join(details) + "; gain at delta=2.5 below the maximum for both modes")


def test_criterion_10_roughening_moment_checks():
    n = 100_000
    motion = MotionModel(sigma_v1=1.0, sigma_v2=0.1)
    base = ParticleSet(states=np.tile([0.0, 1.0, 0.0, -1.0], (n, 1)), weights=np.full(n, 1e-3))

    sep_cfg = RougheningConfig(mode="separate", jitter_std=velocity_jitter(0.4))
    jittered = separate_roughen(
        base, sep_cfg, motion, MeasurementModel(), np.random.default_rng(110)
    )
    dv = jittered.states[:, [1, 3]] - base.states[:, [1, 3]]
    assert np.all(np.abs(dv.mean(axis=0)) <= 0.005)
    assert np.all(np.abs(dv.std(axis=0) - 0.4) <= 0.004)
    assert np.array_equal(jittered.states[:, [0, 2]], base.states[:, [0, 2]])

    dir_cfg = RougheningConfig(mode="direct", jitter_std=velocity_jitter(0.4))
    dir_motion = direct_motion(base, dir_cfg, motion, MeasurementModel())
    out = propagate(base.states, dir_motion, np.random.default_rng(111))
    dvel = out[:, [1, 3]] - base.states[:, [1, 3]]
    expected = np.array([math.sqrt(1.0 + 0.16), math.sqrt(0.01 + 0.16)])
    rel = np.abs(dvel.std(axis=0) - expected) / expected
    assert np.all(rel <= 0.01)
    _report(
        10,
        f"jitter mean/std within bands; combined propagation stds within "
        f"{100 * float(rel.max()):.2f}% of sqrt(sigma^2 + delta^2)",
    )


def test_criterion_11_serial_parallel_byte_identical(tmp_path):
    out_serial = tmp_path / "serial"
    out_parallel = tmp_path / "parallel"
    base_args = ["run", "--preset", "paper-np200", "--trials", "8", "--seed", str(MASTER_SEED)]
    assert cli_main(base_args + ["--out", str(out_serial), "--workers", "1"]) == 0
    assert cli_main(base_args + ["--out", str(out_parallel), "--workers", "2"]) == 0
    for name in ("trials.txt", "summary.txt"):
        assert (out_serial / name).read_bytes() == (out_parallel / name).read_bytes()
    _report(11, "serial and parallel runs wrote byte-identical trials.txt and summary.txt")
