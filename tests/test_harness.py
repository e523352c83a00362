import concurrent.futures
import io
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import smcphd
from oracles import write_variant_table
from smcphd import cli, harness
from smcphd.cli import main as cli_main
from smcphd.config import benchmark_preset, load_run_config, run_config_from_mapping
from smcphd.harness import (
    TrialError,
    pool_size,
    realize_trial,
    run,
    run_trial,
    run_trials,
    summarize,
    sweep,
    write_summary_table,
    write_trials_table,
)
from smcphd.models import ClutterModel, DetectionModel, ModelSet
from smcphd.roughening import RougheningConfig
from smcphd.scenario import ScenarioConfig, TargetScript, write_scans


def small_config(trials=3, particles=60, steps=10, seed=5, variants=None):
    base = benchmark_preset(particles_per_target=particles, trials=trials, master_seed=seed)
    scenario = ScenarioConfig(
        steps=steps,
        targets=[TargetScript(1, steps), TargetScript(1, max(1, steps - 3)), TargetScript(3, steps)],
        models=base.scenario.models,
    )
    out = replace(base, scenario=scenario)
    if variants is not None:
        out = replace(out, variants=variants)
    return out


def assert_same_scans(a, b):
    """Two `ScanData` hold the same scans, array by array."""
    assert len(a.scans) == len(b.scans)
    for scan_a, scan_b in zip(a.scans, b.scans):
        assert np.array_equal(scan_a, scan_b)


def test_same_seed_same_trial_is_bitwise_reproducible():
    config = small_config()
    a = run_trial(config, 1)
    b = run_trial(config, 1)
    assert_same_scans(realize_trial(config, 1)[1], realize_trial(config, 1)[1])
    for name in config.variants:
        assert np.array_equal(a.est_counts[name], b.est_counts[name])
        assert np.array_equal(a.ospa_values[name], b.ospa_values[name])


def unshare_runs(monkeypatch):
    """Give every variant a filter run of its own: keyed by the identity of
    its roughening config, no two variants share a run."""
    monkeypatch.setattr(harness, "_roughening_key", id)


def test_identical_roughening_configs_give_identical_columns(monkeypatch):
    variants = {
        "basic": RougheningConfig(mode="none"),
        "twin_a": RougheningConfig(mode="separate", jitter_std=0.4),
        "twin_b": RougheningConfig(mode="separate", jitter_std=0.4),
    }
    config = small_config(variants=variants)
    shared = run_trial(config, 0)
    unshare_runs(monkeypatch)
    own = run_trial(config, 0)
    assert np.array_equal(own.est_counts["twin_a"], own.est_counts["twin_b"])
    assert np.array_equal(own.ospa_values["twin_a"], own.ospa_values["twin_b"])
    for name in ("twin_a", "twin_b"):
        assert np.array_equal(shared.est_counts[name], own.est_counts[name])
        assert np.array_equal(shared.ospa_values[name], own.ospa_values[name])


def test_zero_jitter_variants_match_baseline_bitwise(monkeypatch):
    variants = {
        "basic": RougheningConfig(mode="none"),
        "sep0": RougheningConfig(mode="separate", jitter_std=0.0),
        "dir0": RougheningConfig(mode="direct", jitter_std=0.0),
    }
    config = small_config(trials=2, variants=variants)
    _, shared = run(config)
    unshare_runs(monkeypatch)
    _, own = run(config)
    for name in ("sep0", "dir0"):
        for r, s in zip(own, shared):
            for result in (r, s):
                assert np.array_equal(result.est_counts[name], r.est_counts["basic"])
                assert np.array_equal(result.ospa_values[name], r.ospa_values["basic"])


def record_runs(monkeypatch) -> list:
    """A list that gets (trial, variant name) for each filter run."""
    ran = []
    real = harness._run_variant

    def recording(scans, true_points, config, name, roughening, trial):
        ran.append((trial, name))
        return real(scans, true_points, config, name, roughening, trial)

    monkeypatch.setattr(harness, "_run_variant", recording)
    return ran


def test_each_distinct_roughening_config_runs_once_per_trial(monkeypatch):
    config = small_config(trials=2)
    variants = config.sweep_variants()
    assert len(variants) == 15  # basic, and both modes at 7 jitter levels
    ran = record_runs(monkeypatch)
    results = run_trials(replace(config, variants=variants))
    # separate@0 and direct@0 share the baseline's run.
    for trial in range(2):
        names = [name for t, name in ran if t == trial]
        assert len(names) == 13
        assert "separate@0" not in names and "direct@0" not in names
    for r in results:
        for name in ("separate@0", "direct@0"):
            assert np.array_equal(r.ospa_values[name], r.ospa_values["basic"])
            assert r.ospa_values[name] is not r.ospa_values["basic"]


def test_fault_names_first_variant_with_the_failing_config(monkeypatch):
    real_roughen = harness.separate_roughen

    def failing_roughen(pset, roughening, *args):
        if np.any(roughening.jitter_std):
            raise ValueError("injected fault")
        return real_roughen(pset, roughening, *args)

    monkeypatch.setattr(harness, "separate_roughen", failing_roughen)
    variants = {
        "sep0": RougheningConfig(mode="separate", jitter_std=0.0),
        "basic": RougheningConfig(mode="none"),
        "twin_a": RougheningConfig(mode="separate", jitter_std=0.4),
        "twin_b": RougheningConfig(mode="separate", jitter_std=0.4),
    }
    with pytest.raises(TrialError, match=r"^trial 1, variant 'twin_a', step 1: ValueError: "):
        run_trial(small_config(variants=variants), 1)

    def failing_update(*args):
        raise ValueError("injected fault")

    monkeypatch.setattr(harness, "update", failing_update)
    with pytest.raises(TrialError, match=r"^trial 1, variant 'sep0', step 1: ValueError: "):
        run_trial(small_config(variants=variants), 1)


def test_variant_list_does_not_shift_shared_streams():
    # The baseline column must be identical whether or not other variants run.
    lone = small_config(variants={"basic": RougheningConfig(mode="none")})
    full = small_config()
    a = run_trial(lone, 2)
    b = run_trial(full, 2)
    assert_same_scans(realize_trial(lone, 2)[1], realize_trial(full, 2)[1])
    assert np.array_equal(a.est_counts["basic"], b.est_counts["basic"])
    assert np.array_equal(a.ospa_values["basic"], b.ospa_values["basic"])


def test_doubling_trials_reproduces_prefix():
    short = small_config(trials=3)
    long = small_config(trials=6)
    _, short_results = run(short)
    _, long_results = run(long)
    for a, b in zip(short_results, long_results):
        assert_same_scans(realize_trial(short, a.trial)[1], realize_trial(long, b.trial)[1])
        for name in short.variants:
            assert np.array_equal(a.ospa_values[name], b.ospa_values[name])


def test_single_trial_summary_equals_trial_values():
    config = small_config(trials=1)
    summary, results = run(config)
    (result,) = results
    for name in config.variants:
        assert np.allclose(summary.mean_step_ospa[name], result.ospa_values[name])
        expected = float(np.mean(result.ospa_values[name]))
        assert summary.mean_ospa[name] == pytest.approx(expected, rel=1e-12)
    assert summary.gain_ratios[config.baseline] == 0.0


def test_summary_recomputable_from_trials_table():
    config = small_config(trials=4)
    summary, results = run(config)
    buf = io.StringIO()
    write_trials_table(results, list(config.variants), buf)
    lines = buf.getvalue().strip().split("\n")
    header = lines[0].split("\t")
    assert header == ["trial", "step", "variant", "true_n", "est_n", "ospa"]
    acc = {}
    for line in lines[1:]:
        trial, step, variant, true_n, est_n, ospa_s = line.split("\t")
        acc.setdefault(variant, []).append(float(ospa_s))
    for name in config.variants:
        table_mean = np.mean(acc[name])
        # table values carry 6 significant digits
        assert table_mean == pytest.approx(summary.mean_ospa[name], rel=1e-4)


def test_parallel_run_matches_serial_bytes():
    config = small_config(trials=4)
    serial = run_trials(config, workers=1)
    parallel = run_trials(config, workers=2)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_trials_table(serial, list(config.variants), buf_a)
    write_trials_table(parallel, list(config.variants), buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()
    sum_a, sum_b = io.StringIO(), io.StringIO()
    write_summary_table(summarize(config, serial), sum_a)
    write_summary_table(summarize(config, parallel), sum_b)
    assert sum_a.getvalue() == sum_b.getvalue()


@pytest.mark.parametrize(
    "workers, trials, cpus, expect",
    [
        (64, 3, 2, 2),  # CPUs bound
        (64, 3, 16, 3),  # trials bound
        (2, 100, 8, 2),  # the request bounds
        (8, 100, None, 8),  # CPU count unknown
        (1, 5, 4, 1),
        (0, 5, 4, 1),
        (4, 1, 4, 1),
    ],
)
def test_pool_size_never_exceeds_trials_or_cpus(workers, trials, cpus, expect):
    assert pool_size(workers, trials, cpus) == expect


def test_run_trials_counts_only_the_cpus_this_process_may_use(monkeypatch):
    # One CPU in the affinity mask: two workers would share it, so the
    # trials run serially and no pool starts.
    def no_pool(*args, **kwargs):
        raise AssertionError("run_trials started a process pool")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    config = small_config(trials=2, steps=3)
    results = run_trials(config, workers=2)
    assert [r.trial for r in results] == [0, 1]


def collapse_config(death_step):
    """Six steps and one target alive on steps 1..death_step.  Detection is
    certain and there is no clutter, but the target sits at (90, 90), far
    outside the birth density: no particle supports its measurement, so the
    first update multiplies every weight by 1 - p_D = 0."""
    base = small_config(trials=1, particles=40, steps=6)
    models = replace(
        base.scenario.models,
        clutter=ClutterModel(rate=0.0, region=(-100, 100, -100, 100)),
        detection=DetectionModel(p_survive=0.95, p_detect=1.0),
    )
    target = TargetScript(1, death_step, initial_state=[90.0, 0.0, 90.0, 0.0])
    return replace(base, scenario=ScenarioConfig(steps=6, targets=[target], models=models))


def test_mass_collapse_records_cutoff_for_remaining_steps(monkeypatch):
    # Every step's mass is zero, yet every step runs: each of a filter run's
    # six predictions starts from the empty set the step before handed on.
    received = []
    real = harness.predict

    def recording(pset, *args):
        received.append(len(pset))
        return real(pset, *args)

    monkeypatch.setattr(harness, "predict", recording)
    config = collapse_config(6)
    result = run_trial(config, 0)
    assert received == [0] * (6 * len(config.variants))
    for name in config.variants:
        assert np.all(result.est_counts[name] == 0)
        assert np.all(result.ospa_values[name][1:] == config.ospa.cutoff)


def test_mass_collapse_scores_zero_once_no_target_is_alive():
    # The empty estimate is exact on steps 4-6, where no target is alive.
    config = collapse_config(3)
    result = run_trial(config, 0)
    for name in config.variants:
        assert np.all(result.est_counts[name] == 0)
        assert np.array_equal(result.ospa_values[name], [100.0] * 3 + [0.0] * 3)


def test_full_state_ospa_scores_velocities_too():
    config = small_config(trials=1)
    positions = run_trial(config, 0)
    full = run_trial(replace(config, ospa_full_state=True), 0)
    for name in config.variants:
        assert np.array_equal(full.est_counts[name], positions.est_counts[name])
        assert np.all(full.ospa_values[name] >= positions.ospa_values[name])
        assert np.any(full.ospa_values[name] > positions.ospa_values[name])


# For each RougheningConfig field: a config that is not inert, and another
# value of that field.  A field without an entry fails the test below, so a
# new field cannot let differing variants share one filter run unnoticed.
FIELD_CHANGES = {
    "mode": ({"mode": "separate", "jitter_std": 0.4}, "direct"),
    "jitter_std": ({"mode": "separate", "jitter_std": 0.4}, 0.8),
    "gordon_constant": ({"mode": "separate", "gordon_constant": 0.2}, 0.1),
    "gordon_dimension": ({"mode": "separate", "gordon_constant": 0.2}, 2),
    "gordon_positive_exponent": ({"mode": "separate", "gordon_constant": 0.2}, True),
    "selective_threshold": ({"mode": "separate", "jitter_std": 0.4}, 0.5),
    "overlapped_only": ({"mode": "separate", "jitter_std": 0.4}, True),
    "cap_to_measurement": ({"mode": "separate", "jitter_std": 0.4}, False),
}


@pytest.mark.parametrize("field", [f.name for f in fields(RougheningConfig)])
def test_configs_differing_in_one_field_get_runs_of_their_own(monkeypatch, field):
    base, value = FIELD_CHANGES[field]
    a = RougheningConfig(**base)
    b = replace(a, **{field: value})
    assert not a.inert and not b.inert and a != b
    ran = record_runs(monkeypatch)
    basic = RougheningConfig(mode="none")
    run_trial(small_config(steps=3, variants={"basic": basic, "a": a, "b": b}), 0)
    assert ran == [(0, "basic"), (0, "a"), (0, "b")]


def test_sweep_shares_baseline_and_pairs_variants():
    config = replace(small_config(trials=2), sweep_grid=(0.0, 0.4))
    result, summary, _ = sweep(config)
    assert result.grid == (0.0, 0.4)
    # delta = 0 arms are bitwise equal to the baseline, so their gain is 0
    assert summary.gain_ratios["separate@0"] == 0.0
    assert summary.gain_ratios["direct@0"] == 0.0
    assert set(summary.variant_names) == {
        "basic", "separate@0", "direct@0", "separate@0.4", "direct@0.4",
    }


def test_variant_table_supports_bitwise_comparison():
    variants = {
        "basic": RougheningConfig(mode="none"),
        "sep0": RougheningConfig(mode="separate", jitter_std=0.0),
    }
    config = small_config(trials=2, variants=variants)
    _, results = run(config)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_variant_table(results, "basic", buf_a)
    write_variant_table(results, "sep0", buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def _write_config(tmp_path, trials=2):
    text = (
        "scenario.steps = 8\n"
        "scenario.targets = 1:8, 2:8\n"
        "filter.particles_per_target = 50\n"
        f"run.trials = {trials}\n"
        "run.master_seed = 3\n"
    )
    path = tmp_path / "tiny.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_cli_run_writes_tables(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "results"
    code = cli_main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    trials_text = (out / "trials.txt").read_text()
    summary_text = (out / "summary.txt").read_text()
    assert trials_text.startswith("trial\tstep\tvariant\ttrue_n\test_n\tospa\n")
    assert summary_text.startswith("variant\tstep\t")
    assert trials_text.endswith("\n")
    # 2 trials x 8 steps x 3 variants + header
    assert len(trials_text.strip().split("\n")) == 1 + 2 * 8 * 3
    assert "mean OSPA" in capsys.readouterr().out


def test_variants_run_in_the_order_their_names_first_appear(tmp_path):
    # The two variants' keys interleave; each takes its place at its first key.
    text = (
        "scenario.steps = 2\n"
        "scenario.targets = 1:2\n"
        "filter.particles_per_target = 20\n"
        "run.trials = 1\n"
        "roughening.b.mode = separate\n"
        "roughening.a.mode = none\n"
        "roughening.b.jitter_std = 0.4\n"
    )
    cfg = tmp_path / "order.cfg"
    cfg.write_text(text, encoding="utf-8")
    config = load_run_config(cfg)
    assert list(config.variants) == ["b", "a"]
    summary, _ = run(config)
    assert summary.variant_names == ["b", "a"]
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "trials.txt").read_text().splitlines()[1:]
    assert [row.split("\t")[2] for row in rows] == ["b", "a"] * 2


def test_cli_run_is_deterministic_across_invocations(tmp_path):
    cfg = _write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out", str(out_b), "--workers", "2"]) == 0
    assert (out_a / "trials.txt").read_bytes() == (out_b / "trials.txt").read_bytes()
    assert (out_a / "summary.txt").read_bytes() == (out_b / "summary.txt").read_bytes()


def test_cli_scenario_dump(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path)
    out = tmp_path / "scene"
    code = cli_main(["scenario", "--config", str(cfg), "--out", str(out), "--trial", "1"])
    assert code == 0
    truth_lines = (out / "truth.txt").read_text().strip().split("\n")
    scan_lines = (out / "scans.txt").read_text().strip().split("\n")
    assert all(len(line.split("\t")) == 6 for line in truth_lines)
    assert all(len(line.split("\t")) == 3 for line in scan_lines)
    # 8 steps of target 1 + 7 of target 2
    assert len(truth_lines) == 8 + 7
    # The dump is the realization `run_trial` filters.
    config = load_run_config(cfg)
    _, scans = realize_trial(config, 1)
    buf = io.StringIO()
    write_scans(scans, buf)
    assert (out / "scans.txt").read_text() == buf.getvalue()
    filtered = []
    run_variant = harness._run_variant

    def spy(trial_scans, *args):
        filtered.append(trial_scans)
        return run_variant(trial_scans, *args)

    monkeypatch.setattr(harness, "_run_variant", spy)
    run_trial(config, 1)
    assert filtered
    for trial_scans in filtered:
        assert_same_scans(trial_scans, scans)
    with pytest.raises(SystemExit) as exc:  # argparse's usage error, exit 2
        cli_main(["scenario", "--config", str(cfg), "--out", str(out), "--trial", "-1"])
    assert exc.value.code == 2


def test_cli_run_fault_exits_1_and_names_trial_variant_step(tmp_path, capsys, monkeypatch):
    # A fault during a run is not a configuration error: exit 1, and the
    # message says where it happened.
    real_update = harness.update
    calls = 0

    def failing_update(pset, measurements, models):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise ValueError("injected fault")
        return real_update(pset, measurements, models)

    monkeypatch.setattr(harness, "update", failing_update)
    cfg = _write_config(tmp_path)
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "trial 0, variant 'basic', step 3" in err
    assert "ValueError: injected fault" in err


def _overflow_config(tmp_path):
    # A finite start state whose first propagation overflows to inf.
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("scenario.targets = 1:40:1e308:1e308:0:0\nrun.trials = 1\n", encoding="utf-8")
    return cfg


def test_scenario_fault_is_a_trial_error(tmp_path, capsys):
    # A finite start state that overflows while the truth is drawn is a
    # fault of the trial, not of the config: exit 1, naming the trial and
    # the scenario.
    cfg = _overflow_config(tmp_path)
    with pytest.raises(TrialError, match=r"^trial 0, scenario: ValueError: "):
        run_trial(load_run_config(cfg), 0)
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "error: trial 0, scenario: ValueError: " in capsys.readouterr().err


def test_cli_fault_prints_only_the_error_and_removes_the_out_dir_it_made(tmp_path):
    # A fresh interpreter, so that stderr shows exactly what a user sees:
    # the one error line and no numpy warning.  The output directory did
    # not exist before, so the failed run takes it away again.
    cfg = _overflow_config(tmp_path)
    out = tmp_path / "fresh"
    src = str(Path(smcphd.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "smcphd.cli", "run", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: trial 0, scenario: ValueError: state contains non-finite components\n"
    )
    assert not out.exists()


def test_cli_extraction_overflow_is_one_trial_error_and_no_warning(tmp_path):
    # Velocity noise of 1e200 loads, but by step 2 the particles' spread
    # overflows the weighted variance that standardizes them for k-means.
    # A fresh interpreter, so stderr shows exactly what a user sees.
    cfg = tmp_path / "spread.cfg"
    cfg.write_text("motion.sigma_v1 = 1e200\nscenario.steps = 5\nscenario.targets = 1:5, 2:5\n")
    src = str(Path(smcphd.__file__).resolve().parents[1])
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "smcphd.cli", "run", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(
        "error: trial 0, variant 'basic', step 2: FloatingPointError: overflow"
    )


_THREE_STEPS = "scenario.steps = 3\nscenario.targets = 1:3, 2:3\nrun.trials = 1\n"
_GORDON_1E308 = (
    "roughening.basic.mode = none\n"
    "roughening.gordon.mode = separate\n"
    "roughening.gordon.gordon_constant = 1e308\n"
)


@pytest.mark.parametrize(
    "keys, variant",
    [
        pytest.param("motion.sampling_interval = 1e-310\n", "direct", id="direct"),
        pytest.param(
            _GORDON_1E308 + "roughening.gordon.cap_to_measurement = false\n",
            "gordon",
            id="uncapped-gordon",
        ),
    ],
)
def test_cli_roughening_overflow_is_one_trial_error(tmp_path, capsys, keys, variant):
    # Direct mode's channel jitter delta / T overflows at T = 1e-310, and so
    # does a Gordon bandwidth with K = 1e308 that no cap clamps: each ends
    # the run with one error line that names the variant, and no warning.
    cfg = tmp_path / "rough.cfg"
    cfg.write_text(_THREE_STEPS + keys, encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: trial 0, variant {variant!r}, step 1: FloatingPointError: ")


def test_cli_direct_noise_of_a_finite_jitter_runs(tmp_path, capsys):
    # At T = 1e-300 the channel jitter delta / T is 4e299, whose square
    # overflows but whose root sum of squares with sigma_v does not.
    cfg = tmp_path / "direct.cfg"
    cfg.write_text(_THREE_STEPS + "motion.sampling_interval = 1e-300\n", encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    assert "direct" in (tmp_path / "o" / "summary.txt").read_text(encoding="utf-8")


def test_cli_capped_gordon_bandwidth_that_overflows_runs(tmp_path, capsys):
    # The measurement cap clamps a bandwidth that overflows to inf.
    cfg = tmp_path / "capped.cfg"
    cfg.write_text(_THREE_STEPS + _GORDON_1E308, encoding="utf-8")
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "module, name, where",
    [
        pytest.param(smcphd.scenario, "clutter_sample", "scenario", id="scenario"),
        pytest.param(harness, "extract_states", "variant 'basic', step 1", id="variant"),
    ],
)
def test_cli_out_of_memory_is_one_trial_error(tmp_path, capsys, monkeypatch, module, name, where):
    # An allocation that fails inside a trial, as a clutter rate of 1e9
    # makes numpy's do, ends the run with one error line, not a traceback,
    # and takes away the output directory the run made.  The stand-in
    # raises without allocating anything.
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 14.9 GiB")

    monkeypatch.setattr(module, name, out_of_memory)
    cfg = tmp_path / "memory.cfg"
    cfg.write_text(_THREE_STEPS, encoding="utf-8")
    out = tmp_path / "o"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: trial 0, {where}: MemoryError: Unable to allocate 14.9 GiB\n"
    )
    assert not out.exists()


def test_cli_fault_keeps_an_out_dir_that_existed(tmp_path):
    cfg = _overflow_config(tmp_path)
    out = tmp_path / "existing"
    out.mkdir()
    assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize("command, table", [("run", "trials.txt"), ("scenario", "truth.txt")])
def test_cli_table_that_cannot_be_written_exits_1_with_one_line(tmp_path, capsys, command, table):
    # A table's path is a directory: the OSError is one error line, not a
    # traceback, and the output directory, which existed, stays.
    cfg = _write_config(tmp_path, trials=1)
    out = tmp_path / "o1"
    (out / table).mkdir(parents=True)
    assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and table in err
    assert (out / table).is_dir()


def test_cli_write_error_removes_only_an_empty_out_dir_it_made(tmp_path, capsys, monkeypatch):
    # A write that fails before any table exists: the output directory is
    # removed if this call made it, and kept if it existed.
    def full_disk(out, writers):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_tables", full_disk)
    cfg = _write_config(tmp_path, trials=1)
    for command in ("run", "scenario"):
        out = tmp_path / command
        for existed in (False, True):
            assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 1
            assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
            assert out.is_dir() == existed
            out.mkdir(exist_ok=True)


def test_cli_undefined_gain_ratio_prints_one_error_and_removes_the_out_dir(tmp_path, capsys):
    # No target and no clutter: every variant scores OSPA 0 at every step,
    # so a gain ratio against the baseline's mean OSPA of 0 is undefined.
    cfg = tmp_path / "empty.cfg"
    text = "run.trials = 2\nscenario.steps = 3\nscenario.targets =\nclutter.rate = 0\n"
    cfg.write_text(text, encoding="utf-8")
    for command in ("run", "sweep"):
        out = tmp_path / command
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: gain ratios against variant 'basic': "
            "baseline mean OSPA must be finite and > 0\n"
        )
        assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_cli_rejects_a_worker_count_below_one(tmp_path, capsys, command, workers):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:  # argparse's usage error, exit 2
        cli_main([command, "--out", str(out), "--trials", "1", "--workers", workers])
    assert exc.value.code == 2
    assert "--workers: must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_table_names_the_baseline_variant(tmp_path):
    cfg = tmp_path / "plain.cfg"
    text = (
        "scenario.steps = 4\n"
        "scenario.targets = 1:4\n"
        "filter.particles_per_target = 30\n"
        "roughening.plain.mode = none\n"
        "run.sweep_grid = 0.4\n"
        "run.trials = 1\n"
    )
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.txt").read_text().split("\n")
    assert lines[1].startswith("-\tplain\t")
    assert (out / "summary.txt").read_text().split("\n")[1].startswith("plain\t")


def test_cli_rejects_bad_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("filter.particles_per_target = 0\n", encoding="utf-8")
    assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("nope = 1\n", encoding="utf-8")
    assert cli_main(["run", "--config", str(unknown), "--out", str(tmp_path / "y")]) == 2


# Certain detection, no clutter and no target before step 3: the scans of
# steps 1 and 2 are empty, so both updates leave zero mass.
ZERO_MASS_START_CONFIG = {
    "detection.p_detect": "1",
    "clutter.rate": "0",
    "scenario.steps": "12",
    "scenario.targets": "3:12, 8:12",
}


def test_a_zero_mass_step_hands_the_next_step_births():
    # A zero mass is no target now, not a lost track: the next step's births
    # pick up the targets born at steps 3 and 8.
    config = run_config_from_mapping({**ZERO_MASS_START_CONFIG, "run.trials": "1"})
    result = run_trial(config, 0)
    for name in config.variants:
        assert np.any(result.est_counts[name][2:] >= 1)
        assert np.mean(result.ospa_values[name][2:]) < 20.0


# Birth weights of 1e-308 / 400 and no survivors: every weight that reaches
# the update is subnormal unless predict flushes it.
SUBNORMAL_BIRTH_CONFIG = {
    "birth.mass": "1e-308",
    "filter.birth_particles": "400",
    "clutter.rate": "0",
    "detection.p_survive": "0",
    "scenario.steps": "1",
    "scenario.targets": "1:1, 1:1, 1:1, 1:1",
}


def test_cli_run_with_subnormal_birth_weights_writes_both_tables(tmp_path, capsys):
    cfg = tmp_path / "subnormal.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in SUBNORMAL_BIRTH_CONFIG.items()))
    out = tmp_path / "o"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out), "--trials", "2"]) == 0
    assert "error" not in capsys.readouterr().err
    # Every variant's step-1 mass is zero: it estimates no target and scores
    # the cutoff against four.
    assert (out / "trials.txt").read_text().split("\n")[1] == "0\t1\tbasic\t4\t0\t100"
    assert (out / "summary.txt").exists()


def _log_uniform(low_exp, high_exp):
    return st.floats(low_exp, high_exp).map(lambda e: repr(10.0**e))


_PROBABILITY = st.one_of(
    st.sampled_from(["0", "1", repr(1 - 2.0**-40)]), st.floats(0, 1).map(repr)
)
_BOOLEAN = st.sampled_from(["true", "false"])


@st.composite
def _loadable_configs(draw):
    """Config mappings over the model space that load, at 1-4 steps, 0-4
    targets and at most 50 particles per target; the separate and direct
    variants each take a fixed or a Gordon jitter."""
    steps = draw(st.integers(1, 4))
    schedule = st.tuples(st.integers(1, steps), st.integers(1, steps)).map(sorted)
    targets = draw(st.lists(schedule, max_size=4))
    motion_noise = st.one_of(st.just("0"), _log_uniform(-3, 3))
    kv = {
        "scenario.steps": str(steps),
        "scenario.targets": ", ".join(f"{b}:{d}" for b, d in targets),
        "motion.sampling_interval": draw(_log_uniform(-6, 0.3)),
        "motion.sigma_v1": draw(motion_noise),
        "motion.sigma_v2": draw(motion_noise),
        "measurement.sigma_w1": draw(_log_uniform(-3, 3)),
        "measurement.sigma_w2": draw(_log_uniform(-3, 3)),
        "birth.mass": draw(
            st.one_of(
                st.sampled_from(["0", "1e-300", "1e-308", "5e-324"]), st.floats(0, 3).map(repr)
            )
        ),
        "filter.birth_particles": str(draw(st.integers(0, 400))),
        "clutter.rate": draw(st.one_of(st.sampled_from(["0", "1e-320"]), st.floats(0, 60).map(repr))),
        # Over the targets, which start near the origin, or beside them.
        "clutter.region": draw(st.sampled_from(["-100, 100, -100, 100", "150, 350, -100, 100"])),
        "detection.p_survive": draw(_PROBABILITY),
        "detection.p_detect": draw(_PROBABILITY),
        "filter.particles_per_target": str(draw(st.integers(1, 50))),
        "resample.scheme": draw(st.sampled_from(["systematic", "multinomial"])),
        "run.master_seed": str(draw(st.integers(0, 2**32 - 1))),
        "roughening.basic.mode": "none",
    }
    for mode in ("separate", "direct"):
        keys = {"mode": mode, "cap_to_measurement": draw(_BOOLEAN)}
        if draw(st.booleans()):
            keys["jitter_std"] = repr(draw(st.floats(0, 5)))
        else:
            keys["gordon_constant"] = repr(draw(st.floats(0, 1)))
            keys["gordon_positive_exponent"] = draw(_BOOLEAN)
        kv.update({f"roughening.{mode}.{k}": v for k, v in keys.items()})
    return kv


@settings(max_examples=100, deadline=None)
@given(kv=_loadable_configs())
@example(kv=SUBNORMAL_BIRTH_CONFIG)
@example(  # roughening with both guards on the set that a zero-mass step resets
    kv={
        **ZERO_MASS_START_CONFIG,
        "roughening.basic.mode": "none",
        "roughening.separate.mode": "separate",
        "roughening.separate.jitter_std": "0.4",
        "roughening.separate.selective_threshold": "0.9",
        "roughening.separate.overlapped_only": "true",
    }
)
def test_every_loadable_config_runs_cleanly(kv):
    # A config that loads runs to the end with no numeric warning: the
    # suite turns every RuntimeWarning into an error.
    config = run_config_from_mapping(kv)
    result = run_trial(config, 0)
    for name in config.variants:
        assert np.all(result.est_counts[name] >= 0)
        values = result.ospa_values[name]
        assert np.all((values >= 0) & (values <= config.ospa.cutoff))


def _signed_log_uniform(low_exp, high_exp):
    sign = st.sampled_from([-1.0, 1.0])
    return st.tuples(sign, st.floats(low_exp, high_exp)).map(lambda t: repr(t[0] * 10.0 ** t[1]))


@st.composite
def _extreme_configs(draw):
    """`_loadable_configs` with its constants drawn out to the float
    extremes: sampling intervals down to 1e-300, noise stds, jitters, Gordon
    constants and the birth density's mean and variances up to 1e300, and
    clutter regions of half-width 1e-150 or 1e150."""
    kv = draw(_loadable_configs())
    huge = st.one_of(st.just("0"), _log_uniform(-300, 300))
    kv["motion.sampling_interval"] = draw(_log_uniform(-300, 2))
    kv["motion.sigma_v1"] = draw(huge)
    kv["motion.sigma_v2"] = draw(huge)
    mean = st.lists(_signed_log_uniform(-300, 300), min_size=4, max_size=4)
    cov_diag = st.lists(_log_uniform(-300, 300), min_size=4, max_size=4)
    kv["birth.mean"] = ", ".join(draw(mean))
    kv["birth.cov_diag"] = ", ".join(draw(cov_diag))
    half = draw(st.sampled_from([1e-150, 1e150]))
    kv["clutter.region"] = f"{-half!r}, {half!r}, {-half!r}, {half!r}"
    for mode in ("separate", "direct"):
        key = "jitter_std" if f"roughening.{mode}.jitter_std" in kv else "gordon_constant"
        kv[f"roughening.{mode}.{key}"] = draw(huge)
    return kv


@settings(max_examples=60, deadline=None)
@given(kv=_extreme_configs())
def test_every_loadable_config_at_the_float_extremes_ends_in_results_or_a_trial_error(kv):
    # Overflow and underflow may end the trial, but only as one TrialError:
    # no numeric warning escapes (the suite turns each into an error), and
    # no other exception does.
    config = run_config_from_mapping(kv)
    try:
        result = run_trial(config, 0)
    except TrialError:
        return
    for name in config.variants:
        assert np.all(result.est_counts[name] >= 0)
        values = result.ospa_values[name]
        assert np.all((values >= 0) & (values <= config.ospa.cutoff))


def test_cli_seed_and_trials_overrides(tmp_path):
    cfg = _write_config(tmp_path, trials=5)
    out = tmp_path / "o"
    code = cli_main(
        ["run", "--config", str(cfg), "--out", str(out), "--trials", "1", "--seed", "9"]
    )
    assert code == 0
    lines = (out / "trials.txt").read_text().strip().split("\n")
    assert len(lines) == 1 + 1 * 8 * 3


def test_single_target_clean_sensor_tracks_tightly():
    # Pre-registered sanity bound: with one target, no clutter and certain
    # detection, the mean miss distance over steps 10-40 stays far below the
    # cutoff (pilot measured ~2.3 at Np=200; bound fixed at 10).
    base = benchmark_preset(particles_per_target=200, trials=20, master_seed=1)
    models = ModelSet(
        motion=base.scenario.models.motion,
        measurement=base.scenario.models.measurement,
        birth=base.scenario.models.birth,
        clutter=ClutterModel(rate=0.0, region=(-100, 100, -100, 100)),
        detection=DetectionModel(p_survive=0.95, p_detect=1.0),
    )
    config = replace(
        base,
        scenario=ScenarioConfig(steps=40, targets=[TargetScript(1, 40)], models=models),
        variants={"basic": RougheningConfig(mode="none")},
    )
    summary, _ = run(config, workers=2)
    assert float(np.mean(summary.mean_step_ospa["basic"][9:])) < 10.0


def test_cli_sweep_writes_tables(tmp_path, capsys):
    text = (
        "scenario.steps = 8\n"
        "scenario.targets = 1:8, 2:8\n"
        "filter.particles_per_target = 40\n"
        "run.trials = 2\n"
        "run.master_seed = 3\n"
        "run.sweep_grid = 0, 0.4\n"
    )
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "sweep_out"
    code = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    sweep_text = (out / "sweep.txt").read_text()
    lines = sweep_text.strip().split("\n")
    assert lines[0] == "delta_r\tmode\tmean_ospa\tgain_ratio"
    # baseline row + 2 grid values x 2 modes
    assert len(lines) == 1 + 1 + 2 * 2
    assert (out / "summary.txt").exists() and (out / "trials.txt").exists()
    # Standard output: a header, then one line for the baseline and for each
    # arm in order, each with the gain sweep.txt holds, then `wrote ...`.
    printed = capsys.readouterr().out.splitlines()
    arms = list(load_run_config(cfg).sweep_variants())
    assert [line.split(": mean OSPA ")[0] for line in printed[1:-1]] == arms
    assert printed[-1].startswith("wrote ")
    for line, row in zip(printed[1:-1], lines[1:]):
        assert abs(float(line.split("gain ratio ")[1]) - float(row.split("\t")[3])) <= 1e-4


def test_runtime_imports_load_no_scipy():
    # numpy is the one runtime dependency: the CLI and the harness, with
    # everything they import, load no scipy module in a fresh interpreter.
    src = str(Path(smcphd.__file__).resolve().parents[1])
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import smcphd.cli, smcphd.harness, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_serial_run_loads_no_pool_logging_or_fractions():
    # A serial run needs none of these: the pool, a logger and exact
    # fractions are imported where they are used.  What
    # every run needs, numpy.random, is loaded with the library.
    src = str(Path(smcphd.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from smcphd import config, harness\n"
        "assert 'numpy.random' in sys.modules\n"
        "cfg = config.benchmark_preset(particles_per_target=20, trials=1, master_seed=3)\n"
        "harness.run(cfg)\n"
        "names = ('concurrent.futures', 'multiprocessing', 'logging', 'fractions', 'decimal')\n"
        "print(sorted(m for m in names if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
