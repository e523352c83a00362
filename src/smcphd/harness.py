"""Monte Carlo benchmark driver.

Runs every configured filter variant over shared per-trial realizations
(paired comparison: identical truth and scans within a trial), aggregates
per-step cardinality and miss-distance records, and writes fixed-format
text tables that are byte-identical for a given config and master seed,
serial or parallel.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .config import SWEEP_MODES, RunConfig, arm_name
from .extraction import extract_states
from .filter import predict, update
from .metrics import gain_ratio, ospa
from .models import POSITION_IDX
from .particles import empty_set, round_half_up
from .resampling import resample
from .roughening import RougheningConfig, direct_motion, separate_roughen
from .scenario import GroundTruth, ScanData, generate_truth, simulate_scans


class TrialError(RuntimeError):
    """A numeric or value fault raised while running or summarizing trials;
    the message names the trial and the scenario, the variant and step, or
    the baseline it hit."""


def _trial_error(trial: int, where: str, exc: Exception) -> TrialError:
    return TrialError(f"trial {trial}, {where}: {type(exc).__name__}: {exc}")


@dataclass
class TrialResult:
    trial: int
    true_counts: np.ndarray  # (steps,)
    est_counts: dict  # variant name -> (steps,)
    ospa_values: dict  # variant name -> (steps,)


@dataclass
class RunSummary:
    variant_names: list
    baseline_name: str
    steps: int
    trials: int
    master_seed: int
    mean_true_counts: np.ndarray  # (steps,)
    mean_est_counts: dict  # variant -> (steps,)
    mean_step_ospa: dict  # variant -> (steps,)
    mean_ospa: dict  # variant -> grand mean over steps and trials
    gain_ratios: dict  # variant -> reduction vs. baseline


@dataclass
class SweepResult:
    grid: tuple
    summary: RunSummary  # every arm's values, keyed by `config.arm_name`


def _run_variant(
    scans: ScanData,
    true_points: list,
    config: RunConfig,
    name: str,
    roughening: RougheningConfig,
    trial: int,
):
    """Run one filter variant over a trial's scans, scoring each step.

    The one place a variant's roughening mode enters a step: direct mode
    predicts with `direct_motion`, separate mode jitters the resampled set.
    Returns per-step cardinality estimates and OSPA values.  A step whose
    updated mass is zero estimates no target and hands the next step an
    empty set, so that step's births alone carry mass.  A ValueError,
    ArithmeticError or MemoryError inside a step is re-raised as a
    TrialError that says where it happened.  Each purpose's generator is
    made once, before the first step, and drawn from across the steps.
    """
    seed = config.master_seed
    prediction = rng.stream(seed, trial, "prediction")
    extraction = rng.stream(seed, trial, "extraction")
    resampling = rng.stream(seed, trial, "resampling")
    if roughening.mode == "separate":
        jitter = rng.stream(seed, trial, "roughening")
    models = config.scenario.models
    steps = config.scenario.steps
    pset = empty_set()
    est_counts = np.zeros(steps, dtype=int)
    ospa_values = np.zeros(steps)
    for step in range(1, steps + 1):
        try:
            step_models = models
            if roughening.mode == "direct":
                motion = direct_motion(pset, roughening, models.motion, models.measurement)
                step_models = replace(models, motion=motion)
            pset = predict(pset, step_models, config.filter, prediction)
            pset = update(pset, scans.at(step), models)
            mass = pset.total_weight()
            n_hat = round_half_up(mass)
            states = extract_states(pset, n_hat, extraction)
            est_counts[step - 1] = n_hat
            if mass > 0:
                pset = resample(pset, mass, config.filter, resampling)
                if roughening.mode == "separate":
                    pset = separate_roughen(
                        pset, roughening, models.motion, models.measurement, jitter
                    )
            else:
                pset = empty_set()
            points = _ospa_points(states, config)
            ospa_values[step - 1] = ospa(points, true_points[step - 1], config.ospa)
        except (ValueError, ArithmeticError, MemoryError) as exc:
            where = f"variant {name!r}, step {step}"
            raise _trial_error(trial, where, exc) from exc
    return est_counts, ospa_values


def _ospa_points(states: np.ndarray, config: RunConfig) -> np.ndarray:
    """The components of `(n, 4)` states that OSPA scores: all four with
    `ospa.full_state`, else the positions."""
    return states if config.ospa_full_state else states[:, POSITION_IDX]


def realize_trial(config: RunConfig, trial_index: int) -> tuple[GroundTruth, ScanData]:
    """One trial's ground truth and scans, drawn from its scenario streams;
    a ValueError, ArithmeticError or MemoryError while drawing them becomes
    a TrialError."""
    seed = config.master_seed
    try:
        truth = generate_truth(config.scenario, rng.stream(seed, trial_index, "truth"))
        scans = simulate_scans(
            truth,
            config.scenario,
            rng.stream(seed, trial_index, "detection"),
            rng.stream(seed, trial_index, "measurement"),
            rng.stream(seed, trial_index, "clutter"),
            rng.stream(seed, trial_index, "shuffle"),
        )
    except (ValueError, ArithmeticError, MemoryError) as exc:
        raise _trial_error(trial_index, "scenario", exc) from exc
    return truth, scans


def _roughening_key(roughening: RougheningConfig) -> RougheningConfig | None:
    """A hashable key for a variant's roughening config: variants with equal
    keys produce bit-identical columns.  Configs compare by value, and inert
    ones (`RougheningConfig.inert`) share the baseline's key, None."""
    return None if roughening.inert else roughening


def run_trial(config: RunConfig, trial_index: int) -> TrialResult:
    """One trial: one realization, every variant on the same scans.

    All random streams are derived from (master_seed, trial, purpose) only,
    so a variant's draws do not depend on which other variants run, and two
    variants with identical roughening configs produce identical columns.
    So the filter runs once per distinct config (`_roughening_key`): variants
    with the same config, and zero-jitter variants with the baseline, share
    one run, and each gets a copy of its columns.  A fault is reported
    under the first variant that has the failing config.
    """
    truth, scans = realize_trial(config, trial_index)

    truth_states = [truth.states_at(k) for k in range(1, config.scenario.steps + 1)]
    true_counts = np.array([len(states) for states in truth_states])
    true_points = [_ospa_points(states, config) for states in truth_states]

    est_counts: dict = {}
    ospa_values: dict = {}
    runs: dict = {}
    for name, roughening in config.variants.items():
        key = _roughening_key(roughening)
        if key not in runs:
            runs[key] = _run_variant(scans, true_points, config, name, roughening, trial_index)
        counts, values = runs[key]
        est_counts[name] = counts.copy()
        ospa_values[name] = values.copy()
    return TrialResult(
        trial=trial_index,
        true_counts=true_counts,
        est_counts=est_counts,
        ospa_values=ospa_values,
    )


def _trial_task(item) -> TrialResult:
    config, index = item
    return run_trial(config, index)


def pool_size(workers: int, trials: int, cpus: int | None) -> int:
    """Worker processes worth starting: no more than asked for, than there
    are trials to run, or than there are CPUs (`cpus` None means unknown)."""
    return max(1, min(workers, trials, cpus or workers))


def run_trials(config: RunConfig, workers: int = 1) -> list:
    """All trials, optionally across processes; order is by trial index
    either way (`Executor.map` yields in input order), so downstream output
    is identical."""
    indices = list(range(config.trials))
    # The CPUs this process may run on, where the platform reports them.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    workers = pool_size(workers, len(indices), cpus)
    if workers <= 1:
        return [run_trial(config, i) for i in indices]
    from concurrent.futures import ProcessPoolExecutor  # a serial run loads no pool

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_trial_task, [(config, i) for i in indices], chunksize=1))


def summarize(config: RunConfig, results: list) -> RunSummary:
    names = list(config.variants)
    steps = config.scenario.steps
    mean_true = np.mean([r.true_counts for r in results], axis=0)
    mean_est = {
        name: np.mean([r.est_counts[name] for r in results], axis=0) for name in names
    }
    mean_step_ospa = {
        name: np.mean([r.ospa_values[name] for r in results], axis=0) for name in names
    }
    mean_ospa = {
        name: float(
            math.fsum(math.fsum(r.ospa_values[name].tolist()) for r in results)
            / (len(results) * steps)
        )
        for name in names
    }
    baseline = config.baseline
    try:
        gains = {name: gain_ratio(mean_ospa[baseline], mean_ospa[name]) for name in names}
    except ValueError as exc:
        raise TrialError(f"gain ratios against variant {baseline!r}: {exc}") from exc
    return RunSummary(
        variant_names=names,
        baseline_name=baseline,
        steps=steps,
        trials=len(results),
        master_seed=config.master_seed,
        mean_true_counts=mean_true,
        mean_est_counts=mean_est,
        mean_step_ospa=mean_step_ospa,
        mean_ospa=mean_ospa,
        gain_ratios=gains,
    )


def run(config: RunConfig, workers: int = 1):
    results = run_trials(config, workers)
    return summarize(config, results), results


# --- roughening-degree sweep --------------------------------------------------


def sweep(config: RunConfig, workers: int = 1):
    """Gain ratio of both roughening modes at each jitter level: one paired
    run over `config.sweep_variants()`."""
    summary, results = run(replace(config, variants=config.sweep_variants()), workers)
    return SweepResult(config.sweep_grid, summary), summary, results


# --- fixed-format output tables -----------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def write_trials_table(results: list, variant_names: list, fileobj) -> None:
    """Long-format per-trial table: trial step variant true_n est_n ospa."""
    fileobj.write("trial\tstep\tvariant\ttrue_n\test_n\tospa\n")
    for result in results:
        steps = len(result.true_counts)
        for k in range(steps):
            for name in variant_names:
                fileobj.write(
                    f"{result.trial}\t{k + 1}\t{name}\t{result.true_counts[k]}"
                    f"\t{result.est_counts[name][k]}\t{_fmt(result.ospa_values[name][k])}\n"
                )


def write_summary_table(summary: RunSummary, fileobj) -> None:
    """Per-variant per-step means with the variant-level aggregates repeated
    on every row: variant step mean_true_n mean_est_n mean_ospa
    overall_mean_ospa gain_ratio."""
    fileobj.write(
        "variant\tstep\tmean_true_n\tmean_est_n\tmean_ospa\toverall_mean_ospa\tgain_ratio\n"
    )
    for name in summary.variant_names:
        for k in range(summary.steps):
            fileobj.write(
                f"{name}\t{k + 1}\t{_fmt(summary.mean_true_counts[k])}"
                f"\t{_fmt(summary.mean_est_counts[name][k])}"
                f"\t{_fmt(summary.mean_step_ospa[name][k])}"
                f"\t{_fmt(summary.mean_ospa[name])}"
                f"\t{_fmt(summary.gain_ratios[name])}\n"
            )


def write_sweep_table(result: SweepResult, fileobj) -> None:
    """Sweep table: delta_r mode mean_ospa gain_ratio, after one baseline
    row that holds `-` and the baseline variant's name."""
    summary = result.summary
    fileobj.write("delta_r\tmode\tmean_ospa\tgain_ratio\n")
    baseline = summary.baseline_name
    fileobj.write(f"-\t{baseline}\t{_fmt(summary.mean_ospa[baseline])}\t{_fmt(0.0)}\n")
    for delta in result.grid:
        for mode in SWEEP_MODES:
            name = arm_name(mode, delta)
            fileobj.write(
                f"{delta:g}\t{mode}\t{_fmt(summary.mean_ospa[name])}"
                f"\t{_fmt(summary.gain_ratios[name])}\n"
            )
