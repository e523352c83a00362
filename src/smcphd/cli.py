"""Command-line interface for the benchmark harness.

Subcommands: run (Monte Carlo comparison of the configured variants),
sweep (gain ratio across jitter levels), scenario (dump one realization's
truth and scans).  Exit code 2 means the configuration or the output
directory was rejected before any work started; 1 means a trial failed.
"""

import argparse
import sys
from pathlib import Path

from .config import PRESETS, SWEEP_MODES, arm_name, load_preset, load_run_config, with_overrides
from .harness import (
    TrialError,
    realize_trial,
    run,
    sweep,
    write_summary_table,
    write_sweep_table,
    write_trials_table,
)
from .scenario import write_scans, write_truth


def _add_common(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--config", type=Path, help="key/value config file")
    group.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="named built-in configuration (default: paper-np200)",
    )
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--trials", type=int, help="override the trial count")
    parser.add_argument("--out", type=Path, default=Path("results"), help="output directory")


def _trial_index(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _load_config(args):
    if args.config is not None:
        config = load_run_config(args.config)
    else:
        config = load_preset(args.preset or "paper-np200")
    return with_overrides(config, trials=args.trials, master_seed=args.seed)


def _write_tables(out: Path, writers: dict) -> list:
    """Write each `{file name: writer(fh)}` entry to its file under `out`,
    in order; returns the paths written."""
    for name, write in writers.items():
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
    return [out / name for name in writers]


def _cmd_run(config, args) -> int:
    summary, results = run(config, workers=args.workers)
    trials_path, summary_path = _write_tables(
        args.out,
        {
            "trials.txt": lambda fh: write_trials_table(results, config.variant_names(), fh),
            "summary.txt": lambda fh: write_summary_table(summary, fh),
        },
    )
    print(f"trials={summary.trials} steps={summary.steps} seed={summary.master_seed}")
    for name in summary.variant_names:
        print(
            f"{name}: mean OSPA {summary.mean_ospa[name]:.4f}"
            f"  gain ratio {summary.gain_ratios[name]:+.4f}"
        )
    print(f"wrote {trials_path} and {summary_path}")
    return 0


def _cmd_sweep(config, args) -> int:
    result, summary, results = sweep(config, workers=args.workers)
    sweep_path, trials_path, summary_path = _write_tables(
        args.out,
        {
            "sweep.txt": lambda fh: write_sweep_table(result, fh),
            "trials.txt": lambda fh: write_trials_table(results, summary.variant_names, fh),
            "summary.txt": lambda fh: write_summary_table(summary, fh),
        },
    )
    print(f"baseline mean OSPA {summary.mean_ospa[summary.baseline_name]:.4f}")
    for delta in result.grid:
        line = f"delta_r={delta:g}:"
        for mode in SWEEP_MODES:
            line += f"  {mode} gain {summary.gain_ratios[arm_name(mode, delta)]:+.4f}"
        print(line)
    print(f"wrote {sweep_path}, {summary_path} and {trials_path}")
    return 0


def _cmd_scenario(config, args) -> int:
    truth, scans = realize_trial(config, args.trial)
    truth_path, scans_path = _write_tables(
        args.out,
        {
            "truth.txt": lambda fh: write_truth(truth, fh),
            "scans.txt": lambda fh: write_scans(scans, fh),
        },
    )
    print(f"wrote {truth_path} and {scans_path} (trial {args.trial})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smcphd",
        description="Particle intensity-filter benchmark: basic vs. roughened variants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="Monte Carlo comparison run")
    _add_common(p_run)
    p_run.add_argument("--workers", type=int, default=1, help="parallel trial processes")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="gain ratio across jitter levels")
    _add_common(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel trial processes")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_scen = sub.add_parser("scenario", help="dump one realization's truth and scans")
    _add_common(p_scen)
    p_scen.add_argument("--trial", type=_trial_index, default=0, help="trial index to realize")
    p_scen.set_defaults(func=_cmd_scenario)

    return parser


def _make_out_dir(path: Path) -> bool:
    """Create the output directory (and its parents) if needed; True when
    this call created it."""
    try:
        path.mkdir(parents=True)
    except FileExistsError:
        if not path.is_dir():
            raise
        return False
    return True


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        created = _make_out_dir(args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(config, args)
    except TrialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if created:
            # Leave no empty directory behind; one that already existed, or
            # that now holds files, stays.
            try:
                args.out.rmdir()
            except OSError:
                pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
