"""Command-line interface for the benchmark harness.

Subcommands: run (Monte Carlo comparison of the configured variants),
sweep (the same run over the baseline and both roughening modes at each
jitter level), scenario (dump one realization's truth and scans).  Exit
code 2: the config or the output directory was rejected before any work
started; 1: a trial failed or an output table could not be written.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import PRESETS, load_preset, load_run_config
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


def _integer_at_least(low: int):
    """An argparse type: a decimal integer that is at least `low`."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return int(text)

    return parse


def _load_config(args):
    if args.config is not None:
        config = load_run_config(args.config)
    else:
        config = load_preset(args.preset or "paper-np200")
    overrides = {"trials": args.trials, "master_seed": args.seed}
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _write_tables(out: Path, writers: dict) -> list:
    """Write each `{file name: writer(fh)}` entry to its file under `out`,
    in order; returns the paths written."""
    for name, write in writers.items():
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
    return [out / name for name in writers]


def _cmd_run(config, args) -> int:
    """`run` runs the configured variants; `sweep` runs
    `config.sweep_variants()` and also writes sweep.txt.  Both print one
    mean OSPA and gain ratio line per variant."""
    writers = {}
    if args.command == "sweep":
        result, summary, results = sweep(config, workers=args.workers)
        writers["sweep.txt"] = lambda fh: write_sweep_table(result, fh)
    else:
        summary, results = run(config, workers=args.workers)
    writers["trials.txt"] = lambda fh: write_trials_table(results, summary.variant_names, fh)
    writers["summary.txt"] = lambda fh: write_summary_table(summary, fh)
    *paths, last = _write_tables(args.out, writers)
    print(f"trials={summary.trials} steps={summary.steps} seed={summary.master_seed}")
    for name in summary.variant_names:
        print(
            f"{name}: mean OSPA {summary.mean_ospa[name]:.4f}"
            f"  gain ratio {summary.gain_ratios[name]:+.4f}"
        )
    print(f"wrote {', '.join(map(str, paths))} and {last}")
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
    for command, text in (
        ("run", "Monte Carlo comparison run"),
        ("sweep", "the run over both roughening modes at each jitter level"),
    ):
        p = sub.add_parser(command, help=text)
        _add_common(p)
        p.add_argument(
            "--workers", type=_integer_at_least(1), default=1, help="parallel trial processes"
        )
        p.set_defaults(func=_cmd_run)
    p = sub.add_parser("scenario", help="dump one realization's truth and scans")
    _add_common(p)
    p.add_argument("--trial", type=_integer_at_least(0), default=0, help="trial index to realize")
    p.set_defaults(func=_cmd_scenario)
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
    except (TrialError, OSError) as exc:
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
