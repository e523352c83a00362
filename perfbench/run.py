"""Monte Carlo trial-throughput benchmark of smcphd.

    python3 perfbench/run.py --workload np200 --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the library from `src/`.  For
one workload it generates a config file from the seed, starts fresh Python
processes that load it with `smcphd.config` and run `smcphd.harness.run` or
`sweep`, checks the `trials.txt`/`summary.txt` tables they write, and prints
each metric by name and unit.  The last line of standard output is one JSON
object: with `--trace 0` the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run.  See perfbench/README.md.

Load model: a closed loop.  A fixed number of trials, sized so that a run
lasts about `--seconds` on a 2-core machine, runs from one main process;
a trial starts whenever a worker is free, with at most `workers` workers.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# Why each workload exists is in BENCHMARK.json.  `trial_s` is the wall time
# one trial adds to a run on a 2-core x86 machine (per worker slot for the
# pool); it only sizes the trial count.
WORKLOADS = {
    "np200": dict(particles=200, clutter=10, workers=1, sweep=False, trial_s=0.30),
    "np1000": dict(particles=1000, clutter=10, workers=1, sweep=False, trial_s=1.40),
    "sweep-w2": dict(particles=200, clutter=10, workers=2, sweep=True, trial_s=0.95),
    "clutter50": dict(particles=200, clutter=50, workers=1, sweep=False, trial_s=0.45),
}
SETUP_PROBES = 7
STEPS = 40
OSPA_CUTOFF = 100.0
OSPA_REL_TOL = 1e-6  # per-variant mean OSPA against the reference
DEADLINE_S = 170.0
# Printed, not gated: raw wall-time figures swing by up to a third between
# runs on a shared host, and the calibration time is the host's speed itself.
DIAGNOSTIC_UNITS = {"trials_per_s": "1/s", "trial_s.p50": "s", "calibration_s": "s"}

CONFIG = """\
# Generated by perfbench/run.py: the paper-np200/np1000 preset, spelled out.
scenario.steps = {steps}
scenario.targets = 1:40, 1:28, 8:40, 15:40
motion.sampling_interval = 1
motion.sigma_v1 = 1.0
motion.sigma_v2 = 0.1
measurement.sigma_w1 = 2.5
measurement.sigma_w2 = 2.5
birth.mass = 0.2
birth.mean = 0, 3, 0, -3
birth.cov_diag = 10, 1, 10, 1
clutter.rate = {clutter}
clutter.region = -100, 100, -100, 100
detection.p_survive = 0.95
detection.p_detect = 0.95
filter.particles_per_target = {particles}
resample.scheme = systematic
ospa.cutoff = {cutoff:g}
ospa.order = 2
run.trials = {trials}
run.master_seed = {seed}
run.sweep_grid = 0, 0.1, 0.2, 0.4, 0.8, 1.6, 2.5
roughening.basic.mode = none
roughening.separate.mode = separate
roughening.separate.jitter_std = 0.4
roughening.direct.mode = direct
roughening.direct.jitter_std = 0.4
"""


def trial_count(workload, seconds, trace):
    """Trials per pass: a run (one pass, or four traced/untraced passes)
    takes about `seconds` on the reference machine."""
    w = WORKLOADS[workload]
    per_quarter = max(w["workers"], round(seconds / 4 / w["trial_s"]))
    return per_quarter if trace else 4 * per_quarter


class ChildFailed(RuntimeError):
    pass


def _launch(mode, job_path, deadline):
    """Run child.py to completion in its own session; kill the whole group
    (pool workers included) if it outlives the deadline."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter_ns()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode, str(job_path)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} process exceeded the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited with {proc.returncode}:\n{err[-3000:]}")
    return start, time.perf_counter_ns(), out


def _check_trials_table(path, trials, variants):
    """Invariants every seed must meet; returns the set of failing trials."""
    expected = {(t, s, v) for t in range(trials) for s in range(1, STEPS + 1) for v in variants}
    bad = set()
    with open(path, encoding="utf-8") as fh:
        if fh.readline() != "trial\tstep\tvariant\ttrue_n\test_n\tospa\n":
            return set(range(trials))
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            try:
                key = (int(fields[0]), int(fields[1]), fields[2])
                est_n, value = int(fields[4]), float(fields[5])
            except (IndexError, ValueError):
                return set(range(trials))
            if key not in expected:
                bad.add(key[0])
                continue
            expected.discard(key)
            if est_n < 0 or not (math.isfinite(value) and 0.0 <= value <= OSPA_CUTOFF):
                bad.add(key[0])
    bad.update(t for t, _, _ in expected)
    return bad


def check(passes, trials, reference, out_dir):
    """Failed trial count, and whether the tables match the reference hashes
    (None without a reference)."""
    failed = 0
    first = None
    for i, record in enumerate(passes):
        if record["error"] is not None:
            failed += trials
            continue
        if first is None:
            first = record
            bad = _check_trials_table(out_dir / f"tables{i}" / "trials.txt", trials, record["variants"])
            if reference is not None:
                for name, value in reference["mean_ospa"].items():
                    got = record["mean_ospa"].get(name, math.nan)
                    if not abs(got - value) <= OSPA_REL_TOL * abs(value):
                        bad = set(range(trials))
            record["bad_trials"] = min(len(bad), trials)
        elif record["files"] != first["files"]:
            record["bad_trials"] = trials  # tracing or a rerun changed the output
        failed += record.get("bad_trials", 0)
    identical = None
    if reference is not None and first is not None:
        identical = all(
            first["files"].get(name, [None])[0] == digest for name, digest in reference["sha256"].items()
        )
    return failed, identical


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _wall(record):
    return (record["end_ns"] - record["start_ns"]) * 1e-9


def end_to_end(passes, probes, result, trials, workers):
    """Wall-time figures exclude the calibration kernel that runs after each
    trial; the pool's kernels overlap, so they cost 1/workers of their sum."""
    record = passes[0]
    durations = [e - s for s, e in zip(record["trial_start_ns"], record["trial_end_ns"])]
    kernels = record["kernel_ns"]
    kernel_ns = statistics.median(k for ks in kernels for k in ks)
    wall_ns = record["end_ns"] - record["start_ns"] - sum(map(sum, kernels)) / workers
    return {
        "trials_per_s": trials / (wall_ns * 1e-9),
        "trial_s.p50": statistics.median(durations) * 1e-9,
        "trials_per_cal": trials * kernel_ns / wall_ns,
        "trial_cal.p50": statistics.median(durations) / kernel_ns,
        "calibration_s": kernel_ns * 1e-9,
        "setup_s": statistics.median(probes),
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
        "mean_ospa": statistics.fmean(record["mean_ospa"].values()),
    }


def _units(trace):
    """Metric names and units, in order, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def per_layer(passes, result):
    metrics = dict(result["layers"])
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics["trace.overhead_frac"] = sum(map(_wall, traced)) / sum(map(_wall, plain)) - 1.0
    metrics["harness.pool_start_s"] = statistics.fmean(
        (min(p["trial_start_ns"]) - p["start_ns"]) * 1e-9 for p in traced
    )
    metrics["harness.write_bytes"] = sum(size for _, size in traced[0]["files"].values())
    metrics["config.load_s"] = result["config_load_s"]
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's table hashes and per-variant mean OSPA as the reference")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    loadavg = os.getloadavg()
    if not (SRC / "smcphd" / "__init__.py").is_file():
        print(f"error: no smcphd package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    trials = trial_count(args.workload, args.seconds, args.trace)
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "config.txt"
    config_path.write_text(CONFIG.format(
        steps=STEPS, clutter=w["clutter"], particles=w["particles"], cutoff=OSPA_CUTOFF,
        trials=trials, seed=args.seed,
    ))
    job = {
        "src": str(SRC), "config": str(config_path), "out": str(out_dir),
        "result": str(out_dir / "result.json"), "workers": w["workers"], "sweep": w["sweep"],
    }
    job_path = out_dir / "job.json"
    job_path.write_text(json.dumps(job))

    try:
        probes = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                launched, _, out = _launch("probe", job_path, deadline)
                probes.append((int(out.split()[-1]) - launched) * 1e-9)
        start, end, _ = _launch("trace" if args.trace else "run", job_path, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(Path(job["result"]).read_text())
    passes = result["passes"]

    key = f"{args.workload}/seed{args.seed}/trials{trials}"
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    failed, identical = check(passes, trials, None if args.record_reference else references.get(key), out_dir)
    attempted = trials * len(passes)
    ok = [p for p in passes if p["error"] is None]
    if args.record_reference and failed == 0:
        references[key] = {
            "sha256": {name: digest for name, (digest, _) in ok[0]["files"].items()},
            "mean_ospa": ok[0]["mean_ospa"],
        }
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")

    manifest = {
        "commit": _git_commit(), **result.get("versions", {}),
        "cpu_count": os.cpu_count(), "loadavg_at_start": loadavg,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "trials": trials, "workers": w["workers"],
        "wall_s": {"setup_probes": probes, "child": (end - start) * 1e-9,
                   "passes": [_wall(p) for p in passes]},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    for p in passes:
        if p["error"] is not None:
            print(p["error"], file=sys.stderr)

    metrics = {}
    if len(ok) == len(passes):
        metrics = per_layer(passes, result) if args.trace else end_to_end(passes, probes, result, trials, w["workers"])
    print(f"workload {args.workload}  seed {args.seed}  trials {trials} x {len(passes)} pass(es)"
          f"  workers {w['workers']}")
    units = _units(args.trace)
    steps = metrics.pop("step_ms.samples", 0)
    if metrics and not set(units) <= set(metrics):
        print(f"error: metrics {sorted(set(units) - set(metrics))} are missing", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units.get(name) or DIAGNOSTIC_UNITS[name]}")
    metrics = {name: (metrics[name], unit) for name, unit in units.items() if metrics}
    if metrics and not args.trace:
        print(f"trial_s.p50 is the median of {trials} trials; setup_s the median of {SETUP_PROBES} fresh processes")
    if metrics and args.trace:
        layers = sum(v for k, (v, _) in metrics.items() if k.endswith(".busy_s")) + metrics["harness.self_s"][0]
        print(f"per traced trial: layers busy + harness.self = {layers:.6g} s of {metrics['trace.trial_s'][0]:.6g} s;"
              f" unattributed share of traced wall {metrics['trace.unattributed_frac'][0]:.4f};"
              f" step_ms from {steps} steps")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} trials)")
    print(f"outputs_identical = {'n/a (no reference for ' + key + ')' if identical is None else int(identical)}")
    print("manifest: " + json.dumps(manifest))
    print(json.dumps({
        "correct": failed == 0 and len(ok) == len(passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
