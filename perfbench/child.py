"""One fresh benchmark process: load a generated config and run the library.

    python3 child.py probe  <job.json>   # set up, print the ready time, exit
    python3 child.py run    <job.json>   # one pass, timing trials only
    python3 child.py trace  <job.json>   # passes untraced, traced, traced, untraced

`run.py` writes the job file and reads the result file the job names.  Times
are `time.perf_counter_ns()` readings, which on Linux come from one
system-wide monotonic clock, so the parent can subtract its launch time.
"""

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

_ns = time.perf_counter_ns
TRACE_ORDER = (False, True, True, False)  # alternated against drift
CALIBRATION_EVERY_S = 0.3  # one kernel run (~12 ms, ~4%) per this much trial time
_KERNEL_DATA = None


def _load(job):
    """Imports and config load: the set-up every run pays."""
    from smcphd import config, harness

    src = Path(job["src"]).resolve()
    if Path(harness.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"smcphd imported from {harness.__file__}, not from {src}")
    start = _ns()
    cfg = config.load_run_config(job["config"])
    return harness, cfg, (_ns() - start) * 1e-9


def _start_pool(workers):
    """Start a process pool the way `harness.run_trials` does and wait until
    every worker has answered."""
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(abs, range(workers)))
        return _ns()


def _kernel_ns():
    """Time (ns) of a fixed kernel that mixes small numpy operations with a
    Python loop, as a filter step does.  On a shared host the CPU speed
    drifts by tens of percent within seconds and over minutes; run right
    after each trial, this kernel follows it."""
    points, weights = _KERNEL_DATA
    start = _ns()
    total = 0.0
    for i in range(100):
        d2 = ((points[:, None, :] - points[i % 7 : i % 7 + 3][None]) ** 2).sum(axis=2)
        total += float(weights @ d2.min(axis=1))
        total += sum(j * 0.5 for j in range(60))
    return _ns() - start


def _calibrate(trial_ns):
    """One kernel run per CALIBRATION_EVERY_S of trial time, at least one."""
    return [_kernel_ns() for _ in range(max(1, round(trial_ns * 1e-9 / CALIBRATION_EVERY_S)))]


def _write_tables(harness, out_dir, summary, results, sweep_result):
    out_dir.mkdir(parents=True, exist_ok=True)
    writers = {
        "trials.txt": lambda fh: harness.write_trials_table(results, summary.variant_names, fh),
        "summary.txt": lambda fh: harness.write_summary_table(summary, fh),
    }
    if sweep_result is not None:
        writers["sweep.txt"] = lambda fh: harness.write_sweep_table(sweep_result, fh)
    for name, write in writers.items():
        with open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)


def _digests(out_dir):
    out = {}
    for path in sorted(out_dir.glob("*.txt")):
        out[path.name] = (hashlib.sha256(path.read_bytes()).hexdigest(), path.stat().st_size)
    return out


def _one_pass(harness, cfg, job, out_dir):
    """Run the harness once and write its tables; the run phase a user waits on."""
    record = {"error": None}
    start = _ns()
    try:
        if job["sweep"]:
            sweep_result, summary, results = harness.sweep(cfg, workers=job["workers"])
        else:
            summary, results = harness.run(cfg, workers=job["workers"])
            sweep_result = None
        _write_tables(harness, out_dir, summary, results, sweep_result)
    except Exception:  # a failing pass is reported as failed trials, not a crash
        record["error"] = traceback.format_exc()
        record.update(start_ns=start, end_ns=_ns())
        return record, []
    end = _ns()
    spans = [r.bench_spans for r in results]
    record.update(
        start_ns=start,
        end_ns=end,
        trial_start_ns=[s[0][1] for s in spans],
        trial_end_ns=[s[0][2] for s in spans],
        kernel_ns=[r.bench_kernel_ns for r in results],
        variants=summary.variant_names,
        mean_ospa=summary.mean_ospa,
        files=_digests(out_dir),
    )
    return record, spans


def _peak_rss_kib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children)


def main(mode, job_path):
    job = json.loads(Path(job_path).read_text())
    harness, cfg, load_s = _load(job)
    result = {"config_load_s": load_s}
    if mode == "probe":
        ready = _start_pool(job["workers"]) if job["workers"] > 1 else _ns()
        print(ready, flush=True)
        return 0

    import numpy
    import scipy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    import tracing

    global _KERNEL_DATA
    rng = numpy.random.default_rng(0)
    _KERNEL_DATA = rng.random((600, 4)), rng.random(600)
    out_dir = Path(job["out"])
    result["passes"] = []
    traced_spans, outer_spans, traced_wall_ns = [], [], 0
    order = TRACE_ORDER if mode == "trace" else (False,)
    for i, traced in enumerate(order):
        tracer = tracing.Tracer(layers=traced, after_trial=_calibrate if mode == "run" else None).install()
        try:
            record, spans = _one_pass(harness, cfg, job, out_dir / f"tables{i}")
        finally:
            tracer.uninstall()
        record["traced"] = traced
        result["passes"].append(record)
        if traced and record["error"] is None:
            traced_spans += spans
            outer_spans += tracer.spans
            traced_wall_ns += record["end_ns"] - record["start_ns"]
    if traced_spans:
        result["layers"] = tracing.layer_metrics(
            traced_spans, outer_spans, traced_wall_ns * 1e-9, job["workers"], sum(order)
        )
        tracing.write_spans(out_dir / "spans.tsv", traced_spans, outer_spans)
    result["peak_rss_kib"] = _peak_rss_kib()
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
