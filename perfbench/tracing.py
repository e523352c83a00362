"""Outside-in tracing of smcphd's layers.

`Tracer.install` swaps wrappers into the module attributes that smcphd looks
its layers up through (the names `smcphd.harness` imports, plus
`extraction.weighted_kmeans` and `rng.stream`), so the library itself is not
edited.  Each wrapped call records a span: name, start, end, parent span,
trial index and a small work counter derived from the call's arguments and
result, computed after the span has ended.

Spans recorded inside `run_trial` are attached to the returned TrialResult
as `bench_spans`, so they travel back from pool workers with the result;
install the tracer before the pool forks.  Spans of calls outside a trial
(the table writers) stay in `Tracer.spans`.  Everything is kept in memory
and analysed or written out after the measured work ends.
"""

import os
import statistics
import time

import numpy as np

_ns = time.perf_counter_ns

# Span tuple fields.
NAME, START, END, PARENT, TRIAL, DATA = range(6)

# Layers whose calls make up one filter step (predict -> roughen).
STEP_LAYERS = ("predict", "update", "extraction", "resample", "roughen")
LAYERS = ("scenario", "predict", "update", "extraction", "resample", "roughen", "ospa", "rng")


def _scans(args, kwargs, out):
    return (len(out.scans), sum(len(scan) for scan in out.scans))


def _predict(args, kwargs, out):
    return len(out)


def _update(args, kwargs, out):
    return (len(args[0]), len(np.asarray(args[1]).reshape(-1, 2)))


def _extract(args, kwargs, out):
    return (len(args[0]), int(args[1]))


def _kmeans(args, kwargs, out):
    return (len(args[0]), int(args[2]))


def _resample(args, kwargs, out):
    idx = out.ancestry
    step = np.diff(idx)
    if np.all(step >= 0):
        unique = int(np.count_nonzero(step)) + 1 if len(idx) else 0
    else:
        unique = int(np.unique(idx).size)
    return (len(idx), unique)


def _roughen(args, kwargs, out):
    before = args[0]
    if out is before:
        return (len(before), 0)
    return (len(before), int(np.count_nonzero((out.states != before.states).any(axis=1))))


def _targets():
    """(module, attribute, span name, counter) for every traced call."""
    from smcphd import extraction, harness, rng

    return [
        (harness, "generate_truth", "scenario:generate_truth", None),
        (harness, "simulate_scans", "scenario:simulate_scans", _scans),
        (harness, "predict", "predict:predict", _predict),
        (harness, "update", "update:update", _update),
        (harness, "extract_states", "extraction:extract_states", _extract),
        (extraction, "weighted_kmeans", "extraction:weighted_kmeans", _kmeans),
        (harness, "resample", "resample:resample", _resample),
        (harness, "separate_roughen", "roughen:separate_roughen", _roughen),
        (harness, "ospa", "ospa:ospa", None),
        (rng, "stream", "rng:stream", None),
        (harness, "write_trials_table", "harness:write_trials_table", None),
        (harness, "write_summary_table", "harness:write_summary_table", None),
        (harness, "write_sweep_table", "harness:write_sweep_table", None),
    ]


class Tracer:
    """Wraps smcphd's layer functions and keeps their spans in memory.

    With `layers=False` only `run_trial` is wrapped: that gives per-trial
    wall times for the untraced run at one span per trial.  `after_trial`,
    if set, is called with each trial's duration once its span has ended;
    its return value is attached to the result as `bench_kernel_ns`.
    """

    def __init__(self, layers: bool, after_trial=None):
        self.layers = layers
        self.after_trial = after_trial
        self.spans = []
        self._stack = []
        self._trial = -1
        self._saved = []

    def _wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = _ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = _ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._trial, None)
            if counter is not None:
                self.spans[index] = (name, start, end, parent, self._trial, counter(args, kwargs, out))
            return out

        return wrapper

    def _wrap_trial(self, fn):
        def run_trial(config, trial_index):
            outer = self.spans
            self.spans, self._stack, self._trial = [None], [0], trial_index
            start = _ns()
            try:
                result = fn(config, trial_index)
            finally:
                end = _ns()
                spans = self.spans
                self.spans, self._stack, self._trial = outer, [], -1
            spans[0] = ("harness:run_trial", start, end, -1, trial_index, os.getpid())
            result.bench_spans = spans
            result.bench_kernel_ns = self.after_trial(end - start) if self.after_trial else []
            return result

        return run_trial

    def install(self):
        from smcphd import harness

        self._saved.append((harness, "run_trial", harness.run_trial))
        harness.run_trial = self._wrap_trial(harness.run_trial)
        if self.layers:
            for module, attr, name, counter in _targets():
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counter))
        return self

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def _steps(spans):
    """Durations (ns) of filter steps: from a predict call that is a direct
    child of run_trial to the end of the last step-layer call before the
    next predict, OSPA or scenario call."""
    out = []
    start = end = None
    for span in spans[1:]:
        if span[PARENT] != 0:
            continue
        layer = span[NAME].split(":", 1)[0]
        if layer == "predict":
            if start is not None:
                out.append(end - start)
            start, end = span[START], span[END]
        elif layer in STEP_LAYERS:
            if start is not None:
                end = span[END]
        elif layer in ("ospa", "scenario") and start is not None:
            out.append(end - start)
            start = None
    if start is not None:
        out.append(end - start)
    return out


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(per_trial, outer_spans, traced_wall_s, workers, passes):
    """Per-layer metrics from the spans of `passes` traced passes.

    Layer times and counts are per traced trial, write figures per pass.
    `traced_wall_s` is the summed wall time of the traced passes.
    """
    n_trials = len(per_trial)
    busy = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    harness_self = kmeans_ns = trial_ns = 0
    meas = scans = 0
    predict_out = 0
    pairs = 0
    ext_particles = ext_clusters = ext_pc = 0
    res_out = res_unique = res_calls = 0
    rough_rows = rough_changed = 0
    step_ns = []
    for spans in per_trial:
        own = _self_times(spans)
        trial_ns += spans[0][END] - spans[0][START]
        harness_self += own[0]
        for i, span in enumerate(spans[1:], start=1):
            name, data = span[NAME], span[DATA]
            layer, func = name.split(":", 1)
            busy[layer] += own[i]
            if func == "weighted_kmeans":
                kmeans_ns += span[END] - span[START]
                continue
            calls[layer] += 1
            if func == "simulate_scans":
                scans += data[0]
                meas += data[1]
            elif layer == "predict":
                predict_out += data
            elif layer == "update":
                pairs += data[0] * data[1]
            elif layer == "extraction":
                ext_particles += data[0]
                ext_clusters += data[1]
                ext_pc += data[0] * data[1]
            elif layer == "resample":
                res_out += data[0]
                res_unique += data[1]
                res_calls += 1
            elif layer == "roughen":
                rough_rows += data[0]
                rough_changed += data[1]
        step_ns.extend(_steps(spans))

    write_ns = sum(s[END] - s[START] for s in outer_spans if s[NAME].startswith("harness:write"))
    per = 1.0 / n_trials
    m = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = busy[layer] * 1e-9 * per
        m[f"{layer}.calls"] = calls[layer] * per
    m["rng.streams"] = m.pop("rng.calls")
    m["scenario.meas_per_scan"] = meas / scans if scans else 0.0
    m["predict.particles_out"] = predict_out / max(calls["predict"], 1)
    m["update.pairs"] = pairs * per
    m["update.ns_per_pair"] = busy["update"] / pairs if pairs else 0.0
    # Computed, not measured: per (particle, measurement) pair the update reads
    # a state row (32 B) and a weight, writes a likelihood and read-modify-writes
    # the factor (8 B each): 64 B.
    m["update.bytes_computed"] = 64.0 * pairs * per
    m["extraction.kmeans_busy_s"] = kmeans_ns * 1e-9 * per
    m["extraction.particles"] = ext_particles / max(calls["extraction"], 1)
    m["extraction.clusters"] = ext_clusters / max(calls["extraction"], 1)
    m["extraction.ns_per_particle_cluster"] = busy["extraction"] / ext_pc if ext_pc else 0.0
    # Computed, not measured: one Lloyd iteration writes, squares and reduces
    # an (N, k, 4) float64 temporary (3 x 32 B per particle-cluster pair); the
    # iteration count is not visible from outside the call.
    m["extraction.bytes_computed"] = 96.0 * ext_pc * per
    m["resample.particles_out"] = res_out / max(res_calls, 1)
    m["resample.unique_ancestor_frac"] = res_unique / res_out if res_out else 0.0
    m["roughen.jittered_frac"] = rough_changed / rough_rows if rough_rows else 0.0
    m["harness.self_s"] = harness_self * 1e-9 * per
    m["harness.write_s"] = write_ns * 1e-9 / passes
    m["trace.trial_s"] = trial_ns * 1e-9 * per
    m["trace.unattributed_frac"] = 1.0 - (trial_ns + write_ns) * 1e-9 / (workers * traced_wall_s)
    m["harness.pool_efficiency"] = trial_ns * 1e-9 / (workers * traced_wall_s)
    m["step_ms.p50"] = statistics.median(step_ns) * 1e-6
    m["step_ms.p99"] = _quantile(step_ns, 0.99) * 1e-6
    m["step_ms.samples"] = len(step_ns)
    return m


def write_spans(path, per_trial, outer_spans):
    """One tab-separated line per span; parent is an index into the same
    trial's spans (-1 for none), trial -1 marks calls outside any trial."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("trial\tindex\tname\tstart_ns\tend_ns\tparent\tdata\n")
        for spans in per_trial + [outer_spans]:
            for i, span in enumerate(spans):
                fh.write(
                    f"{span[TRIAL]}\t{i}\t{span[NAME]}\t{span[START]}\t{span[END]}"
                    f"\t{span[PARENT]}\t{span[DATA]}\n"
                )
