"""The benchmark's layer tracer still finds every layer it wraps.

`perfbench/tracing.py` swaps wrappers into module attributes of `smcphd`
by name.  The gated benchmark runs with tracing off, which wraps only
`run_trial`, so a renamed or inlined layer function would break a traced
run without any gated figure changing.  This test loads the tracer by path
and runs it over a tiny run and sweep, serial and in a process pool.
"""

import importlib.util
import os
from dataclasses import replace
from pathlib import Path

from smcphd import harness
from smcphd.config import benchmark_preset
from smcphd.scenario import ScenarioConfig, TargetScript

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_config():
    base = benchmark_preset(particles_per_target=20, trials=1, master_seed=3)
    scenario = ScenarioConfig(
        steps=3,
        targets=[TargetScript(1, 3), TargetScript(2, 3)],
        models=base.scenario.models,
    )
    return replace(base, scenario=scenario, sweep_grid=(0.2, 0.4))


def test_every_traced_target_exists():
    tracing = _load_tracing()
    for module, attr, _, _ in tracing._targets():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_a_traced_run_and_sweep_record_every_layer():
    tracing = _load_tracing()
    config = _tiny_config()
    original = harness.run_trial
    tracer = tracing.Tracer(layers=True).install()
    try:
        _, run_results = harness.run(config)
        _, _, sweep_results = harness.sweep(config)
    finally:
        tracer.uninstall()
    assert harness.run_trial is original
    for results in (run_results, sweep_results):
        layers = {span[tracing.NAME].split(":", 1)[0] for span in results[0].bench_spans}
        assert set(tracing.LAYERS) <= layers


def test_a_traced_pool_sweep_records_every_layer_in_a_worker(monkeypatch):
    # The pool path the sweep-w2 workload measures: the tracer is installed
    # before the pool forks, and the spans travel back with each result.
    tracing = _load_tracing()
    config = replace(_tiny_config(), trials=2)
    # Two workers even where fewer CPUs are reported.
    monkeypatch.setattr(harness, "pool_size", lambda workers, trials, cpus: workers)
    tracer = tracing.Tracer(layers=True).install()
    try:
        _, _, results = harness.sweep(config, workers=2)
    finally:
        tracer.uninstall()
    spans = results[0].bench_spans
    assert set(tracing.LAYERS) <= {span[tracing.NAME].split(":", 1)[0] for span in spans}
    assert spans[0][tracing.NAME] == "harness:run_trial"
    assert spans[0][tracing.DATA] != os.getpid()
