"""The benchmark's layer tracer still finds every layer it wraps.

`perfbench/tracing.py` swaps wrappers into module attributes of `smcphd`
by name.  The gated benchmark runs with tracing off, which wraps only
`run_trial`, so a renamed or inlined layer function would break a traced
run without any gated figure changing.  This test loads the tracer by path
and runs it over a tiny run and sweep.
"""

import importlib.util
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
