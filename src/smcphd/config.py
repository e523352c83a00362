"""Run configuration: flat key/value config files and built-in presets.

The config file format is plain text, one `key = value` per line, with
dotted section keys mirroring the module configs (see README for the full
key table).  Lists are comma-separated; target schedules are colon-joined
tokens `birth:death` optionally extended with a fixed initial state
`birth:death:px:vx:py:vy`.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .filter import FilterConfig
from .metrics import OspaParams
from .models import (
    BirthModel,
    ClutterModel,
    DetectionModel,
    MeasurementModel,
    ModelSet,
    MotionModel,
    check_number,
)
from .resampling import ResampleConfig
from .roughening import GordonConfig, RougheningConfig, velocity_jitter
from .scenario import ScenarioConfig, TargetScript, benchmark_targets

DEFAULT_SWEEP_GRID = (0.0, 0.1, 0.2, 0.4, 0.8, 1.6, 2.5)
DEFAULT_JITTER_STD = 0.4


@dataclass
class VariantSpec:
    name: str
    roughening: RougheningConfig


@dataclass
class RunConfig:
    """Everything one Monte Carlo benchmark run needs."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    resample: ResampleConfig = field(default_factory=ResampleConfig)
    variants: list = field(default_factory=lambda: default_variants())
    trials: int = 100
    master_seed: int = 1
    ospa: OspaParams = field(default_factory=OspaParams)
    ospa_full_state: bool = False
    sweep_grid: tuple = DEFAULT_SWEEP_GRID

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"run.master_seed must be >= 0, got {self.master_seed}")
        if not self.variants:
            raise ValueError("at least one filter variant is required")
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ValueError(f"variant names must be unique, got {names}")
        none_arms = [v.name for v in self.variants if v.roughening.mode == "none"]
        if len(none_arms) != 1:
            raise ValueError(
                f"exactly one mode=none baseline variant is required, got {none_arms}"
            )
        self.sweep_grid = tuple(float(v) for v in self.sweep_grid)
        for v in self.sweep_grid:
            check_number("run.sweep_grid", v, 0.0)

    @property
    def baseline_name(self) -> str:
        return next(v.name for v in self.variants if v.roughening.mode == "none")

    def variant_names(self) -> list:
        return [v.name for v in self.variants]


def default_variants(jitter: float = DEFAULT_JITTER_STD) -> list:
    """Baseline plus both roughening modes at one jitter level."""
    return [
        VariantSpec("basic", RougheningConfig(mode="none")),
        VariantSpec(
            "separate",
            RougheningConfig(mode="separate", jitter_std=velocity_jitter(jitter)),
        ),
        VariantSpec(
            "direct",
            RougheningConfig(mode="direct", jitter_std=velocity_jitter(jitter)),
        ),
    ]


def benchmark_preset(particles_per_target: int = 200, trials: int = 100, master_seed: int = 1) -> RunConfig:
    """The stock benchmark scenario backing the built-in presets."""
    models = ModelSet(
        motion=MotionModel(sampling_interval=1.0, sigma_v1=1.0, sigma_v2=0.1),
        measurement=MeasurementModel(sigma_w1=2.5, sigma_w2=2.5),
        birth=BirthModel(mass=0.2, mean=(0.0, 3.0, 0.0, -3.0), cov_diag=(10.0, 1.0, 10.0, 1.0)),
        clutter=ClutterModel(rate=10.0, region=(-100.0, 100.0, -100.0, 100.0)),
        detection=DetectionModel(p_survive=0.95, p_detect=0.95),
    )
    return RunConfig(
        scenario=ScenarioConfig(steps=40, targets=benchmark_targets(), models=models),
        filter=FilterConfig(
            particles_per_target=particles_per_target, detection=models.detection
        ),
        resample=ResampleConfig(scheme="systematic", particles_per_target=particles_per_target),
        variants=default_variants(),
        trials=trials,
        master_seed=master_seed,
    )


PRESETS = {
    "paper-np200": lambda: benchmark_preset(particles_per_target=200),
    "paper-np1000": lambda: benchmark_preset(particles_per_target=1000),
}


def load_preset(name: str) -> RunConfig:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None


# --- key/value document handling ---------------------------------------------


def parse_kv_text(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment; later keys win."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_floats(value: str) -> list:
    return [float(tok) for tok in value.replace(",", " ").split()]


def _parse_targets(value: str) -> list:
    scripts = []
    for token in value.replace(",", " ").split():
        parts = token.split(":")
        if len(parts) == 2:
            scripts.append(TargetScript(int(parts[0]), int(parts[1])))
        elif len(parts) == 6:
            scripts.append(
                TargetScript(int(parts[0]), int(parts[1]), [float(p) for p in parts[2:]])
            )
        else:
            raise ValueError(
                f"target token {token!r} must be birth:death or birth:death:px:vx:py:vy"
            )
    return scripts


def _pop(kv: dict, key: str, parse, default):
    if key in kv:
        return parse(kv.pop(key))
    return default


def _build_roughening(name: str, fields: dict) -> RougheningConfig:
    try:
        config = _roughening_from_fields(fields)
    except ValueError as exc:
        raise ValueError(f"roughening.{name}: {exc}") from None
    if fields:
        raise ValueError(f"unknown roughening keys for variant {name!r}: {sorted(fields)}")
    return config


def _roughening_from_fields(fields: dict) -> RougheningConfig:
    """Pop the known roughening fields; the caller rejects what is left."""
    mode = fields.pop("mode", "none")
    jitter = None
    if "jitter_std" in fields:
        values = _parse_floats(fields.pop("jitter_std"))
        jitter = values[0] if len(values) == 1 else np.array(values)
    gordon = None
    if "gordon_constant" in fields:
        gordon = GordonConfig(
            tuning_constant=float(fields.pop("gordon_constant")),
            dimension=int(fields.pop("gordon_dimension", 4)),
            positive_exponent=_parse_bool(fields.pop("gordon_positive_exponent", "false")),
        )
    selective = fields.pop("selective_threshold", None)
    return RougheningConfig(
        mode=mode,
        jitter_std=jitter,
        gordon=gordon,
        selective_threshold=float(selective) if selective is not None else None,
        overlapped_only=_parse_bool(fields.pop("overlapped_only", "false")),
        cap_to_measurement=_parse_bool(fields.pop("cap_to_measurement", "true")),
    )


def run_config_from_mapping(kv: dict) -> RunConfig:
    """Build a RunConfig from parsed keys, starting from the published
    defaults; unknown keys are rejected."""
    kv = dict(kv)
    base = benchmark_preset()

    motion = MotionModel(
        sampling_interval=_pop(kv, "motion.sampling_interval", float, 1.0),
        sigma_v1=_pop(kv, "motion.sigma_v1", float, 1.0),
        sigma_v2=_pop(kv, "motion.sigma_v2", float, 0.1),
    )
    measurement = MeasurementModel(
        sigma_w1=_pop(kv, "measurement.sigma_w1", float, 2.5),
        sigma_w2=_pop(kv, "measurement.sigma_w2", float, 2.5),
    )
    birth = BirthModel(
        mass=_pop(kv, "birth.mass", float, 0.2),
        mean=tuple(_pop(kv, "birth.mean", _parse_floats, [0.0, 3.0, 0.0, -3.0])),
        cov_diag=tuple(_pop(kv, "birth.cov_diag", _parse_floats, [10.0, 1.0, 10.0, 1.0])),
    )
    region = tuple(_pop(kv, "clutter.region", _parse_floats, [-100.0, 100.0, -100.0, 100.0]))
    clutter = ClutterModel(rate=_pop(kv, "clutter.rate", float, 10.0), region=region)
    detection = DetectionModel(
        p_survive=_pop(kv, "detection.p_survive", float, 0.95),
        p_detect=_pop(kv, "detection.p_detect", float, 0.95),
    )
    models = ModelSet(
        motion=motion, measurement=measurement, birth=birth, clutter=clutter, detection=detection
    )

    scenario = ScenarioConfig(
        steps=_pop(kv, "scenario.steps", int, 40),
        targets=_pop(kv, "scenario.targets", _parse_targets, benchmark_targets()),
        models=models,
    )

    particles = _pop(kv, "filter.particles_per_target", int, 200)
    fconfig = FilterConfig(
        particles_per_target=particles,
        birth_particles=_pop(kv, "filter.birth_particles", int, None),
        min_particles=_pop(kv, "filter.min_particles", int, None),
        detection=detection,
    )
    rconfig = ResampleConfig(
        scheme=_pop(kv, "resample.scheme", str, "systematic"),
        particles_per_target=_pop(kv, "resample.particles_per_target", int, particles),
        min_particles=_pop(kv, "resample.min_particles", int, fconfig.min_particles),
    )
    ospa = OspaParams(
        cutoff=_pop(kv, "ospa.cutoff", float, 100.0),
        order=_pop(kv, "ospa.order", float, 2.0),
    )
    ospa_full_state = _pop(kv, "ospa.full_state", _parse_bool, False)

    trials = _pop(kv, "run.trials", int, 100)
    master_seed = _pop(kv, "run.master_seed", int, 1)
    sweep_grid = tuple(_pop(kv, "run.sweep_grid", _parse_floats, list(DEFAULT_SWEEP_GRID)))

    variant_fields: dict[str, dict] = {}
    for key in [k for k in kv if k.startswith("roughening.")]:
        parts = key.split(".")
        if len(parts) != 3:
            raise ValueError(f"roughening keys look like roughening.<variant>.<field>: {key!r}")
        _, vname, fname = parts
        variant_fields.setdefault(vname, {})[fname] = kv.pop(key)

    if variant_fields:
        variants = [
            VariantSpec(name, _build_roughening(name, fields))
            for name, fields in variant_fields.items()
        ]
    else:
        variants = default_variants()

    if kv:
        raise ValueError(f"unknown config keys: {sorted(kv)}")

    return RunConfig(
        scenario=scenario,
        filter=fconfig,
        resample=rconfig,
        variants=variants,
        trials=trials,
        master_seed=master_seed,
        ospa=ospa,
        ospa_full_state=ospa_full_state,
        sweep_grid=sweep_grid,
    )


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return run_config_from_mapping(parse_kv_text(fh.read()))


def with_overrides(config: RunConfig, trials: int | None = None, master_seed: int | None = None) -> RunConfig:
    """Copy with CLI-level overrides applied."""
    out = config
    if trials is not None:
        out = replace(out, trials=trials)
    if master_seed is not None:
        out = replace(out, master_seed=master_seed)
    return out
