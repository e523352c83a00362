"""Run configuration: flat key/value config files and built-in presets.

The config file format is plain text, one `key = value` per line, with
dotted section keys mirroring the module configs (see README for the full
key table).  Lists are comma-separated; target schedules are colon-joined
tokens `birth:death` optionally extended with a fixed initial state
`birth:death:px:vx:py:vy`.
"""

from dataclasses import dataclass, field, fields

from .filter import FilterConfig
from .metrics import OspaParams
from .models import ModelSet, check_numbers
from .roughening import RougheningConfig
from .scenario import ScenarioConfig, TargetScript

DEFAULT_SWEEP_GRID = (0.0, 0.1, 0.2, 0.4, 0.8, 1.6, 2.5)
DEFAULT_JITTER_STD = 0.4
SWEEP_MODES = ("separate", "direct")


def arm_name(mode: str, delta: float) -> str:
    """The variant name of the sweep arm that runs `mode` at jitter std
    `delta`; `delta` is written to 6 significant digits."""
    return f"{mode}@{delta:g}"


@dataclass
class RunConfig:
    """Everything one Monte Carlo benchmark run needs.  `variants` maps each
    variant's name to its roughening config, in run order."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    variants: dict = field(default_factory=lambda: default_variants())
    trials: int = 100
    master_seed: int = 1
    ospa: OspaParams = field(default_factory=OspaParams)
    ospa_full_state: bool = False
    sweep_grid: tuple = DEFAULT_SWEEP_GRID

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"run.trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"run.master_seed must be >= 0, got {self.master_seed}")
        for name in self.variants:  # one column of a tab-separated row, one line of text
            if "\t" in name or name.splitlines() != [name]:
                raise ValueError(f"roughening.<variant>: empty name, tab or line break in {name!r}")
        self.filter.birth_particle_count(self.scenario.models.birth.mass)  # checks the bound
        self.sweep_grid = check_numbers("run.sweep_grid", self.sweep_grid, minimum=0.0)
        self.sweep_variants()  # checks that there is one baseline, and the arm names

    @property
    def baseline(self) -> str:
        """The name of the one variant with roughening mode none; gain ratios
        are taken against it."""
        found = [name for name, roughening in self.variants.items() if roughening.mode == "none"]
        if len(found) != 1:
            raise ValueError(
                "roughening.<variant>.mode: exactly one variant must be none (the "
                f"baseline), got {found}"
            )
        return found[0]

    def sweep_variants(self) -> dict:
        """The sweep's arms, name -> roughening config: the baseline, then
        each grid value in each of `SWEEP_MODES`.  Random streams do not
        depend on the variants, so one paired run over these arms equals a
        run per grid value."""
        baseline = self.baseline
        arms = {baseline: self.variants[baseline]}
        for delta in self.sweep_grid:
            for mode in SWEEP_MODES:
                name = arm_name(mode, delta)
                if name in arms:
                    raise ValueError(f"run.sweep_grid: sweep arm names must be unique: {name!r}")
                arms[name] = RougheningConfig(mode=mode, jitter_std=delta)
        return arms


def default_variants() -> dict:
    """Baseline plus both roughening modes at DEFAULT_JITTER_STD."""
    return {
        "basic": RougheningConfig(mode="none"),
        "separate": RougheningConfig(mode="separate", jitter_std=DEFAULT_JITTER_STD),
        "direct": RougheningConfig(mode="direct", jitter_std=DEFAULT_JITTER_STD),
    }


def benchmark_preset(
    particles_per_target: int = FilterConfig.particles_per_target,
    trials: int = RunConfig.trials,
    master_seed: int = RunConfig.master_seed,
) -> RunConfig:
    """The stock benchmark scenario backing the built-in presets: every
    parameter but the particle budget is its dataclass default."""
    return RunConfig(
        filter=FilterConfig(particles_per_target=particles_per_target),
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
        if len(parts) not in (2, 6):
            raise ValueError(
                f"target token {token!r} must be birth:death or birth:death:px:vx:py:vy"
            )
        scripts.append(TargetScript(int(parts[0]), int(parts[1]), parts[2:] or None))
    return scripts


# Config-file key -> (section, dataclass field, parser).  A section names
# the dataclass that owns the field's default: one of the `ModelSet` parts,
# `scenario` (ScenarioConfig), `filter` (FilterConfig), `ospa` (OspaParams)
# or `run` (RunConfig itself).  Unset keys are not passed, so the default
# applies.
CONFIG_KEYS = {
    "scenario.steps": ("scenario", "steps", int),
    "scenario.targets": ("scenario", "targets", _parse_targets),
    "motion.sampling_interval": ("motion", "sampling_interval", float),
    "motion.sigma_v1": ("motion", "sigma_v1", float),
    "motion.sigma_v2": ("motion", "sigma_v2", float),
    "measurement.sigma_w1": ("measurement", "sigma_w1", float),
    "measurement.sigma_w2": ("measurement", "sigma_w2", float),
    "birth.mass": ("birth", "mass", float),
    "birth.mean": ("birth", "mean", _parse_floats),
    "birth.cov_diag": ("birth", "cov_diag", _parse_floats),
    "clutter.rate": ("clutter", "rate", float),
    "clutter.region": ("clutter", "region", _parse_floats),
    "detection.p_survive": ("detection", "p_survive", float),
    "detection.p_detect": ("detection", "p_detect", float),
    "filter.particles_per_target": ("filter", "particles_per_target", int),
    "filter.birth_particles": ("filter", "birth_particles", int),
    "filter.min_particles": ("filter", "min_particles", int),
    "resample.scheme": ("filter", "resample_scheme", str),
    "ospa.cutoff": ("ospa", "cutoff", float),
    "ospa.order": ("ospa", "order", float),
    "ospa.full_state": ("run", "ospa_full_state", _parse_bool),
    "run.trials": ("run", "trials", int),
    "run.master_seed": ("run", "master_seed", int),
    "run.sweep_grid": ("run", "sweep_grid", _parse_floats),
}

# `roughening.<variant>.<field>` -> (section, dataclass field, parser); the
# one section is `roughening` (RougheningConfig).
ROUGHENING_KEYS = {
    "mode": ("roughening", "mode", str),
    "jitter_std": ("roughening", "jitter_std", _parse_floats),
    "selective_threshold": ("roughening", "selective_threshold", float),
    "overlapped_only": ("roughening", "overlapped_only", _parse_bool),
    "cap_to_measurement": ("roughening", "cap_to_measurement", _parse_bool),
    "gordon_constant": ("roughening", "gordon_constant", float),
    "gordon_dimension": ("roughening", "gordon_dimension", int),
    "gordon_positive_exponent": ("roughening", "gordon_positive_exponent", _parse_bool),
}


def _parse_into(table: dict, texts: dict) -> tuple:
    """Parse `texts` (key -> value text) through `table` into per-section
    constructor arguments; returns them with the keys the table lacks."""
    args = {section: {} for section, _, _ in table.values()}
    unknown = []
    for key, text in texts.items():
        if key not in table:
            unknown.append(key)
            continue
        section, name, parse = table[key]
        try:
            args[section][name] = parse(text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return args, sorted(unknown)


def _build_roughening(name: str, texts: dict) -> RougheningConfig:
    try:
        args, unknown = _parse_into(ROUGHENING_KEYS, texts)
        config = RougheningConfig(**args["roughening"])
    except ValueError as exc:
        raise ValueError(f"roughening.{name}: {exc}") from None
    if unknown:
        raise ValueError(f"unknown roughening keys for variant {name!r}: {unknown}")
    return config


def run_config_from_mapping(kv: dict) -> RunConfig:
    """Build a RunConfig from parsed keys; a key that is not set keeps its
    dataclass default, and unknown keys are rejected."""
    variant_fields: dict[str, dict] = {}
    plain = {}
    for key, text in kv.items():
        if not key.startswith("roughening."):
            plain[key] = text
            continue
        parts = key.split(".")
        if len(parts) != 3:
            raise ValueError(f"roughening keys look like roughening.<variant>.<field>: {key!r}")
        variant_fields.setdefault(parts[1], {})[parts[2]] = text
    args, unknown = _parse_into(CONFIG_KEYS, plain)
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")

    # Each ModelSet part's section is its field name; its type builds it.
    models = ModelSet(**{part.name: part.type(**args[part.name]) for part in fields(ModelSet)})
    run_args = args["run"]
    if variant_fields:
        run_args["variants"] = {
            name: _build_roughening(name, variant) for name, variant in variant_fields.items()
        }
    return RunConfig(
        scenario=ScenarioConfig(models=models, **args["scenario"]),
        filter=FilterConfig(**args["filter"]),
        ospa=OspaParams(**args["ospa"]),
        **run_args,
    )


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is skipped
        return run_config_from_mapping(parse_kv_text(fh.read()))

