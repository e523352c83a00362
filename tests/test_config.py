import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smcphd.cli import _load_config, build_parser, main as cli_main
from smcphd.config import (
    DEFAULT_SWEEP_GRID,
    RunConfig,
    load_preset,
    load_run_config,
    parse_kv_text,
    benchmark_preset,
    run_config_from_mapping,
)
from smcphd.resampling import target_count
from smcphd.roughening import RougheningConfig

CONFIG_TEXT = """
# benchmark configuration
scenario.steps = 30
scenario.targets = 1:30, 1:20, 5:30:1.5:2:0:-2
motion.sigma_v1 = 1.0
motion.sigma_v2 = 0.1
measurement.sigma_w1 = 2.5
measurement.sigma_w2 = 2.5
birth.mass = 0.2
birth.mean = 0, 3, 0, -3
birth.cov_diag = 10, 1, 10, 1
clutter.rate = 10
clutter.region = -100, 100, -100, 100
detection.p_survive = 0.95
detection.p_detect = 0.95
filter.particles_per_target = 100
resample.scheme = systematic
ospa.cutoff = 100
ospa.order = 2
run.trials = 25
run.master_seed = 77
run.sweep_grid = 0, 0.2, 0.4

roughening.basic.mode = none
roughening.sep.mode = separate
roughening.sep.jitter_std = 0.4
roughening.sep.overlapped_only = true
roughening.dir.mode = direct
roughening.dir.jitter_std = 0, 0.4, 0, 0.4
"""


def test_parse_kv_text():
    kv = parse_kv_text("a.b = 1  # comment\n\n# full comment\nc = x = y\n")
    assert kv == {"a.b": "1", "c": "x = y"}
    with pytest.raises(ValueError):
        parse_kv_text("not a pair\n")
    with pytest.raises(ValueError):
        parse_kv_text("= value\n")


def test_full_config_document():
    config = run_config_from_mapping(parse_kv_text(CONFIG_TEXT))
    assert config.scenario.steps == 30
    assert len(config.scenario.targets) == 3
    fixed = config.scenario.targets[2]
    assert fixed.birth_step == 5 and fixed.death_step == 30
    assert fixed.initial_state == (1.5, 2.0, 0.0, -2.0)
    assert config.filter.particles_per_target == 100
    assert config.filter.min_particles == 50
    assert config.filter.resample_scheme == "systematic"
    assert config.trials == 25
    assert config.master_seed == 77
    assert config.sweep_grid == (0.0, 0.2, 0.4)
    assert list(config.variants) == ["basic", "sep", "dir"]
    assert config.baseline == "basic"
    sep = config.variants["sep"]
    assert sep.mode == "separate"
    assert sep.overlapped_only is True
    assert np.array_equal(sep.jitter_std, [0.0, 0.4, 0.0, 0.4])
    dir_cfg = config.variants["dir"]
    assert np.array_equal(dir_cfg.jitter_std, [0.0, 0.4, 0.0, 0.4])


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        run_config_from_mapping({"filter.particle_count": "10"})
    # The particle budget has one owner, `filter.*`: no second key may
    # disagree with it.
    for key in ("resample.min_particles", "resample.particles_per_target"):
        with pytest.raises(ValueError, match=rf"unknown config keys: \['{re.escape(key)}'\]"):
            run_config_from_mapping({"filter.min_particles": "70", key: "30"})
    with pytest.raises(ValueError, match="unknown roughening keys"):
        run_config_from_mapping(
            {"roughening.basic.mode": "none", "roughening.basic.extra": "1"}
        )


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    config = load_run_config(path)
    assert config.trials == 25


def test_config_file_with_a_byte_order_mark_loads_as_without(tmp_path):
    # Some editors save UTF-8 with a byte-order mark; it must not join the
    # first key.
    for text in ("run.trials = 3\n", CONFIG_TEXT):
        plain = tmp_path / "plain.cfg"
        plain.write_text(text, encoding="utf-8")
        marked = tmp_path / "marked.cfg"
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert load_run_config(marked) == load_run_config(plain)


_JITTER = st.floats(0, 5).map(repr)


@st.composite
def _config_mappings(draw):
    """Config mappings of 0-4 targets, each with or without a scripted
    state `b:d:px:vx:py:vy`, and a separate variant with a scalar or a
    4-value jitter beside a direct one."""
    steps = draw(st.integers(1, 40))
    state = st.lists(st.floats(-1e6, 1e6).map(repr), min_size=4, max_size=4)
    tokens = []
    for _ in range(draw(st.integers(0, 4))):
        birth, death = sorted(draw(st.tuples(st.integers(1, steps), st.integers(1, steps))))
        tokens.append(":".join([str(birth), str(death), *draw(st.one_of(st.just([]), state))]))
    return {
        "scenario.steps": str(steps),
        "scenario.targets": ", ".join(tokens),
        "roughening.basic.mode": "none",
        "roughening.sep.mode": "separate",
        "roughening.sep.jitter_std": draw(
            st.one_of(_JITTER, st.lists(_JITTER, min_size=4, max_size=4).map(", ".join))
        ),
        "roughening.dir.mode": "direct",
        "roughening.dir.jitter_std": draw(_JITTER),
    }


@settings(max_examples=100, deadline=None)
@given(kv=_config_mappings())
@example(kv=parse_kv_text(CONFIG_TEXT))  # target 5:30:1.5:2:0:-2
def test_two_loads_of_one_mapping_compare_equal(kv):
    first, second = run_config_from_mapping(kv), run_config_from_mapping(kv)
    assert first == second
    assert list(first.variants) == list(second.variants)
    for name, roughening in first.variants.items():
        assert hash(roughening) == hash(second.variants[name])


def test_presets():
    np200 = load_preset("paper-np200")
    np1000 = load_preset("paper-np1000")
    assert np200.filter.particles_per_target == 200
    assert np1000.filter.particles_per_target == 1000
    assert np200.trials == 100
    assert np200.scenario.steps == 40
    assert np200.sweep_grid == DEFAULT_SWEEP_GRID
    assert np200.scenario.models.clutter.rate == 10.0
    assert np200.scenario.models.detection.p_detect == 0.95
    with pytest.raises(ValueError):
        load_preset("paper-np5")


def test_exactly_one_baseline_required():
    base = benchmark_preset()
    with pytest.raises(ValueError):
        RunConfig(
            scenario=base.scenario,
            filter=base.filter,
            variants={"a": RougheningConfig(mode="separate", jitter_std=0.4)},
        )
    with pytest.raises(ValueError):
        RunConfig(
            scenario=base.scenario,
            filter=base.filter,
            variants={"a": RougheningConfig(mode="none"), "b": RougheningConfig(mode="none")},
        )
    with pytest.raises(ValueError, match=r"exactly one variant must be none .*, got \[\]"):
        RunConfig(scenario=base.scenario, filter=base.filter, variants={})
    with pytest.raises(ValueError):
        RunConfig(scenario=base.scenario, filter=base.filter, trials=0)


@pytest.mark.parametrize("baselines", [[], ["a", "b"]])
def test_baseline_count_error_names_the_mode_key(tmp_path, capsys, baselines):
    text = "roughening.sep.mode = separate\nroughening.sep.jitter_std = 0.4\n"
    text += "".join(f"roughening.{name}.mode = none\n" for name in baselines)
    with pytest.raises(ValueError, match=r"roughening\.<variant>\.mode: exactly one"):
        run_config_from_mapping(parse_kv_text(text))
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "roughening.<variant>.mode" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_baseline_named_like_a_sweep_arm_fails_at_load(tmp_path, capsys):
    # Duplicate grid values are rows of the parametrized load-failure test;
    # here the baseline's own name collides with the arm direct@2.
    text = "run.sweep_grid = 2\nroughening.direct@2.mode = none\n"
    message = "run.sweep_grid: sweep arm names must be unique: 'direct@2'"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_config_from_mapping(parse_kv_text(text))
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    for command in ("run", "sweep"):
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "grid, arm", [("0.4, 0.4", "separate@0.4"), ("0, 0.1, 0.1000001", "separate@0.1")]
)
def test_sweep_arm_collision_names_the_repeated_arm(grid, arm):
    message = f"run.sweep_grid: sweep arm names must be unique: {arm!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_config_from_mapping({"run.sweep_grid": grid})


def test_sweep_variants_are_the_baseline_then_both_modes_per_grid_value():
    config = replace(benchmark_preset(), sweep_grid=(0.0, 0.4))
    arms = config.sweep_variants()
    names = ["basic", "separate@0", "direct@0", "separate@0.4", "direct@0.4"]
    assert list(arms) == names
    assert arms["basic"] is config.variants[config.baseline]
    assert arms["direct@0.4"] == RougheningConfig(mode="direct", jitter_std=0.4)


@pytest.mark.parametrize("name", ["a\tb", ""])
def test_variant_name_that_breaks_a_table_row_fails_at_load(tmp_path, capsys, name):
    # A name is one column of a tab-separated row: a tab would add a column,
    # and an empty name would leave the variant column blank.
    text = f"roughening.basic.mode = none\nroughening.{name}.mode = separate\n"
    text += f"roughening.{name}.jitter_std = 0.4\n"
    message = f"roughening.<variant>: empty name, tab or line break in {name!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_config_from_mapping(parse_kv_text(text))
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    for command in ("run", "sweep"):
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["a\nb", "a\rb", "a\x0bb", "a\x85b", "a\u2028b"])
def test_run_config_rejects_a_variant_name_that_breaks_a_row(name):
    # Each ends a line for `str.splitlines`, as for a config file's lines, so
    # only a program can give them; a table row holding one reads as two.
    message = f"roughening.<variant>: empty name, tab or line break in {name!r}"
    direct = RougheningConfig(mode="direct", jitter_std=0.4)
    variants = {"basic": RougheningConfig(mode="none"), name: direct}
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig(variants=variants)


def test_overrides():
    config = _load_config(build_parser().parse_args(["run", "--trials", "7", "--seed", "99"]))
    assert config.trials == 7
    assert config.master_seed == 99
    untouched = _load_config(build_parser().parse_args(["run"]))
    assert (untouched.trials, untouched.master_seed) == (100, 1)


def test_filter_min_particles_propagates_to_resampling():
    config = run_config_from_mapping(
        {"filter.particles_per_target": "100", "filter.min_particles": "70"}
    )
    assert config.filter.min_particles == 70
    assert target_count(0.2, config.filter) == 70
    assert target_count(1.0, config.filter) == 100
    multinomial = run_config_from_mapping({"resample.scheme": "multinomial"})
    assert multinomial.filter.resample_scheme == "multinomial"


@pytest.mark.parametrize(
    "key, value",
    [
        ("motion.sigma_v1", "nan"),
        ("measurement.sigma_w1", "0"),
        ("clutter.rate", "inf"),
        ("birth.mass", "nan"),
        ("birth.mean", "0, 3, 0"),
        ("birth.cov_diag", "10, 1"),
        ("ospa.cutoff", "inf"),
        ("run.sweep_grid", "nan"),
        ("run.sweep_grid", "0.4, 0.4"),
        ("run.sweep_grid", "0.1, 0.1000001"),  # both arms would be named @0.1
        ("filter.birth_particles", "-3"),
        # Particle budgets above MAX_PARTICLES (2**20), given or derived.
        ("filter.particles_per_target", "2000000"),
        ("filter.min_particles", "100000000"),
        ("filter.birth_particles", "1048577"),
        ("birth.mass", "1e6"),
        ("birth.mass", "1e300"),
        ("run.master_seed", "-1"),
        ("ospa.order", "1e308"),
        ("ospa.order", "200"),
        ("filter.particles_per_target", "abc"),
        ("run.trials", "1.5"),
        ("scenario.targets", "1:x"),
        ("scenario.targets", "1:40:inf:0:0:0"),
        ("clutter.region", "1,2,3"),
        ("ospa.full_state", "maybe"),
        # Stds whose product under- or overflows leave the likelihood peak
        # 1 / (2 pi sigma_w1 sigma_w2) infinite or zero; regions whose area
        # does leave the clutter intensity undefined or silently zero.
        *(
            pytest.param(
                "measurement.sigma_w1",
                {"measurement.sigma_w1": std, "measurement.sigma_w2": std},
                id=f"measurement.sigma_w1-sigma_w2-{std}",
            )
            for std in ("1e-170", "1e-155", "1e200")
        ),
        ("clutter.region", "0, 1e-200, 0, 1e-200"),
        ("clutter.region", "-1e160, 1e160, -1e160, 1e160"),
    ],
)
def test_nonfinite_or_degenerate_parameter_fails_at_load(tmp_path, capsys, key, value):
    # `value` is the value of `key`, or a mapping of every key to set.
    kv = value if isinstance(value, dict) else {key: value}
    with pytest.raises(ValueError, match=re.escape(key)):
        run_config_from_mapping(kv)
    path = tmp_path / "bad.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()), encoding="utf-8")
    for command in ("run", "sweep"):
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_roughening_parameter_errors_name_the_variant(tmp_path, capsys):
    base = {"roughening.basic.mode": "none", "roughening.sep.mode": "separate"}
    with pytest.raises(ValueError, match=r"roughening\.sep: jitter_std"):
        run_config_from_mapping({**base, "roughening.sep.jitter_std": "nan"})
    with pytest.raises(ValueError, match=r"roughening\.sep: gordon_constant"):
        run_config_from_mapping({**base, "roughening.sep.gordon_constant": "inf"})
    with pytest.raises(ValueError, match=r"roughening\.sep: jitter_std must be a scalar"):
        run_config_from_mapping({**base, "roughening.sep.jitter_std": ""})
    with pytest.raises(ValueError, match=r"roughening\.sep: selective_threshold: "):
        run_config_from_mapping({**base, "roughening.sep.selective_threshold": "x"})
    with pytest.raises(ValueError, match=r"roughening\.sep: gordon_constant is required"):
        run_config_from_mapping({**base, "roughening.sep.gordon_dimension": "3"})
    # Direct mode folds jitter into the velocity noise only, so a fixed
    # position jitter is a load-time error, not a fault mid-run.
    text = "roughening.basic.mode = none\nroughening.dir.mode = direct\n"
    text += "roughening.dir.jitter_std = 1, 0.4, 0, 0.4\n"
    with pytest.raises(ValueError, match=r"roughening\.dir: jitter_std: .*position"):
        run_config_from_mapping(parse_kv_text(text))
    path = tmp_path / "direct.cfg"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "roughening.dir: jitter_std" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_one_jitter_value_is_the_velocity_shorthand():
    # The config file's one value, a one-element sequence and a scalar all
    # mean velocity jitter.
    scalar = RougheningConfig(mode="separate", jitter_std=0.4)
    assert RougheningConfig(mode="separate", jitter_std=[0.4]) == scalar
    assert RougheningConfig(mode="separate", jitter_std=np.array([0.4])) == scalar
    kv = {"roughening.basic.mode": "none", "roughening.sep.mode": "separate"}
    loaded = run_config_from_mapping({**kv, "roughening.sep.jitter_std": "0.4"})
    assert loaded.variants["sep"] == scalar
    assert scalar.jitter_std == (0.0, 0.4, 0.0, 0.4)
