"""Golden-output regression: the benchmark tables of a short np200 run.

Any change to the filter, the random-stream layout or the table format
that moves a byte of `trials.txt` or `summary.txt` fails here.  A change
that is meant to move them updates both constants and says why.
"""

import hashlib
import io
from pathlib import Path

from smcphd.config import (
    CONFIG_KEYS,
    ROUGHENING_KEYS,
    benchmark_preset,
    parse_kv_text,
    run_config_from_mapping,
)
from smcphd.harness import run, write_summary_table, write_trials_table

TRIALS_SHA256 = "671121729bc9023885d88982bbe51bc8747520989112753bae37c5d6a09a0f06"
SUMMARY_SHA256 = "9435ade36c0fa8a0753b4171bd8e3e9e5bfc1a026be76b077d0eacc1fa6f5909"

# Every direct-roughening path: fixed jitter, zero jitter, a jitter the
# measurement cap clamps (5 -> 2.5) and the same jitter uncapped, Gordon
# bandwidths with either exponent, and separate Gordon for contrast.
DIRECT_VARIANTS = {
    "basic": {"mode": "none"},
    "dir": {"mode": "direct", "jitter_std": "0.4"},
    "dir0": {"mode": "direct", "jitter_std": "0"},
    "dircap": {"mode": "direct", "jitter_std": "0, 5, 0, 0.3"},
    "dirnocap": {"mode": "direct", "jitter_std": "0, 5, 0, 0.3", "cap_to_measurement": "false"},
    "dirgordon": {"mode": "direct", "gordon_constant": "0.2"},
    "dirgordonpos": {
        "mode": "direct",
        "gordon_constant": "0.05",
        "gordon_positive_exponent": "true",
        "cap_to_measurement": "false",
    },
    "sepgordon": {"mode": "separate", "gordon_constant": "0.2"},
}
DIRECT_TRIALS_SHA256 = "8a7eab2a394e7d2e5bf8322d0b0727e4c6b21aeb1bc5f52ea0cdf99e9e295615"
DIRECT_SUMMARY_SHA256 = "20dbefaec6f9f8c5db8f27d7445083a6e762d3158483cbb70ea122714b5f7d53"


def _sha256(write) -> str:
    buf = io.StringIO(newline="\n")
    write(buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _assert_golden(config, trials_sha256=TRIALS_SHA256, summary_sha256=SUMMARY_SHA256) -> None:
    summary, results = run(config, workers=1)
    trials = _sha256(lambda fh: write_trials_table(results, config.variant_names(), fh))
    summary_hash = _sha256(lambda fh: write_summary_table(summary, fh))
    assert trials == trials_sha256
    assert summary_hash == summary_sha256


def _readme_config_block() -> str:
    """The fenced block under the README's "Config files" heading."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Config files", 1)[1]
    return section.split("```", 2)[1]


def test_np200_three_trial_tables_match_golden_hashes():
    _assert_golden(benchmark_preset(200, trials=3, master_seed=1))


def test_readme_config_block_is_the_defaults():
    block = _readme_config_block()
    kv = {k: v for k, v in parse_kv_text(block).items() if not k.startswith("roughening.")}
    _assert_golden(run_config_from_mapping({**kv, "run.trials": "3", "run.master_seed": "1"}))
    assert repr(run_config_from_mapping({})) == repr(benchmark_preset())
    for key in CONFIG_KEYS:
        assert f"{key} =" in block
    for field in ROUGHENING_KEYS:
        assert f".{field} =" in block


def test_direct_roughening_paths_match_golden_hashes():
    kv = {
        f"roughening.{name}.{field}": value
        for name, fields in DIRECT_VARIANTS.items()
        for field, value in fields.items()
    }
    config = run_config_from_mapping({**kv, "run.trials": "3", "run.master_seed": "1"})
    assert config.variant_names() == list(DIRECT_VARIANTS)
    _assert_golden(config, DIRECT_TRIALS_SHA256, DIRECT_SUMMARY_SHA256)
