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


def _sha256(write) -> str:
    buf = io.StringIO(newline="\n")
    write(buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _assert_golden(config) -> None:
    summary, results = run(config, workers=1)
    trials = _sha256(lambda fh: write_trials_table(results, config.variant_names(), fh))
    summary_hash = _sha256(lambda fh: write_summary_table(summary, fh))
    assert trials == TRIALS_SHA256
    assert summary_hash == SUMMARY_SHA256


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
