"""Golden-output regression: the benchmark tables of short np200 runs.

Any change to the filter, the random-stream layout or the table format
that moves a byte of `trials.txt`, `summary.txt` or `sweep.txt` fails
here.  A change that is meant to move them updates the constants and says
why.
"""

import ast
import hashlib
import io
import os
import shlex
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from smcphd.cli import build_parser
from smcphd.config import (
    CONFIG_KEYS,
    ROUGHENING_KEYS,
    benchmark_preset,
    parse_kv_text,
    run_config_from_mapping,
)
from smcphd.harness import (
    run,
    sweep,
    write_summary_table,
    write_sweep_table,
    write_trials_table,
)

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

# A three-value sweep grid: zero jitter (which shares the baseline's run),
# the default jitter, and the largest default grid value.
SWEEP_GRID = (0.0, 0.4, 2.5)
SWEEP_SHA256 = "ecbbc39f6467b622e16625f2daba2f90930e3bc3dfc7eaa3e9a9cefbd0fe6f02"
SWEEP_SUMMARY_SHA256 = "d1ae5475285512c3e6e77bdab6989aef205487bdf8afa73e60ccc0144609363c"


def _sha256(write) -> str:
    buf = io.StringIO(newline="\n")
    write(buf)
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _assert_golden(config, trials_sha256=TRIALS_SHA256, summary_sha256=SUMMARY_SHA256) -> None:
    summary, results = run(config, workers=1)
    trials = _sha256(lambda fh: write_trials_table(results, summary.variant_names, fh))
    summary_hash = _sha256(lambda fh: write_summary_table(summary, fh))
    assert trials == trials_sha256
    assert summary_hash == summary_sha256


def _readme() -> str:
    return (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _readme_config_block() -> str:
    """The fenced block under the README's "Config files" heading."""
    section = _readme().split("## Config files", 1)[1]
    return section.split("```", 2)[1]


def _readme_command_lines() -> list:
    """The `smcphd ...` lines of the sh block under "Command line"."""
    block = _readme().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("smcphd ")]


def _readme_python_blocks() -> list:
    """The bodies of the README's fenced ```python blocks."""
    return [part.split("```", 1)[0] for part in _readme().split("```python\n")[1:]]


def test_np200_three_trial_tables_match_golden_hashes():
    _assert_golden(benchmark_preset(200, trials=3, master_seed=1))


def _dynamic_arch_openblas() -> bool:
    """numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, so that
    OPENBLAS_CORETYPE picks its kernels at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26, or no BLAS entry
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


@pytest.mark.skipif(not _dynamic_arch_openblas(), reason="needs a DYNAMIC_ARCH OpenBLAS")
def test_np200_golden_holds_under_the_haswell_blas_kernels():
    # The tables must not depend on which CPU kernels OpenBLAS picks: the
    # dot products of `update` and k-means run on the Haswell kernels here.
    tests = Path(__file__).resolve().parent
    src = str(tests.parent / "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import test_golden; test_golden.test_np200_three_trial_tables_match_golden_hashes()",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tests,
        env={**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": f"{src}{os.pathsep}{tests}"},
    )
    if proc.returncode == -signal.SIGILL:
        pytest.skip("this CPU cannot run the Haswell kernels")
    assert proc.returncode == 0, proc.stderr


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
    assert list(config.variants) == list(DIRECT_VARIANTS)
    _assert_golden(config, DIRECT_TRIALS_SHA256, DIRECT_SUMMARY_SHA256)


def test_sweep_tables_match_golden_hashes():
    config = replace(benchmark_preset(200, trials=3, master_seed=1), sweep_grid=SWEEP_GRID)
    result, summary, _ = sweep(config, workers=1)
    assert _sha256(lambda fh: write_sweep_table(result, fh)) == SWEEP_SHA256
    assert _sha256(lambda fh: write_summary_table(summary, fh)) == SWEEP_SUMMARY_SHA256


def test_readme_command_lines_parse():
    # The commands the README shows must be accepted by the CLI's parser.
    lines = _readme_command_lines()
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_readme_python_imports_resolve():
    # Every import the README shows must work, so the package cannot drop
    # a documented name.
    imports = [
        node
        for block in _readme_python_blocks()
        for node in ast.parse(block).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
