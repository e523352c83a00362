"""The microbenchmarks in `test_bench.py` are deselected by default
(`addopts = -m 'not bench'`), so one of them could break unnoticed.  This
runs them all once, untimed, as part of the default suite."""

import os
import subprocess
import sys
from pathlib import Path


def test_bench_cases_pass_untimed():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-m",
            "bench",
            "--benchmark-disable",
            "-p",
            "no:cacheprovider",
            "tests/test_bench.py",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
