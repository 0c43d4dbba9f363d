import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep_compare.py", "--buffers", "a"],
        ["sweep_compare.py", "--buffers", "-1"],
        ["sweep_compare.py", "--list-size", "0"],
        ["sweep_compare.py", "--seeds", "1", "-o", "{nodir}"],
        ["buffer_sensitivity.py", "--dist", "bogus"],
    ],
    ids=["sweep-buffers", "sweep-negative-buffer", "sweep-list-size", "sweep-output",
         "sensitivity-dist"],
)
def test_bad_input_is_one_error_line_and_exit_two(argv, tmp_path):
    script, *args = argv
    args = [arg.format(nodir=tmp_path / "missing" / "x.csv") for arg in args]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
