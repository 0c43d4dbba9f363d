import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


def run_script(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


# Each case's stdout is recorded as golden/<case>.stdout.
GOLDEN_CASES = {
    "sweep-compare": ["sweep_compare.py", "--seeds", "2", "--buffers", "1,3"],
    "buffer-sensitivity": ["buffer_sensitivity.py"],
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_script_output_matches_golden_bytes(case):
    proc = run_script(*GOLDEN_CASES[case])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.encode() == (GOLDEN / f"{case}.stdout").read_bytes()


# A case that names its stderr is pinned to those bytes.
@pytest.mark.parametrize(
    "argv, stderr",
    [
        (["sweep_compare.py", "--buffers", "a"], None),
        # the Workload rule's message, as `listlab gen --buffer -1` prints it
        (["sweep_compare.py", "--buffers", "-1"], "error: negative buffer capacity -1\n"),
        (["sweep_compare.py", "--list-size", "0"], None),
        (["sweep_compare.py", "--seeds", "1", "-o", "{nodir}"], None),
        (["buffer_sensitivity.py", "--dist", "bogus"], None),
        (["sweep_compare.py", "--list-size", "0", "--seeds", "0"], None),
        (["sweep_compare.py", "--seeds", "0"], None),
        (["sweep_compare.py", "--dists", ""], None),
        (["sweep_compare.py", "--buffers", ""], None),
        (["buffer_sensitivity.py", "--max-buffer", "-1"], None),
        (["sweep_compare.py", "--seeds", "1", "-o", ""], None),
    ],
    ids=["sweep-buffers", "sweep-negative-buffer", "sweep-list-size", "sweep-output",
         "sensitivity-dist", "sweep-list-size-no-seeds", "sweep-no-seeds", "sweep-no-dists",
         "sweep-no-buffers", "sensitivity-negative-max-buffer", "sweep-empty-output"],
)
def test_bad_input_is_one_error_line_and_exit_two(argv, stderr, tmp_path):
    script, *args = argv
    args = [arg.format(nodir=tmp_path / "missing" / "x.csv") for arg in args]
    proc = run_script(script, *args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert stderr is None or proc.stderr == stderr
