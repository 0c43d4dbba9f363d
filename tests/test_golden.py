"""Byte-for-byte replays of the CLI on the paper's worked examples.

Each case runs `main` on a workload file under tests/golden/ and
compares stdout, stderr and every file the call writes with the bytes
recorded next to it as golden/<case>.<stdout|stderr|trace|csv>. A case
without a .stderr file must write nothing to stderr.
"""

from pathlib import Path

import pytest

from listlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    # totals 34 and 36: the two look-ahead worked traces
    "run-amr-illustration": [
        "run", "--workload", "{golden}/illustration.workload", "--algorithm", "amr",
        "--trace", "{trace}", "--csv", "{csv}",
    ],
    "run-amr-demonstration": [
        "run", "--workload", "{golden}/demonstration.workload", "--algorithm", "amr",
        "--trace", "{trace}", "--csv", "{csv}",
    ],
    # total 121: move-to-front on the reversed list
    "run-mtf-full-reverse-eleven": [
        "run", "--workload", "{golden}/reverse-eleven.workload", "--algorithm", "mtf",
        "--model", "full", "--trace", "{trace}",
    ],
    # exchange 20: run's stdout and CSV with a nonzero exchange
    "run-transpose-pd2-demonstration": [
        "run", "--workload", "{golden}/demonstration.workload", "--algorithm", "transpose",
        "--model", "pd:2", "--csv", "{csv}",
    ],
    "compare-demonstration": [
        "compare", "--workload", "{golden}/demonstration.workload",
        "--algorithm", "static,mtf,transpose,fc,amr",
        "--model", "full,partial,pd:2,centralized",
    ],
    # all three totals, checked against the built-in table
    "paper-examples": ["paper-examples"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden_bytes(case, tmp_path, capsys):
    outputs = {"trace": tmp_path / "out.trace", "csv": tmp_path / "out.csv"}
    argv = [arg.format(golden=GOLDEN, **outputs) for arg in CASES[case]]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / f"{case}.stdout").read_bytes()
    stderr = GOLDEN / f"{case}.stderr"
    assert captured.err.encode() == (stderr.read_bytes() if stderr.exists() else b"")
    for kind, path in outputs.items():
        if "{" + kind + "}" in CASES[case]:
            assert path.read_bytes() == (GOLDEN / f"{case}.{kind}").read_bytes()
