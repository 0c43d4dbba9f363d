"""Byte-for-byte replays of the CLI: every row of the pinned table.

tests/pinned.py holds the table, from the paper's worked examples with
their golden files to long generated workloads pinned by sha256, and the
one check that compares a row's outputs with their bytes. Here each row
runs in process through `main`, in its own temporary directory.
"""

import pytest

from listlab.cli import main
from pinned import ROWS, check


@pytest.mark.parametrize("name", sorted(ROWS))
def test_cli_output_matches_golden_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out.encode(), err.encode()

    check(name, run, tmp_path)
