"""Byte-for-byte replays of the CLI and the scripts: every row of the pinned table.

tests/pinned.py holds the table, from the paper's worked examples with
their golden files to long generated workloads pinned by sha256 and the
exact error line of every input error, and the one check that compares a
row's outputs with their bytes. Here each row runs in process, in its own
temporary directory.
"""

import re

import pytest

from pinned import GOLDEN, ROWS


@pytest.mark.parametrize("name", sorted(ROWS))
def test_cli_output_matches_golden_bytes(name, replay):
    replay(name)


def test_every_golden_file_is_named_by_a_row():
    named = set()
    for calls in ROWS.values():
        for cmd, expected in calls:
            named.update(re.findall(r"\{golden\}/([^\s']+)", cmd))
            named.update(map(str, expected.values()))
    assert {p.name for p in GOLDEN.iterdir()} - named == set()
