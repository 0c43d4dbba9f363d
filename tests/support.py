"""Shared hypothesis strategies, small workload builders, a CSV reader and
tests that replay pinned rows."""

import csv
import io
import string

import pytest
from hypothesis import strategies as st

from listlab.cli import CSV_HEADER, ComparisonRow
from listlab.core import make_workload
from listlab.workloads import list_elements

TOKEN_CHARS = string.ascii_uppercase + string.ascii_lowercase + string.digits + "_-.@"

tokens = st.text(alphabet=TOKEN_CHARS, min_size=1, max_size=5)

unique_token_lists = st.lists(tokens, unique=True, min_size=1, max_size=8)


@st.composite
def workloads(draw, max_l=8, max_n=24, buffers=(0, 1, 2, 3, 5), min_l=1):
    """Workloads over position-named elements, valid by construction.

    `buffers=None` draws the capacity from 0..l+2.
    """
    l = draw(st.integers(min_l, max_l))
    elements = list_elements(l)
    idxs = draw(st.lists(st.integers(0, l - 1), max_size=max_n))
    if buffers is None:
        capacity = draw(st.integers(0, l + 2))
    else:
        capacity = draw(st.sampled_from(list(buffers)))
    return make_workload(elements, (elements[i] for i in idxs), capacity)


@st.composite
def skewed_workloads(draw, max_l=60, max_n=200, min_l=1):
    """Workloads whose requests favour a hot prefix of the list.

    Some rounds over a shuffled hot prefix come first and give its
    elements equal counts (large ties, in an order unlike the list's).
    Half the remaining requests fall on the hot prefix and half anywhere,
    so a few elements build long count chains and many are never
    requested.
    """
    l = draw(st.integers(min_l, max_l))
    elements = list_elements(l)
    hot = draw(st.integers(1, l))
    rounds = draw(st.integers(0, 3))
    idxs = draw(st.permutations(range(hot))) * rounds
    tail = draw(st.integers(0, max_n - min(len(idxs), max_n)))
    draws = draw(st.lists(st.integers(0, 2 * l - 1), min_size=tail, max_size=tail))
    idxs = idxs[:max_n] + [v if v < l else v % hot for v in draws]
    return make_workload(elements, (elements[i] for i in idxs), 0)


@st.composite
def text_workloads(draw):
    """Workloads over arbitrary tokens, for file format round-trips."""
    elements = draw(unique_token_lists)
    idxs = draw(st.lists(st.integers(0, len(elements) - 1), max_size=12))
    capacity = draw(st.integers(0, 9))
    return make_workload(elements, (elements[i] for i in idxs), capacity)


def listed(result):
    """An engine's result tuple with its lazy steps iterated into a list,
    so that it compares with == against an oracle's result."""
    breakdown, steps, *rest = result
    return (breakdown, list(steps), *rest)


def rows_from_csv(text: str) -> list[ComparisonRow]:
    """Parse the CLI's CSV table back into rows; an empty seed is None."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for rec in reader:
        if len(rec) != len(CSV_HEADER):
            raise ValueError(f"unexpected CSV record {rec!r}")
        algorithm, model, *counts, seed = rec
        rows.append(
            ComparisonRow(
                algorithm, model, *map(int, counts), seed=None if seed == "" else int(seed)
            )
        )
    return rows


def replays(rows):
    """A test that replays rows of tests/pinned.py, which pin its exit codes
    and exact bytes: one row, or one case per test id in a dict of id → row."""
    if isinstance(rows, str):
        return lambda replay: replay(rows)

    def test(replay, row):
        replay(row)
    return pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))(test)
