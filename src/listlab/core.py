"""Input list, request sequence, and the workload file format.

Positions are 1-based throughout: the front element of a list has
position 1, the first request has position 1. A Workload checks itself
when it is built: its list holds distinct element tokens, every request
names one of them and the buffer capacity is not negative, so the
engines never check again.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property


class InvalidWorkload(ValueError):
    """Workload failed validation; the message lists every violation."""


class ParseError(ValueError):
    """Workload file is malformed. `line_no` 0 means the file as a whole."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


def _valid_token(token: str) -> bool:
    """Non-empty and free of whitespace, as str.isspace() defines it."""
    return token.split() == [token]


@dataclass(frozen=True)
class ListConfig:
    """The fixed input list of distinct element tokens."""

    elements: tuple[str, ...]

    @property
    def l(self) -> int:
        return len(self.elements)

    @cached_property
    def positions(self) -> dict[str, int]:
        """Element -> 1-based position; the first occurrence wins, as with
        tuple.index, and validation relies on that to name a duplicate's
        first position. Built on first use and shared by every caller,
        so it must not be mutated; it never enters == or hash()."""
        return dict(zip(reversed(self.elements), range(self.l, 0, -1)))


@dataclass(frozen=True)
class RequestSequence:
    """The requests in order. The amr engine's indices over them (the
    occurrence lists and the table of each step's matches) are built on
    first use and cached on the sequence."""

    requests: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.requests)

    @cached_property
    def occurrences(self) -> dict[str, list[int]]:
        """Element -> its request positions (1-based), increasing.

        Built on first use and shared like ListConfig.positions."""
        table: dict[str, list[int]] = {}
        for j, r in enumerate(self.requests, start=1):
            table.setdefault(r, []).append(j)
        return table

    def step_matches(self, lst: ListConfig) -> list[Sequence[str]]:
        """Row t: the requests r_{t+k} that are list element k, for every
        k <= pos(r_t), that is the positional matches of a list access at
        t, in increasing k; () when there are none. A match's offset k is
        its element's list position, so rows hold only the elements. One
        pass files request j under t = j - pos(r_j), which relies on the
        list holding each request's element once. The table is cached
        with the list object it was built from, rebuilt for any other.
        """
        cached = self.__dict__.get("_step_matches")
        if cached is not None and cached[0] is lst:
            return cached[1]
        pos = lst.positions
        requests = self.requests
        table: list[Sequence[str]] = [()] * (len(requests) + 1)
        for j, r in enumerate(requests, start=1):
            k = pos[r]
            if k < j and k <= pos[requests[j - k - 1]]:
                row = table[j - k]
                if row:
                    row.append(r)
                else:
                    table[j - k] = [r]
        # Frozen dataclass: write the cache slot past __setattr__, as
        # cached_property does.
        self.__dict__["_step_matches"] = (lst, table)
        return table


@dataclass(frozen=True)
class Workload:
    """A list, its requests and a buffer capacity; raises InvalidWorkload
    when built from fields that break a rule (see validate_workload)."""

    list: ListConfig
    requests: RequestSequence
    buffer_capacity: int

    def __post_init__(self):
        # Looked up as a module global, so that callers can wrap it to
        # watch every check.
        validate_workload(self)


def make_workload(elements, requests, buffer_capacity: int) -> Workload:
    """Build a Workload from element-token iterables."""
    return Workload(
        ListConfig(tuple(elements)), RequestSequence(tuple(requests)), buffer_capacity
    )


def position(lst: ListConfig, x: str) -> int:
    """1-based position of x, one of the list's elements."""
    return lst.positions[x]


def validate_workload(w: Workload) -> None:
    """Raise InvalidWorkload listing every violation that would leave an
    engine undefined, joined by "; ".

    Workload.__post_init__ calls it, so every Workload, dataclasses.replace
    copies included, has passed it. A request sequence shorter than the
    list is legal for every engine here; only the CLI warns about it.
    """
    elements = w.list.elements
    pos = w.list.positions
    # One C-level test per rule: the tokens split back from their join
    # exactly when each passes _valid_token, and pos has l keys exactly
    # when the elements are distinct. Only a failed rule builds messages.
    errors = [] if elements else ["empty list"]
    if " ".join(elements).split() != list(elements) or len(pos) != len(elements):
        for idx, e in enumerate(elements, start=1):
            if not _valid_token(e):
                errors.append(f"bad element token at list position {idx}: {e!r}")
            if pos[e] != idx:
                errors.append(f"duplicate element {e} (list positions {pos[e]} and {idx})")
    if not pos.keys() >= set(w.requests.requests):
        errors += [f"request {idx}: {r} not in list"
                   for idx, r in enumerate(w.requests.requests, start=1) if r not in pos]
    if w.buffer_capacity < 0:
        errors.append(f"negative buffer capacity {w.buffer_capacity}")
    if errors:
        raise InvalidWorkload("; ".join(errors))


_KEYS = ("list", "buffer", "requests")


def parse_workload(text: str) -> Workload:
    """Parse the line-oriented workload format.

    Lines starting with '#' and blank lines are ignored. Exactly one
    `list:`, one `buffer:` and one `requests:` line must appear, in any
    order, and the buffer must be an integer; anything else is a
    ParseError. A file that parses but breaks a workload rule, a
    negative buffer among them, raises InvalidWorkload.
    """
    found: dict[str, tuple[int, str]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep:
            raise ParseError(line_no, "expected 'key: value'")
        if key not in _KEYS:
            raise ParseError(line_no, f"unknown key {key!r}")
        if key in found:
            raise ParseError(line_no, f"duplicate key {key!r}")
        found[key] = (line_no, rest)
    for key in _KEYS:
        if key not in found:
            raise ParseError(0, f"missing '{key}:' line")
    buf_line, buf_text = found["buffer"]
    try:
        buffer_capacity = int(buf_text.strip())
    except ValueError:
        raise ParseError(buf_line, f"buffer must be an integer, got {buf_text.strip()!r}") from None
    return make_workload(
        found["list"][1].split(), found["requests"][1].split(), buffer_capacity
    )


def serialize_workload(w: Workload) -> str:
    """Canonical text form; parse(serialize(w)) == w."""
    return (
        f"list: {' '.join(w.list.elements)}\n"
        f"buffer: {w.buffer_capacity}\n"
        f"requests: {' '.join(w.requests.requests)}\n"
    )
