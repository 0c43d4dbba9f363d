"""Input list, request sequence, and the workload file format.

Positions are 1-based throughout: the front element of a list has
position 1, the first request has position 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class NotInList(LookupError):
    """Requested element does not occur in the list."""


class InvalidWorkload(ValueError):
    """Workload failed validation; the message lists every violation."""


class ParseError(ValueError):
    """Workload file is malformed. `line_no` 0 means the file as a whole."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


def _valid_token(token: str) -> bool:
    return len(token) >= 1 and not any(ch.isspace() for ch in token)


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
        tuple.index. Built on first use and shared by every caller, so
        it must not be mutated; it never enters == or hash()."""
        return dict(zip(reversed(self.elements), range(self.l, 0, -1)))


@dataclass(frozen=True)
class RequestSequence:
    requests: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.requests)

    @cached_property
    def occurrences(self) -> dict[str, list[int]]:
        """Element -> its request positions (1-based), increasing.

        Built on first use and shared like ListConfig.positions."""
        occ: dict[str, list[int]] = {}
        for j, r in enumerate(self.requests, start=1):
            occ.setdefault(r, []).append(j)
        return occ

    def diagonals(self, lst: ListConfig) -> dict[int, list[tuple[int, str]]]:
        """Request j bucketed by t = j - pos(r_j), for t >= 1, as (pos, r_j).

        List element k equals request t+k exactly when request t+k has
        position k, so bucket t holds every positional match at step t,
        in increasing k. Requests not in the list are left out. The table
        depends on the list too, so it is cached together with the list
        object it was built from and rebuilt for any other list.
        """
        cached = self.__dict__.get("_diagonals")
        if cached is not None and cached[0] is lst:
            return cached[1]
        pos = lst.positions
        table: dict[int, list[tuple[int, str]]] = {}
        for j, r in enumerate(self.requests, start=1):
            k = pos.get(r)
            if k is not None and k < j:
                table.setdefault(j - k, []).append((k, r))
        # Frozen dataclass: write the cache slot past __setattr__, as
        # cached_property does.
        self.__dict__["_diagonals"] = (lst, table)
        return table


@dataclass(frozen=True)
class Workload:
    list: ListConfig
    requests: RequestSequence
    buffer_capacity: int


def make_workload(elements, requests, buffer_capacity: int) -> Workload:
    """Build a Workload from element-token iterables."""
    return Workload(
        ListConfig(tuple(elements)), RequestSequence(tuple(requests)), buffer_capacity
    )


def position(lst: ListConfig, x: str) -> int:
    """1-based position of x in the list; raises NotInList when absent."""
    try:
        return lst.positions[x]
    except KeyError:
        raise NotInList(x) from None


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_workload(w: Workload) -> ValidationReport:
    """Report every violation that would leave an engine undefined.

    A request sequence shorter than the list is legal for every engine
    here, so it is only warned about. The report is cached on the
    workload object, so the CLI's check and every engine's check of one
    workload validate it once; any other object, even one built by
    dataclasses.replace from it, is validated afresh.
    """
    report = w.__dict__.get("_report")
    if report is None:
        report = _validation_report(w)
        # Frozen dataclass: write past __setattr__, as RequestSequence.diagonals does.
        w.__dict__["_report"] = report
    return report


def _validation_report(w: Workload) -> ValidationReport:
    errors: list[str] = []
    warnings: list[str] = []
    if w.list.l == 0:
        errors.append("empty list")
    seen: dict[str, int] = {}
    for idx, e in enumerate(w.list.elements, start=1):
        if not _valid_token(e):
            errors.append(f"bad element token at list position {idx}: {e!r}")
        if e in seen:
            errors.append(f"duplicate element {e} (list positions {seen[e]} and {idx})")
        else:
            seen[e] = idx
    for idx, r in enumerate(w.requests.requests, start=1):
        if r not in seen:
            errors.append(f"request {idx}: {r} not in list")
    if w.buffer_capacity < 0:
        errors.append(f"negative buffer capacity {w.buffer_capacity}")
    if not errors and w.requests.n < w.list.l:
        warnings.append(
            f"request sequence shorter than list (n={w.requests.n} < l={w.list.l})"
        )
    return ValidationReport(tuple(errors), tuple(warnings))


def require_valid(w: Workload) -> None:
    report = validate_workload(w)
    if not report.ok:
        raise InvalidWorkload("; ".join(report.errors))


_KEYS = ("list", "buffer", "requests")


def parse_workload(text: str) -> Workload:
    """Parse the line-oriented workload format.

    Lines starting with '#' and blank lines are ignored. Exactly one
    `list:`, one `buffer:` and one `requests:` line must appear, in any
    order; anything else is a ParseError.
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
    if buffer_capacity < 0:
        raise ParseError(buf_line, f"buffer must be non-negative, got {buffer_capacity}")
    return make_workload(
        found["list"][1].split(), found["requests"][1].split(), buffer_capacity
    )


def serialize_workload(w: Workload) -> str:
    """Canonical text form; parse(serialize(w)) == w for valid workloads."""
    return (
        f"list: {' '.join(w.list.elements)}\n"
        f"buffer: {w.buffer_capacity}\n"
        f"requests: {' '.join(w.requests.requests)}\n"
    )
