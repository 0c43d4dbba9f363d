"""Cost accounting for the list-access cost models.

Four models are supported: full (access at position i costs i), partial
(costs i-1), pd:<d> (access costs i, every exchange costs d), and
centralized (access costs the distance from the central position).
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple


class OutOfRange(ValueError):
    """Position outside 1..l."""


class Unsupported(ValueError):
    """Algorithm/model combination this library deliberately refuses."""


class ExchangeKind(enum.Enum):
    # Moving the just-accessed item toward the front is free under the
    # full and partial models; any other adjacent transposition is paid.
    FREE_ELIGIBLE = "free"
    PAID = "paid"


MODEL_KINDS = ("full", "partial", "pd", "centralized")


@dataclass(frozen=True)
class CostModel:
    kind: str
    d: int = 1  # per-exchange charge, pd only

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown cost model kind {self.kind!r}")
        if self.kind == "pd" and self.d < 1:
            raise ValueError(f"pd model needs d >= 1, got {self.d}")


FULL = CostModel("full")
PARTIAL = CostModel("partial")
CENTRALIZED = CostModel("centralized")


def pd(d: int) -> CostModel:
    return CostModel("pd", d)


def parse_model_token(token: str) -> CostModel:
    """Parse a CLI/CSV model token: full, partial, pd:<d>, centralized."""
    name, sep, arg = token.partition(":")
    if name == "pd":
        if not sep:
            raise ValueError("pd model needs a charge, e.g. pd:2")
        try:
            d = int(arg)
        except ValueError:
            raise ValueError(f"pd charge must be an integer, got {arg!r}") from None
        return CostModel("pd", d)
    if sep:
        raise ValueError(f"model {name!r} takes no argument")
    if name not in MODEL_KINDS:
        raise ValueError(f"unknown cost model token {token!r}")
    return CostModel(name)


def model_token(model: CostModel) -> str:
    if model.kind == "pd":
        return f"pd:{model.d}"
    return model.kind


def center_position(l: int) -> int:
    """Central position used by the centralized model: ceil((l+1)/2)."""
    return (l + 2) // 2


def access_cost(model: CostModel, i: int, l: int) -> int:
    if i < 1 or i > l:
        raise OutOfRange(f"position {i} outside 1..{l}")
    if model.kind in ("full", "pd"):
        return i
    if model.kind == "partial":
        return i - 1
    return abs(i - center_position(l))


def exchange_cost(model: CostModel, kind: ExchangeKind, transpositions: int) -> int:
    """Cost of a run of adjacent transpositions under the model.

    Zero transpositions cost zero everywhere. Paid movement under the
    centralized model is refused: nothing in this library performs it,
    and its cost rule would differ from a per-transposition charge.
    """
    if transpositions < 0:
        raise ValueError(f"negative transposition count {transpositions}")
    if transpositions == 0:
        return 0
    if model.kind == "pd":
        return transpositions * model.d
    if kind is ExchangeKind.FREE_ELIGIBLE:
        return 0
    if model.kind == "centralized":
        raise Unsupported("paid movement under the centralized model is not implemented")
    return transpositions


@dataclass(frozen=True)
class CostBreakdown:
    """Per-component cost of one run; total is always the component sum."""

    access: int = 0
    matching: int = 0
    replacement: int = 0
    exchange: int = 0

    @property
    def total(self) -> int:
        return self.access + self.matching + self.replacement + self.exchange


class StepEvent(NamedTuple):
    """One served request, as every engine reports it.

    The fields up to flags_added are a trace line's fields in order.
    source is "list" or "buffer" (amr only), and position is the list
    position or the buffer slot. The classical algorithms leave the amr
    bookkeeping empty and count in transpositions the adjacent
    exchanges that moved the accessed element toward the front; amr
    never moves the list.
    """

    t: int
    element: str
    source: str
    position: int
    access_cost: int
    matched: tuple[tuple[int, str], ...] = ()
    inserted: tuple[tuple[int, str], ...] = ()
    evicted: tuple[tuple[int, str], ...] = ()
    flags_added: tuple[int, ...] = ()
    transpositions: int = 0


class Steps:
    """A run's StepEvents, built afresh each time the object is iterated.

    len() is the request count n. The engines compute their breakdowns
    without events, so a caller that reads only the totals builds none,
    and one that streams the events, as `run --trace` does, holds one at
    a time. `events` is called once per iteration and returns an
    iterator over the n events in request order.
    """

    __slots__ = ("_n", "_events")

    def __init__(self, n: int, events: Callable[[], Iterator[StepEvent]]):
        self._n = n
        self._events = events

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[StepEvent]:
        return self._events()
