"""Cost accounting for the list-access cost models.

Four models are supported: full (access at position i costs i), partial
(costs i-1), pd:<d> (access costs i, every exchange costs d), and
centralized (access costs the distance from the central position).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Callable, Iterator
from itertools import repeat
from operator import sub

from .core import Value


class OutOfRange(ValueError):
    """Position outside 1..l."""


class Unsupported(ValueError):
    """Algorithm/model combination this library deliberately refuses."""


class InvalidModel(ValueError):
    """A cost model token or field that names no model."""


class ExchangeKind(enum.Enum):
    # Moving the just-accessed item toward the front is free under the
    # full and partial models, and it is the only exchange the algorithms
    # here make, so no kind of paid exchange is defined. The enum and
    # exchange_cost's kind parameter stay because perfbench/tracer.py
    # wraps exchange_cost(model, kind, transpositions) by position.
    FREE_ELIGIBLE = "free"


MODEL_KINDS = ("full", "partial", "pd", "centralized")


class CostModel(Value):
    def __init__(self, kind: str, d: int = 1):  # d: per-exchange charge, pd only
        self.__dict__.update(kind=kind, d=d)
        if self.kind not in MODEL_KINDS:
            raise InvalidModel(f"unknown cost model kind {self.kind!r}")
        if self.kind == "pd" and self.d < 1:
            raise InvalidModel(f"pd model needs d >= 1, got {self.d}")


FULL = CostModel("full")
PARTIAL = CostModel("partial")
CENTRALIZED = CostModel("centralized")


def pd(d: int) -> CostModel:
    return CostModel("pd", d)


def parse_model_token(token: str) -> CostModel:
    """Parse a CLI/CSV model token: full, partial, pd:<d>, centralized.

    CostModel rejects an unknown name and a pd charge below 1."""
    name, sep, arg = token.partition(":")
    if name == "pd":
        if not sep:
            raise InvalidModel("pd model needs a charge, e.g. pd:2")
        try:
            d = int(arg)
        except ValueError:
            raise InvalidModel(f"pd charge must be an integer, got {arg!r}") from None
        return CostModel("pd", d)
    if sep:
        raise InvalidModel(f"model {name!r} takes no argument")
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


def access_total(model: CostModel, positions: list[int], l: int) -> int:
    """The sum of access_cost(model, i, l) over the positions.

    It makes no Python call per position: one set of the positions is
    checked against 1..l, raising OutOfRange as access_cost does, and
    one sum prices them all.
    """
    distinct = set(positions)
    low, high = min(distinct, default=1), max(distinct, default=l)
    if low < 1 or high > l:
        raise OutOfRange(f"position {low if low < 1 else high} outside 1..{l}")
    if model.kind in ("full", "pd"):
        return sum(positions)
    if model.kind == "partial":
        return sum(positions) - len(positions)
    return sum(map(abs, map(sub, positions, repeat(center_position(l)))))


def exchange_cost(model: CostModel, kind: ExchangeKind, transpositions: int) -> int:
    """Cost of a run of adjacent transpositions that move the accessed
    element toward the front: d each under pd:<d>, free under the other
    models. The count must not be negative.
    """
    if transpositions < 0:
        raise ValueError(f"negative transposition count {transpositions}")
    return transpositions * model.d if model.kind == "pd" else 0


class CostBreakdown(Value):
    """Per-component cost of one run; total is always the component sum."""

    def __init__(self, access: int = 0, matching: int = 0, replacement: int = 0,
                 exchange: int = 0):
        self.__dict__.update(access=access, matching=matching, replacement=replacement,
                             exchange=exchange)

    @property
    def total(self) -> int:
        return self.access + self.matching + self.replacement + self.exchange


StepEvent = namedtuple("StepEvent", "t element source position access_cost matched inserted "
                       "evicted flags_added transpositions", defaults=((), (), (), (), 0))
StepEvent.__doc__ = """One served request, as every engine reports it.

The fields up to flags_added are a trace line's fields in order.
source is "list" or "buffer" (amr only), and position is the list
position or the buffer slot. The classical algorithms leave the amr
bookkeeping empty and count in transpositions the adjacent
exchanges that moved the accessed element toward the front; amr
never moves the list.
"""


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
