"""The classical self-organizing list algorithms.

Each run serves the requests in order against a mutable copy of the
list, paying the model's access cost at the element's current position
and rearranging per the algorithm:

  static     no rearrangement
  mtf        move the accessed element to the front
  transpose  swap the accessed element with its predecessor
  fc         keep the list in non-increasing access-count order

All rearrangements move the just-accessed element toward the front, so
they are free under the full and partial models and charged d per
transposition under pd:<d>.
"""

from __future__ import annotations

from .core import NotInList, Workload, require_valid
from .costs import (
    CostBreakdown,
    CostModel,
    ExchangeKind,
    StepEvent,
    Unsupported,
    access_cost,
    exchange_cost,
)

CLASSIC_ALGORITHMS = ("static", "mtf", "transpose", "fc")


def run_classic(
    algorithm: str, model: CostModel, workload: Workload
) -> tuple[CostBreakdown, list[StepEvent], list[str]]:
    """Serve the whole request sequence; buffer capacity is ignored.

    Returns the breakdown, one event per request and the final ordering.
    """
    if algorithm not in CLASSIC_ALGORITHMS:
        raise Unsupported(f"unknown algorithm {algorithm!r}")
    if model.kind == "centralized" and algorithm != "static":
        raise Unsupported("only the static algorithm is defined under the centralized model")
    require_valid(workload)
    ordering = list(workload.list.elements)
    counts = {e: 0 for e in ordering}
    l = len(ordering)
    access = 0
    exchange = 0
    trace: list[StepEvent] = []
    for t, x in enumerate(workload.requests.requests, start=1):
        try:
            idx = ordering.index(x)
        except ValueError:
            raise NotInList(x) from None
        i = idx + 1
        step_access = access_cost(model, i, l)
        moves = 0
        if algorithm == "mtf":
            if idx > 0:
                del ordering[idx]
                ordering.insert(0, x)
            moves = idx
        elif algorithm == "transpose":
            if idx > 0:
                ordering[idx - 1], ordering[idx] = ordering[idx], ordering[idx - 1]
                moves = 1
        elif algorithm == "fc":
            counts[x] += 1
            # Overtake strictly smaller counts only; ties keep their order.
            j = idx
            while j > 0 and counts[ordering[j - 1]] < counts[x]:
                j -= 1
            if j != idx:
                del ordering[idx]
                ordering.insert(j, x)
            moves = idx - j
        access += step_access
        exchange += exchange_cost(model, ExchangeKind.FREE_ELIGIBLE, moves)
        trace.append(StepEvent(t, x, "list", i, step_access, transpositions=moves))
    return CostBreakdown(access=access, exchange=exchange), trace, ordering
