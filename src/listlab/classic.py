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

Only mtf scans the list for each access. static reads the list's cached
position dict, transpose keeps its own copy of that dict up to date
across swaps, and fc keeps the list as groups of equal access count.
"""

from __future__ import annotations

import gc
from itertools import count, repeat

from .core import Workload, require_valid
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

# One function per algorithm serves the requests against the list alone
# and returns the 1-based access positions, the transpositions of each
# step and the final ordering; run_classic does the cost accounting.


def _static(workload: Workload):
    pos = workload.list.positions
    return [pos[x] for x in workload.requests.requests], repeat(0), list(workload.list.elements)


def _mtf(workload: Workload):
    ordering = list(workload.list.elements)
    positions: list[int] = []
    for x in workload.requests.requests:
        idx = ordering.index(x)
        if idx:
            del ordering[idx]
            ordering.insert(0, x)
        positions.append(idx + 1)
    return positions, [i - 1 for i in positions], ordering


def _transpose(workload: Workload):
    ordering = list(workload.list.elements)
    pos = dict(workload.list.positions)  # a private copy: the cached one is shared
    positions: list[int] = []
    for x in workload.requests.requests:
        i = pos[x]
        positions.append(i)
        if i > 1:
            y = ordering[i - 2]
            ordering[i - 2] = x
            ordering[i - 1] = y
            pos[x] = i - 1
            pos[y] = i
    return positions, [int(i > 1) for i in positions], ordering


def _fc(workload: Workload):
    # groups[c] holds the elements accessed c times, front to back, and
    # higher[c] counts the elements accessed more than c times, which all
    # stand in front of group c. Overtaking strictly smaller counts only,
    # an accessed element always lands at the end of group c + 1, so each
    # group is in arrival order and the list is the groups from the
    # highest count down.
    groups = [list(workload.list.elements)]
    higher = [0]
    counts = dict.fromkeys(workload.list.elements, 0)
    positions: list[int] = []
    moves: list[int] = []
    for x in workload.requests.requests:
        c = counts[x]
        group = groups[c]
        rank = group.index(x)
        positions.append(higher[c] + rank + 1)
        moves.append(rank)
        del group[rank]
        c += 1
        counts[x] = c
        if c == len(groups):
            groups.append([])
            higher.append(0)
        groups[c].append(x)
        higher[c - 1] += 1
    return positions, moves, [x for group in reversed(groups) for x in group]


_STEPS = {"static": _static, "mtf": _mtf, "transpose": _transpose, "fc": _fc}


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
    # The run allocates n events and no cycles, and every event lives
    # until the call returns, so a collection during the run frees
    # nothing. With the collector on, the events set off about one pass
    # per 700 of them and now and then a full pass over the whole heap,
    # whose cost varies from call to call.
    collecting = gc.isenabled()
    gc.disable()
    try:
        positions, moves, ordering = _STEPS[algorithm](workload)
        l = workload.list.l
        free = ExchangeKind.FREE_ELIGIBLE
        access = 0
        exchange = 0
        trace: list[StepEvent] = []
        append = trace.append
        for t, x, i, m in zip(count(1), workload.requests.requests, positions, moves):
            # Looked up as module globals on every request, so that callers
            # can wrap the cost functions to watch each step.
            step_access = access_cost(model, i, l)
            access += step_access
            exchange += exchange_cost(model, free, m)
            append(StepEvent(t, x, "list", i, step_access, (), (), (), (), m))
    finally:
        if collecting:
            gc.enable()
    return CostBreakdown(access=access, exchange=exchange), trace, ordering
