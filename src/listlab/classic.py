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

static reads the list's cached position dict, and transpose keeps its
own copy of that dict up to date across swaps. mtf and fc scan short
lists only, up to SCAN_MAX and FC_SCAN_MAX elements: mtf with list.index
over the list, fc over the group of elements with the accessed one's
count. On longer lists both stamp each element with the time of its
last access and find it by bisecting a sorted list of stamps: the whole
list read back to front for mtf, one count group for fc.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from itertools import count, repeat

from .core import Workload
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

# mtf scans lists of at most SCAN_MAX elements with list.index, and fc
# lists of at most FC_SCAN_MAX; longer ones find the accessed element by
# bisecting stamps. Measured through run_classic under full (Python
# 3.11.7 on a shared 2-vCPU Intel Xeon, req/s, median of 11 alternating
# pairs, three workloads of n=2000 each; stamps against scan):
#   mtf uniform: l=10 0.99, 16 0.95, 24 1.02, 32 1.15, 48 1.18, 64 1.22;
#   mtf zipf:1.2: l=10 0.92, 16 0.93, 24 0.97, 32 0.98, 48 1.10, 64 1.07;
#   fc uniform: l=10 0.94, 64 0.92, 128 0.97, 256 1.11, 512 1.39;
#   fc zipf:1.2: l=10 0.92, 64 0.91, 128 0.90, 256 0.89, 512 1.00;
#   at l=1000, n=1e4: fc uniform 1.54, zipf:1.2 1.04.
# fc's scan stays cheap on longer lists, because it walks one count group,
# not the whole list, and under skewed requests those groups stay short.
SCAN_MAX = 32
FC_SCAN_MAX = 256

# One function per algorithm serves the requests against the list alone
# and returns the 1-based access positions, the transpositions of each
# step and the final ordering; run_classic does the cost accounting.


def _static(workload: Workload):
    pos = workload.list.positions
    requests = workload.requests.requests
    return [pos[x] for x in requests], repeat(0, len(requests)), list(workload.list.elements)


def _mtf(workload: Workload):
    if workload.list.l > SCAN_MAX:
        return _mtf_stamped(workload)
    ordering = list(workload.list.elements)
    positions: list[int] = []
    for x in workload.requests.requests:
        idx = ordering.index(x)
        if idx:
            del ordering[idx]
            ordering.insert(0, x)
        positions.append(idx + 1)
    return positions, [i - 1 for i in positions], ordering


def _mtf_stamped(workload: Workload):
    # last[x] is the time of x's last access, the initial list stamped -1
    # (front) down to -l (back). stamps holds every element's stamp in
    # increasing order, which is the list read back to front, so the
    # element stamped s stands at position l - bisect_left(stamps, s).
    elements = workload.list.elements
    l = len(elements)
    last = dict(zip(elements, range(-1, -l - 1, -1)))
    stamps = list(range(-l, 0))
    push = stamps.append
    positions: list[int] = []
    append = positions.append
    for t, x in enumerate(workload.requests.requests):
        k = bisect_left(stamps, last[x])
        append(l - k)
        del stamps[k]
        push(t)
        last[x] = t
    return positions, [i - 1 for i in positions], sorted(last, key=last.__getitem__, reverse=True)


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
    if workload.list.l > FC_SCAN_MAX:
        return _fc_stamped(workload)
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


def _fc_stamped(workload: Workload):
    # _fc's groups and counts, but each group holds the increasing stamps
    # at which its members joined it instead of the members: the initial
    # list joins group 0 at -l (front) up to -1 (back), and the element
    # accessed at time t joins its next group at t. An element's rank in
    # its group is then a bisection on its join stamp.
    elements = workload.list.elements
    l = len(elements)
    groups = [list(range(-l, 0))]
    higher = [0]
    counts = dict.fromkeys(elements, 0)
    joined = dict(zip(elements, range(-l, 0)))
    positions: list[int] = []
    moves: list[int] = []
    for t, x in enumerate(workload.requests.requests):
        c = counts[x]
        group = groups[c]
        rank = bisect_left(group, joined[x])
        positions.append(higher[c] + rank + 1)
        moves.append(rank)
        del group[rank]
        c += 1
        counts[x] = c
        if c == len(groups):
            groups.append([])
            higher.append(0)
        groups[c].append(t)
        joined[x] = t
        higher[c - 1] += 1
    return positions, moves, sorted(elements, key=lambda x: (-counts[x], joined[x]))


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
