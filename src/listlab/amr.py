"""Buffered look-ahead engine with access/matching/replacement accounting.

The input list is never rearranged. Serving a request from the list at
position i costs i and triggers three bookkeeping steps over the next i
requests (the look-ahead window):

  1. parallel matching: offset k is a match when the k-th list element
     equals the k-th upcoming request; each match costs 1;
  2. matched elements are stored in a fixed-capacity buffer with FIFO
     replacement, each eviction costing 1;
  3. every window position whose element now sits in the buffer gets a
     flag.

A flagged request whose element still occupies buffer slot p is served
from the buffer at cost p instead of from the list. Total cost is
access + matching + replacement.

serve_amr decides buffer service in two ways. The breakdown comes from
the reach rule, which keeps no flags: a flag at t is only removed when
request t is served, so request t is a buffer hit exactly when r_t is
resident at t and some earlier list access that left r_t resident had
its window reach t. Each element therefore needs only its reach, the
largest window end over the list accesses it stayed resident through.
The count path keeps its FIFO buffer in loop locals, not in a Buffer.
The steps, built only when someone iterates them, come from the flag
rule: the three steps above with a flag table, through match_parallel,
buffer_insert, lookahead_window and set_flags. The benchmark's untimed
reference pass (perfbench/run.py) checks each rule against the other on
every input, since it sums the iterated steps and compares the sums
with the breakdown.

A list access reads indices cached on the inputs rather than scanning
its window. Positions come from a dict. Matches depend only on the
input, so they are tabled per step once per request sequence
(RequestSequence.step_matches) and a list access reads its own row.
Flags in a long window come from each resident's request positions, cut
to the window by bisection, so the steps cost O(matches + flags) plus a
few bisections per buffer resident per list access.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterator
from functools import partial
from itertools import compress, filterfalse
from operator import itemgetter

from .core import ListConfig, RequestSequence, Workload, position
from .costs import CostBreakdown, StepEvent, Steps


LookaheadWindow = namedtuple("LookaheadWindow", "start end")
LookaheadWindow.__doc__ = "Request positions start..end inclusive; end < start means empty."


def lookahead_window(t: int, i: int, n: int) -> LookaheadWindow:
    """Window of the next i requests after position t, truncated at n."""
    return tuple.__new__(LookaheadWindow, (t + 1, min(t + i, n)))


class Buffer:
    """Fixed-capacity slotted store with FIFO eviction.

    Slots are numbered from 1 and a resident element is served at a cost
    equal to its slot number. buffer_insert places every element of the
    steps (the count path keeps the same FIFO in loop locals): slots are
    never freed, so they fill as 1..capacity in order; after that the
    oldest entry always sits in the slot after the newest one, and FIFO
    eviction visits the slots round-robin. The newcomer takes over the
    evicted slot, so slot numbers of the surviving entries never shift.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.slots: list[str] = []
        self.resident: dict[str, int] = {}
        self._cursor = 0  # slot index of the oldest entry once full

    def slot_of(self, element: str) -> int | None:
        return self.resident.get(element)


def match_parallel(
    lst: ListConfig, i: int, requests: RequestSequence, t: int
) -> list[tuple[int, str]]:
    """Positional matches of the list access at t, whose element is at i.

    Returns every offset k in 1..min(i, n-t) where the k-th list element
    equals request t+k, in increasing k. The comparison is element-wise,
    not a set intersection: list element k is only ever compared with
    the single request k steps ahead.

    Pairs each element of row t of the request sequence's table
    (RequestSequence.step_matches) with its list position, in a new
    list. The row is cut at pos(r_t), so i must be that position, as it
    is for every list access; the table relies on distinct list
    elements, which every validated workload has.
    """
    pos = lst.positions
    return [(pos[e], e) for e in requests.step_matches(lst)[t]]


def buffer_insert(
    buffer: Buffer, candidates: list[tuple[int, str]]
) -> tuple[list[tuple[int, str]], list[tuple[int, str]], int]:
    """Store matched elements, preferring higher list positions on overflow.

    Candidates already resident are dropped first (no cost). Candidates
    arrive in increasing list position, as match_parallel returns them,
    so when more remain than the total capacity the last `capacity` of
    them are the ones with the largest list positions and are kept.
    Survivors take the free slots in order and then evict round-robin,
    as the Buffer docstring describes.

    Returns (inserted, evicted, replacement_count) where inserted and
    evicted are (slot, element) pairs and replacement_count counts
    evictions of pre-existing entries. serve_amr's count loop writes the
    same rule out in its locals; keep the two in step.
    """
    resident = buffer.resident
    fresh = list(filterfalse(resident.__contains__, map(itemgetter(1), candidates)))
    capacity = buffer.capacity
    if len(fresh) > capacity:
        del fresh[: len(fresh) - capacity]
    slots = buffer.slots
    inserted: list[tuple[int, str]] = []
    evicted: list[tuple[int, str]] = []
    for e in fresh:
        if len(slots) < capacity:
            slots.append(e)
            slot = len(slots)
        else:
            slot = buffer._cursor + 1
            old = slots[slot - 1]
            del resident[old]
            evicted.append((slot, old))
            slots[slot - 1] = e
            buffer._cursor = slot % capacity
        resident[e] = slot
        inserted.append((slot, e))
    return inserted, evicted, len(evicted)


# set_flags scans a window of at most eight positions per buffer resident,
# or of at most sixteen, and bisects longer ones. Measured on the steps of
# one run, where the flag rule runs (Python 3.11.7 on a shared 2-vCPU Intel
# Xeon, ms per run, fresh inputs for every run, the factors' runs
# interleaved; median of 11):
#   positions per resident                  1     2     4     8    16
#     zipf:1.2 l=10 n=2e4 buffer 8         79    70    69    68    70
#     uniform l=1000 n=2000 buffer 8       30    30    29    29    30
#     uniform l=1000 n=5000 buffer 1000   479   280   224   224   218
#     uniform l=100 n=1e4 buffer 100       37    32    29    28    28
#     zipf:1.2 l=1000 n=1e4 buffer 1000   204   174   140   121   118
#     burst:4 l=1000 n=1e4 buffer 1000    805   476   332   336   348
# 8 beat 4 on the zipf:1.2 l=1000 row in 15 of 15 interleaved pairs of a
# separate run; on the other rows the two differ by less than the host's
# run-to-run noise.
def set_flags(
    flags: set[int], window: LookaheadWindow, buffer: Buffer, requests: RequestSequence
) -> list[int]:
    """Flag every window position whose element currently sits in the buffer.

    All buffer residents count, not just this step's insertions. Returns
    the positions scanned into the table this step; re-flagging an
    already flagged position is a no-op on the table but still reported.

    An empty buffer flags nothing. A window of at most sixteen positions,
    or of at most eight per resident, is scanned in one C-level pass, so
    short lists never build the occurrence index. A longer one is not
    scanned: each resident's request positions
    (RequestSequence.occurrences) are cut to the window by bisection, and
    the pieces are sorted.
    """
    start, end = window
    resident = buffer.resident
    if not resident:
        return []
    if end - start < max(16, 8 * len(resident)):
        touched = list(compress(
            range(start, end + 1), map(resident.__contains__, requests.requests[start - 1 : end])
        ))
    else:
        occurrences = requests.occurrences
        touched = []
        for e in resident:
            at = occurrences.get(e)
            if at:
                lo = bisect_left(at, start)
                touched += at[lo : bisect_right(at, end, lo)]
        touched.sort()
    flags.update(touched)
    return touched


def serve_amr(workload: Workload) -> tuple[CostBreakdown, Steps]:
    """Serve the whole request sequence under the buffered look-ahead rules.

    A flag is honored only while its element still occupies a buffer
    slot; if the element was evicted in the meantime the request falls
    back to a plain list access, matching and flagging included. An
    unflagged request is always served from the list, even when its
    element happens to be buffered.

    The breakdown is counted by the reach rule (see the module
    docstring) without flags or events; the returned Steps run the flag
    rule each time they are iterated.
    """
    lst = workload.list
    requests = workload.requests
    n = requests.n
    pos = lst.positions
    table = requests.step_matches(lst)
    capacity = workload.buffer_capacity
    # buffer_insert's FIFO rule in locals; keep the two in step. Residents
    # are dropped before any eviction, overflow keeps the largest list
    # positions, and slots fill in order, then evict round-robin. With a
    # shared helper called here, serve_amr ran at about 0.86x the req/s
    # (uniform l=1000, n=1e4, buffer 8), so the rule stays written twice.
    slots: list[str] = []
    cursor = 0
    resident: dict[str, int] = {}  # element -> slot
    since: dict[str, int] = {}  # resident element -> the list access that inserted it
    reach: dict[str, int] = {}  # element -> largest window end of its finished residencies
    # Every list access so far as (time, window end), minus those whose
    # end a later access matches or passes: times rise and ends fall, so
    # the largest end over the accesses from time s on is the first one
    # at or after s. Ends are not cut at n, since no request lies past it;
    # the entry at time 0 ends past them all, so it is never popped or found.
    times: list[int] = [0]
    ends: list[int] = [n + lst.l + 1]
    access = matching = replacement = 0
    for t, x in enumerate(requests.requests, start=1):
        slot = resident.get(x)
        if slot is not None and (
            t <= ends[bisect_left(times, since[x])] or t <= reach.get(x, 0)
        ):
            access += slot
            continue
        i = pos[x]
        access += i
        matched = table[t]
        if matched:
            matching += len(matched)
            fresh = list(filterfalse(resident.__contains__, matched))
            if len(fresh) > capacity:
                del fresh[: len(fresh) - capacity]
            for e in fresh:
                if len(slots) < capacity:
                    slots.append(e)
                    resident[e] = len(slots)
                else:
                    old = slots[cursor]
                    slots[cursor] = e
                    del resident[old]
                    end = ends[bisect_left(times, since.pop(old))]
                    if end > reach.get(old, 0):
                        reach[old] = end
                    replacement += 1
                    cursor += 1
                    resident[e] = cursor
                    if cursor == capacity:
                        cursor = 0
                since[e] = t
        end = t + i
        while ends[-1] <= end:
            ends.pop()
            times.pop()
        times.append(t)
        ends.append(end)
    breakdown = CostBreakdown(access=access, matching=matching, replacement=replacement)
    return breakdown, Steps(n, partial(_steps, workload))


def _steps(workload: Workload) -> Iterator[StepEvent]:
    """The run's StepEvents in request order, by the flag rule."""
    lst = workload.list
    requests = workload.requests
    buffer = Buffer(workload.buffer_capacity)
    flags: set[int] = set()
    n = requests.n
    # tuple.__new__ makes each StepEvent straight from its fields, without
    # the Python-level namedtuple constructor.
    new = tuple.__new__
    for t, x in enumerate(requests.requests, start=1):
        if t in flags:
            flags.remove(t)  # flags only ever hold positions after t
            slot = buffer.slot_of(x)
            if slot is not None:
                yield new(StepEvent, (t, x, "buffer", slot, slot, (), (), (), (), 0))
                continue
        i = position(lst, x)
        matched = match_parallel(lst, i, requests, t)
        inserted, evicted, _ = buffer_insert(buffer, matched)
        window = lookahead_window(t, i, n)
        touched = set_flags(flags, window, buffer, requests)
        yield new(StepEvent, (
            t, x, "list", i, i, tuple(matched), tuple(inserted), tuple(evicted), tuple(touched), 0,
        ))
