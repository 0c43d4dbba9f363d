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

Short windows are scanned. Long ones read indices cached on the inputs,
so a list access costs O(matches + flags + residents * log n) rather
than O(window): positions come from a dict, matches from the request
sequence bucketed by diagonal j - pos(r_j), and flags from each
resident's sorted request positions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .core import ListConfig, RequestSequence, Workload, position
from .costs import CostBreakdown, StepEvent


# Look-ahead windows of at most SCAN_MAX requests are scanned position by
# position, as a plain loop; longer ones read the request sequence's cached
# indices (RequestSequence.diagonals and .occurrences). Measured with fresh
# workloads per run (Python 3.11.7 on a shared 2-vCPU Intel Xeon, amr req/s,
# median of 7-9 runs):
#   sweep-l10 instances (l=10, n=200): SCAN_MAX 0: 104k, 4: 105k, 8: 105k,
#     10 or more: 122k; building the indices does not pay off for n=200;
#   scan-l1000 (uniform, l=1000, n=1e4, buffer 8): 10: 46.2k, 16: 48.3k,
#     32: 46.8k, 64: 44.5k; scanning every window: 6.6k.
# Flagging bisects once per buffer resident, and one bisection costs about
# four scan steps, so set_flags also scans windows up to 4 * residents long
# (uniform, l=1000, n=5000, buffer 1000: 20k req/s, against 7.8k when
# only windows up to 1 * residents long were scanned).
SCAN_MAX = 16

_offset = itemgetter(0)


@dataclass(frozen=True)
class LookaheadWindow:
    """Request positions start..end inclusive; end < start means empty."""

    start: int
    end: int


def lookahead_window(t: int, i: int, n: int) -> LookaheadWindow:
    """Window of the next i requests after position t, truncated at n."""
    return LookaheadWindow(t + 1, min(t + i, n))


class Buffer:
    """Fixed-capacity slotted store with FIFO eviction.

    Slots are numbered from 1 and a resident element is served at a cost
    equal to its slot number. Slots are never freed, so they fill as
    1..capacity in order; after that the oldest entry always sits in the
    slot after the newest one, and FIFO eviction visits the slots
    round-robin. The newcomer takes over the evicted slot, so slot
    numbers of the surviving entries never shift.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.slots: list[str] = []
        self.resident: dict[str, int] = {}
        self._cursor = 0  # slot index of the oldest entry once full

    def slot_of(self, element: str) -> int | None:
        return self.resident.get(element)

    def place(self, element: str) -> tuple[int, tuple[int, str] | None]:
        """Insert into the next free slot, evicting FIFO when full.

        Returns (slot, evicted) where evicted is (slot, element) of the
        removed entry or None. Callers must cap the insertion batch to
        the capacity first; capacity 0 never reaches here.
        """
        if len(self.slots) < self.capacity:
            self.slots.append(element)
            slot, evicted = len(self.slots), None
        else:
            slot = self._cursor + 1
            evicted = (slot, self.slots[slot - 1])
            del self.resident[evicted[1]]
            self.slots[slot - 1] = element
            self._cursor = slot % self.capacity
        self.resident[element] = slot
        return slot, evicted


def match_parallel(
    lst: ListConfig, i: int, requests: RequestSequence, t: int
) -> list[tuple[int, str]]:
    """Positional matches of the visited prefix against the window.

    Returns every offset k in 1..min(i, n-t) where the k-th list element
    equals request t+k, in increasing k. The comparison is element-wise,
    not a set intersection: list element k is only ever compared with
    the single request k steps ahead.

    A long window reads diagonal t of the request sequence (requests j
    with j - pos(r_j) = t, see RequestSequence.diagonals) and keeps the
    offsets up to i; this relies on distinct list elements, which every
    validated workload has.
    """
    ahead = requests.requests
    limit = min(i, len(ahead) - t)
    if limit <= SCAN_MAX:
        elements = lst.elements
        out: list[tuple[int, str]] = []
        for k in range(1, limit + 1):
            e = elements[k - 1]
            if e == ahead[t + k - 1]:
                out.append((k, e))
        return out
    diagonal = requests.diagonals(lst).get(t, [])
    return diagonal[: bisect_right(diagonal, limit, key=_offset)]


def buffer_insert(
    buffer: Buffer, candidates: list[tuple[int, str]]
) -> tuple[list[tuple[int, str]], list[tuple[int, str]], int]:
    """Store matched elements, preferring higher list positions on overflow.

    Candidates already resident are dropped first (no cost). Candidates
    arrive in increasing list position, as match_parallel returns them,
    so when more remain than the total capacity the last `capacity` of
    them are the ones with the largest list positions and are kept.
    Survivors are inserted in that order via Buffer.place.

    Returns (inserted, evicted, replacement_count) where inserted and
    evicted are (slot, element) pairs and replacement_count counts
    evictions of pre-existing entries.
    """
    fresh = [(k, e) for k, e in candidates if e not in buffer.resident]
    fresh = fresh[max(0, len(fresh) - buffer.capacity) :]
    inserted: list[tuple[int, str]] = []
    evicted: list[tuple[int, str]] = []
    for _, e in fresh:
        slot, out = buffer.place(e)
        inserted.append((slot, e))
        if out is not None:
            evicted.append(out)
    return inserted, evicted, len(evicted)


def set_flags(
    flags: set[int], window: LookaheadWindow, buffer: Buffer, requests: RequestSequence
) -> list[int]:
    """Flag every window position whose element currently sits in the buffer.

    All buffer residents count, not just this step's insertions. Returns
    the positions scanned into the table this step; re-flagging an
    already flagged position is a no-op on the table but still reported.

    A window longer than SCAN_MAX and than four positions per resident is
    not scanned: each resident's request positions are cut to the window
    by bisection and the pieces are merged in increasing position.
    """
    start, end = window.start, window.end
    resident = buffer.resident
    touched: list[int] = []
    if end - start < SCAN_MAX or end - start < 4 * len(resident):
        reqs = requests.requests
        for j in range(start, end + 1):
            if reqs[j - 1] in resident:
                flags.add(j)
                touched.append(j)
        return touched
    occurrences = requests.occurrences
    for e in resident:
        js = occurrences.get(e, ())
        lo = bisect_left(js, start)
        touched += js[lo : bisect_right(js, end, lo)]
    touched.sort()
    flags.update(touched)
    return touched


def serve_amr(workload: Workload) -> tuple[CostBreakdown, list[StepEvent]]:
    """Serve the whole request sequence under the buffered look-ahead rules.

    A flag is honored only while its element still occupies a buffer
    slot; if the element was evicted in the meantime the request falls
    back to a plain list access, matching and flagging included. An
    unflagged request is always served from the list, even when its
    element happens to be buffered.
    """
    lst = workload.list
    requests = workload.requests
    buffer = Buffer(workload.buffer_capacity)
    flags: set[int] = set()
    access = matching = replacement = 0
    trace: list[StepEvent] = []
    n = requests.n
    for t, x in enumerate(requests.requests, start=1):
        slot = buffer.slot_of(x) if t in flags else None
        flags.discard(t)  # flags only ever hold positions after t
        if slot is not None:
            access += slot
            trace.append(StepEvent(t, x, "buffer", slot, slot))
            continue
        i = position(lst, x)
        access += i
        matched = match_parallel(lst, i, requests, t)
        matching += len(matched)
        inserted, evicted, replaced = buffer_insert(buffer, matched)
        replacement += replaced
        window = lookahead_window(t, i, n)
        touched = set_flags(flags, window, buffer, requests)
        trace.append(
            StepEvent(
                t,
                x,
                "list",
                i,
                i,
                tuple(matched),
                tuple(inserted),
                tuple(evicted),
                tuple(touched),
            )
        )
    breakdown = CostBreakdown(access=access, matching=matching, replacement=replacement)
    return breakdown, trace
