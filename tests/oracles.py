"""Independent recomputation helpers used to cross-check engine output.

Everything here is written from the cost definitions directly, without
calling into the engines, so tests can compare two routes to the same
number.
"""

from functools import lru_cache
from itertools import combinations, permutations
from math import inf
from operator import add

from listlab import (
    CLASSIC_ALGORITHMS,
    CostBreakdown,
    ExchangeKind,
    NotInList,
    StepEvent,
    Unsupported,
    access_cost,
    exchange_cost,
)


def static_full_total(elements, requests):
    """Sum of fixed list positions, full model, no rearrangement."""
    pos = {e: i for i, e in enumerate(elements, start=1)}
    return sum(pos[x] for x in requests)


def mtf_full_total(elements, requests):
    """Straightforward move-to-front replay under the full model."""
    order = list(elements)
    total = 0
    for x in requests:
        total += order.index(x) + 1
        order.remove(x)
        order.insert(0, x)
    return total


def run_classic_reference(algorithm, model, workload):
    """The classical algorithms as plain scans over one list.

    Every access looks up its position with list.index, and fc walks back
    through the elements of equal or smaller count one by one. Returns
    (breakdown, events, final ordering) like run_classic.
    """
    if algorithm not in CLASSIC_ALGORITHMS:
        raise Unsupported(f"unknown algorithm {algorithm!r}")
    if model.kind == "centralized" and algorithm != "static":
        raise Unsupported("only the static algorithm is defined under the centralized model")
    ordering = list(workload.list.elements)
    counts = {e: 0 for e in ordering}
    l = len(ordering)
    access = 0
    exchange = 0
    trace = []
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


@lru_cache(maxsize=None)
def _orders(l):
    """Every order of 0..l-1 (the identity first), with, for each order m,
    the exchange distances dist[m][k] from every order k, and the orders
    moves[m][x] that moving element x toward the front of m can give.

    The fewest adjacent exchanges that turn one order into another is the
    number of pairs the two orders rank differently.
    """
    orders = list(permutations(range(l)))
    index = {o: m for m, o in enumerate(orders)}

    def distance(a, b):
        rank = {e: p for p, e in enumerate(a)}
        seq = [rank[e] for e in b]
        return sum(seq[p] > seq[q] for p, q in combinations(range(l), 2))

    dist = [[distance(a, b) for a in orders] for b in orders]
    moves = [
        [
            [index[o[:j] + (x,) + o[j : o.index(x)] + o[o.index(x) + 1 :]]
             for j in range(o.index(x) + 1)]
            for x in range(l)
        ]
        for o in orders
    ]
    return orders, dist, moves


def opt_full_total(elements, requests):
    """Offline optimum under the full model, by dynamic programming over
    all l! orders of the list.

    Before each access any adjacent exchanges may be made at cost 1
    each; the access at position i costs i; afterwards the accessed
    element may move any distance toward the front for free. cost[m] is
    the cheapest way to serve the requests so far and leave the list in
    order m. Exponential in l, so keep l <= 5. Paid exchanges alone reach
    the optimum (Reingold & Westbrook, IPL 1996), so the free moves, which
    the model allows, change no total.
    """
    orders, dist, moves = _orders(len(elements))
    ids = {e: k for k, e in enumerate(elements)}
    cost = [0] + [inf] * (len(orders) - 1)
    for x in (ids[r] for r in requests):
        paid = [min(map(add, cost, row)) for row in dist]
        cost = [inf] * len(orders)
        for m, c in enumerate(paid):
            c += orders[m].index(x) + 1
            for after in moves[m][x]:
                if c < cost[after]:
                    cost[after] = c
    return min(cost)


def positional_matches(elements, requests, t):
    """(k, element) pairs with elements[k] == requests[t+k], 1-based."""
    pos = {e: i for i, e in enumerate(elements, start=1)}
    i = pos[requests[t - 1]]
    n = len(requests)
    limit = min(i, n - t)
    return [
        (k, elements[k - 1])
        for k in range(1, limit + 1)
        if elements[k - 1] == requests[t + k - 1]
    ]


def flagged_positions(requests, start, end, resident):
    """Window positions start..end (1-based) whose request is resident."""
    return [j for j in range(start, end + 1) if requests[j - 1] in resident]


def serve_amr_reference(workload):
    """The buffered look-ahead engine as plain scans over lists.

    Every list access looks up its position with list.index, compares
    each offset of the window one by one and scans the whole window for
    buffered elements. The buffer is a FIFO of slots filled 1..capacity
    in order, then overwritten round-robin. Returns (breakdown, events)
    in the engine's own types.
    """
    elements = workload.list.elements
    requests = workload.requests.requests
    n = len(requests)
    capacity = workload.buffer_capacity
    slots = []  # slot p holds slots[p - 1]
    oldest = 0  # index of the next slot to evict once all are full
    flags = set()
    access = matching = replacement = 0
    trace = []
    for t in range(1, n + 1):
        x = requests[t - 1]
        if t in flags and x in slots:
            slot = slots.index(x) + 1
            access += slot
            trace.append(StepEvent(t, x, "buffer", slot, slot))
            continue
        i = elements.index(x) + 1
        access += i
        matched = positional_matches(elements, requests, t)
        matching += len(matched)
        fresh = [e for _, e in matched if e not in slots]
        fresh = fresh[max(0, len(fresh) - capacity) :]
        inserted, evicted = [], []
        for e in fresh:
            if len(slots) < capacity:
                slots.append(e)
                inserted.append((len(slots), e))
            else:
                evicted.append((oldest + 1, slots[oldest]))
                slots[oldest] = e
                inserted.append((oldest + 1, e))
                oldest = (oldest + 1) % capacity
        replacement += len(evicted)
        touched = flagged_positions(requests, t + 1, min(t + i, n), slots)
        flags.update(touched)
        trace.append(
            StepEvent(
                t, x, "list", i, i, tuple(matched), tuple(inserted), tuple(evicted),
                tuple(touched),
            )
        )
    return CostBreakdown(access=access, matching=matching, replacement=replacement), trace


def matchless(elements, requests):
    """True when no request position yields any positional match."""
    return all(
        not positional_matches(elements, requests, t)
        for t in range(1, len(requests) + 1)
    )


def best_retained(candidates, capacity):
    """Expected overflow survivors, by subset enumeration.

    Among all size-`capacity` subsets the kept one must have the
    greatest sorted list-position tuple, which is exactly "keep the
    largest positions".
    """
    if len(candidates) <= capacity:
        return sorted(candidates)
    best = None
    best_key = None
    for combo in combinations(candidates, capacity):
        key = sorted(k for k, _ in combo)
        if best_key is None or key > best_key:
            best, best_key = combo, key
    return sorted(best)


def replay_amr_trace(workload, breakdown, trace):
    """Re-derive every cost component from the trace while checking the
    engine invariants against independently tracked buffer/flag state.
    """
    elements = workload.list.elements
    requests = workload.requests.requests
    n = len(requests)
    capacity = workload.buffer_capacity
    slots = [None] * capacity
    flags = set()
    access = matching = replacement = 0
    assert len(trace) == n, "one event per request"
    for served, ev in enumerate(trace, start=1):
        assert ev.t == served
        x = requests[ev.t - 1]
        assert ev.element == x
        if ev.source == "buffer":
            assert ev.t in flags, "buffer hits require a flag"
            assert 1 <= ev.position <= capacity
            assert slots[ev.position - 1] == x, "hit must name the resident slot"
            assert ev.access_cost == ev.position
            assert ev.matched == () and ev.inserted == () and ev.evicted == ()
            assert ev.flags_added == ()
            access += ev.access_cost
            continue
        assert ev.source == "list"
        i = elements.index(x) + 1
        assert ev.position == i, "list positions never change"
        assert ev.access_cost == i
        access += i
        assert list(ev.matched) == positional_matches(elements, requests, ev.t)
        matching += len(ev.matched)
        for slot, e in ev.evicted:
            assert slots[slot - 1] == e, "evictions name real residents"
            slots[slot - 1] = None
        replacement += len(ev.evicted)
        for slot, e in ev.inserted:
            assert slots[slot - 1] is None, "insertions claim free slots"
            assert e not in [r for r in slots if r is not None]
            slots[slot - 1] = e
        resident = [r for r in slots if r is not None]
        assert len(resident) <= capacity
        assert len(set(resident)) == len(resident), "buffer holds distinct elements"
        lo, hi = ev.t + 1, min(ev.t + i, n)
        for j in ev.flags_added:
            assert lo <= j <= hi, "flags stay inside the look-ahead window"
            assert requests[j - 1] in resident
        flags.update(ev.flags_added)
    assert breakdown.access == access
    assert breakdown.matching == matching
    assert breakdown.replacement == replacement
    assert breakdown.exchange == 0
    assert breakdown.total == access + matching + replacement
