"""Independent recomputation helpers used to cross-check engine output.

Everything here is written from the cost definitions directly, without
calling into the engines or the package's cost functions, so tests can
compare two routes to the same number. Only the package's value types
are shared.
"""

from bisect import bisect_right
from functools import lru_cache
from itertools import combinations, permutations
from math import ceil, inf
from operator import add

from listlab.classic import CLASSIC_ALGORITHMS
from listlab.core import ListConfig, RequestSequence, Workload
from listlab.costs import CostBreakdown, StepEvent, Unsupported


def access_cost(model, i, l):
    """An access at list position i of l: full and pd:<d> charge i,
    partial the i - 1 elements in front, and centralized the distance
    from the central position ceil((l + 1) / 2)."""
    if model.kind == "partial":
        return i - 1
    if model.kind == "centralized":
        return abs(i - ceil((l + 1) / 2))
    return i


def exchange_cost(model, moves):
    """moves adjacent exchanges that move the accessed element toward the
    front: d each under pd:<d>, free under full, partial and centralized."""
    return moves * model.d if model.kind == "pd" else 0


def name_at(p):
    """The generators' name for list position p: A..Z, then E27, E28, ..."""
    return chr(ord("A") + p - 1) if p <= 26 else f"E{p}"


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
        idx = ordering.index(x)
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
        exchange += exchange_cost(model, moves)
        trace.append(StepEvent(t, x, "list", i, step_access, transpositions=moves))
    return CostBreakdown(access=access, exchange=exchange), trace, ordering


def pair_total(algorithm, elements, requests):
    """The partial-model total of static, mtf or fc, summed over pairs.

    An access under partial costs the number of elements in front of the
    accessed one, so a run's total is, over every pair {a, b}, the number
    of requests to a or b served while the other stood in front. Under
    these three algorithms which of a and b stands in front depends only
    on the requests to a and b, so each pair is served as a two-element
    list over its own requests, merged in time order:

      static  the one in front at the start stays in front
      mtf     the one requested last is in front
      fc      the one requested more often is in front; at equal counts
              the one that reached the count first stays in front

    About (l - 1) * n element visits.
    """
    if algorithm not in ("static", "mtf", "fc"):
        raise ValueError(f"{algorithm!r} does not decompose into pairs")
    times = {e: [] for e in elements}
    for t, x in enumerate(requests):
        times[x].append(t)
    total = 0
    for k, a in enumerate(elements):
        for b in elements[k + 1 :]:
            front = a  # a stands in front of b at the start
            counts = {a: 0, b: 0}
            for t in sorted(times[a] + times[b]):
                x = requests[t]
                if x != front:
                    total += 1
                if algorithm == "mtf":
                    front = x
                elif algorithm == "fc":
                    counts[x] += 1
                    if counts[x] > counts[front]:
                        front = x
    return total


def pair_opt_bound(elements, requests):
    """The sum, over every pair {a, b}, of the offline optimum under
    partial on the two-element list (a, b) served the pair's requests.

    On two elements the optimum is a dynamic program over which element
    stands in front. Before an access the two may be swapped, a paid
    exchange at cost 1; the access costs 1 when the other element stands
    in front and 0 otherwise; after it the accessed element may move to
    the front for free. Under partial every algorithm's total, its paid
    exchanges included, is the sum of what it pays on each pair's
    projection, and no projection costs less than its pair's optimum, so
    the sum is at most every algorithm's partial total, the offline
    optimum's included (Borodin & El-Yaniv, 1998, ch. 1). About
    (l - 1) * n element visits.
    """
    times = {e: [] for e in elements}
    for t, x in enumerate(requests):
        times[x].append(t)
    total = 0
    for k, a in enumerate(elements):
        for b in elements[k + 1 :]:
            # cheapest cost so far that leaves a, or b, in front; a starts there
            a_front, b_front = 0, inf
            for t in sorted(times[a] + times[b]):
                a_front, b_front = min(a_front, b_front + 1), min(b_front, a_front + 1)
                if requests[t] == a:
                    a_front, b_front = min(a_front, b_front + 1), b_front + 1
                else:
                    a_front, b_front = a_front + 1, min(b_front, a_front + 1)
            total += min(a_front, b_front)
    return total


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


_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 one output at a time; the output stream depends only on
    the 64-bit seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection."""
        if n <= 0:
            raise ValueError(f"need n >= 1, got {n}")
        span = _MASK64 + 1
        limit = span - span % n
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def unit(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def generate_reference(spec, buffer_capacity=3):
    """workloads.generate with one SplitMix64 call per draw and one
    name_at call per element."""
    n = spec.list_size if spec.dist == "reverse" else spec.length
    elements = tuple(name_at(p) for p in range(1, spec.list_size + 1))
    rng = SplitMix64(spec.seed)
    if spec.dist == "reverse":
        requests = tuple(reversed(elements))
    elif spec.dist == "uniform":
        requests = tuple(elements[rng.below(spec.list_size)] for _ in range(n))
    elif spec.dist == "zipf":
        # Inverse-CDF sampling over weights rank**(-skew).
        cumulative = []
        total = 0.0
        for rank in range(1, spec.list_size + 1):
            total += rank ** -spec.zipf_skew
            cumulative.append(total)
        picks = []
        for _ in range(n):
            u = rng.unit() * total
            idx = min(bisect_right(cumulative, u), spec.list_size - 1)
            picks.append(elements[idx])
        requests = tuple(picks)
    else:  # burst
        out = []
        while len(out) < n:
            e = elements[rng.below(spec.list_size)]
            # A run may be longer than the whole sequence; cap it at what is left.
            out.extend([e] * min(spec.run_length, n - len(out)))
        requests = tuple(out)
    return Workload(ListConfig(elements), RequestSequence(requests), buffer_capacity)
