import itertools
import tracemalloc
from bisect import bisect_left
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from listlab import amr
from listlab.amr import (
    Buffer,
    LookaheadWindow,
    buffer_insert,
    lookahead_window,
    match_parallel,
    serve_amr,
    set_flags,
)
from listlab.classic import run_classic
from listlab.core import (
    InvalidWorkload,
    ListConfig,
    RequestSequence,
    Workload,
    make_workload,
    position,
)
from listlab.costs import FULL, StepEvent
from listlab.workloads import generate, list_elements, spec_from_dist_token
from oracles import (
    best_retained,
    flagged_positions,
    matchless,
    positional_matches,
    replay_amr_trace,
    serve_amr_reference,
    static_full_total,
)
from support import listed, skewed_workloads, workloads

NINE = ListConfig(tuple("A B C D E F G H I".split()))


def _requests(text):
    return RequestSequence(tuple(text.split()))


# --- match_parallel ---------------------------------------------------------


def test_match_first_illustration_step():
    r = _requests("I E G D I E D A B I")
    assert match_parallel(NINE, 9, r, 1) == [(5, "E"), (9, "I")]


def test_match_after_g_in_demonstration():
    r = _requests("I E G D I E D B A I")
    assert match_parallel(NINE, 7, r, 3) == [(4, "D")]


def test_match_short_prefix_no_hit():
    # serving the front element gives a one-element window
    r = _requests("I E G D I E D A B I")
    assert match_parallel(NINE, 1, r, 8) == []


def test_match_window_truncates_at_sequence_end():
    r = _requests("C C")
    lst = ListConfig(("A", "B", "C"))
    assert match_parallel(lst, 3, r, 2) == []


# --- buffer_insert ----------------------------------------------------------


def test_insert_fills_lowest_slots_in_match_order():
    buf = Buffer(3)
    inserted, evicted, replaced = buffer_insert(buf, [(5, "E"), (9, "I")])
    assert inserted == [(1, "E"), (2, "I")]
    assert evicted == [] and replaced == 0
    assert buf.slot_of("E") == 1 and buf.slot_of("I") == 2


def test_insert_evicts_fifo_and_reuses_slot():
    buf = Buffer(3)
    buffer_insert(buf, [(5, "E"), (9, "I")])
    buffer_insert(buf, [(4, "D")])
    inserted, evicted, replaced = buffer_insert(buf, [(1, "A")])
    assert evicted == [(1, "E")] and replaced == 1
    assert inserted == [(1, "A")]
    assert buf.slot_of("A") == 1 and buf.slot_of("I") == 2 and buf.slot_of("D") == 3


def test_insert_overflow_keeps_largest_list_positions():
    buf = Buffer(2)
    candidates = [(3, "C"), (7, "G"), (9, "I")]
    inserted, _, replaced = buffer_insert(buf, candidates)
    assert inserted == [(1, "G"), (2, "I")]
    assert replaced == 0
    assert [(k, e) for k, e in best_retained(candidates, 2)] == [(7, "G"), (9, "I")]


def test_insert_drops_already_buffered_elements():
    buf = Buffer(2)
    buffer_insert(buf, [(2, "B")])
    inserted, evicted, replaced = buffer_insert(buf, [(2, "B"), (3, "C")])
    assert inserted == [(2, "C")]
    assert evicted == [] and replaced == 0


def test_insert_batch_eviction_order_is_fifo():
    buf = Buffer(2)
    buffer_insert(buf, [(1, "X")])
    buffer_insert(buf, [(2, "Y")])
    inserted, evicted, replaced = buffer_insert(buf, [(3, "C"), (7, "G")])
    assert evicted == [(1, "X"), (2, "Y")] and replaced == 2
    assert inserted == [(1, "C"), (2, "G")]


def test_insert_capacity_zero_keeps_nothing():
    buf = Buffer(0)
    inserted, evicted, replaced = buffer_insert(buf, [(1, "A"), (2, "B")])
    assert inserted == [] and evicted == [] and replaced == 0


# --- set_flags --------------------------------------------------------------


def test_flags_cover_all_residents_in_window():
    # demonstration state right after the G access
    r = _requests("I E G D I E D B A I")
    buf = Buffer(3)
    buffer_insert(buf, [(5, "E"), (9, "I")])
    buffer_insert(buf, [(4, "D")])
    flags = {2, 5, 6, 10}
    touched = set_flags(flags, lookahead_window(3, 7, 10), buf, r)
    assert touched == [4, 5, 6, 7, 10]
    assert flags == {2, 4, 5, 6, 7, 10}


def test_flags_after_eviction_use_current_residents():
    # demonstration state right after the B access: buffer holds A I D
    r = _requests("I E G D I E D B A I")
    buf = Buffer(3)
    buffer_insert(buf, [(5, "E"), (9, "I")])
    buffer_insert(buf, [(4, "D")])
    buffer_insert(buf, [(1, "A")])
    flags = set()
    touched = set_flags(flags, lookahead_window(8, 2, 10), buf, r)
    assert touched == [9, 10]


def test_flags_empty_window_is_a_no_op():
    flags = {3}
    touched = set_flags(flags, lookahead_window(5, 2, 5), Buffer(2), _requests("A B C A B"))
    assert touched == [] and flags == {3}


# --- serve_amr --------------------------------------------------------------

ILLUSTRATION_TRACE = [
    StepEvent(1, "I", "list", 9, 9, ((5, "E"), (9, "I")), ((1, "E"), (2, "I")), (), (2, 5, 6, 10)),
    StepEvent(2, "E", "buffer", 1, 1),
    StepEvent(3, "G", "list", 7, 7, ((4, "D"),), ((3, "D"),), (), (4, 5, 6, 7, 10)),
    StepEvent(4, "D", "buffer", 3, 3),
    StepEvent(5, "I", "buffer", 2, 2),
    StepEvent(6, "E", "buffer", 1, 1),
    StepEvent(7, "D", "buffer", 3, 3),
    StepEvent(8, "A", "list", 1, 1),
    StepEvent(9, "B", "list", 2, 2, (), (), (), (10,)),
    StepEvent(10, "I", "buffer", 2, 2),
]

DEMONSTRATION_TRACE = [
    StepEvent(1, "I", "list", 9, 9, ((5, "E"), (9, "I")), ((1, "E"), (2, "I")), (), (2, 5, 6, 10)),
    StepEvent(2, "E", "buffer", 1, 1),
    StepEvent(3, "G", "list", 7, 7, ((4, "D"),), ((3, "D"),), (), (4, 5, 6, 7, 10)),
    StepEvent(4, "D", "buffer", 3, 3),
    StepEvent(5, "I", "buffer", 2, 2),
    StepEvent(6, "E", "buffer", 1, 1),
    StepEvent(7, "D", "buffer", 3, 3),
    StepEvent(8, "B", "list", 2, 2, ((1, "A"),), ((1, "A"),), ((1, "E"),), (9, 10)),
    StepEvent(9, "A", "buffer", 1, 1),
    StepEvent(10, "I", "buffer", 2, 2),
]


def test_illustration_run(illustration):
    breakdown, trace = listed(serve_amr(illustration))
    assert trace == ILLUSTRATION_TRACE
    assert (breakdown.access, breakdown.matching, breakdown.replacement) == (31, 3, 0)
    assert breakdown.total == 34


def test_demonstration_run(demonstration):
    breakdown, trace = listed(serve_amr(demonstration))
    assert trace == DEMONSTRATION_TRACE
    assert (breakdown.access, breakdown.matching, breakdown.replacement) == (31, 4, 1)
    assert breakdown.total == 36


def test_reach_keeps_the_longest_window_after_eviction():
    # An evicted element's reach is the largest window end of its
    # residencies; taking the last one instead costs one more access and
    # one more match here.
    w = make_workload(list_elements(30), "Z E28 B E B A A B A A B A A A B B A B A B B B B A W"
                      .split(), 1)
    b, _ = serve_amr(w)
    assert (b.access, b.matching, b.replacement, b.total) == (108, 8, 4, 120)
    assert b == serve_amr_reference(w)[0]

def test_empty_request_sequence():
    breakdown, trace = listed(serve_amr(make_workload("A B".split(), (), 4)))
    assert breakdown.total == 0 and trace == []


def test_invalid_workload_rejected():
    # Building the workload raises, so no engine ever sees it.
    with pytest.raises(InvalidWorkload, match="^duplicate element A"):
        make_workload("A A".split(), ["A"], 1)


def test_stale_flag_falls_back_to_list_access():
    # B gets flagged at positions 3 and 4, then evicted by C at t=2;
    # both flagged B requests must be plain list accesses.
    w = make_workload("A B C".split(), "C C B B C".split(), 1)
    breakdown, trace = listed(serve_amr(w))
    assert trace[0].flags_added == (3, 4)
    assert trace[1].evicted == ((1, "B"),)
    assert trace[2].source == "list" and trace[2].access_cost == 2
    assert trace[3].source == "list" and trace[3].access_cost == 2
    assert trace[4].source == "buffer" and trace[4].access_cost == 1
    assert (breakdown.access, breakdown.matching, breakdown.replacement) == (11, 3, 1)


def test_buffered_but_unflagged_request_served_from_list():
    # the final A sits in the buffer but outside every look-ahead window
    w = make_workload("A B C".split(), "C B A A A".split(), 3)
    _, trace = listed(serve_amr(w))
    assert trace[1].inserted == ((1, "A"),)
    assert trace[2].source == "buffer"
    assert trace[3].source == "buffer"
    assert trace[4].source == "list" and trace[4].position == 1


def test_no_match_workload_costs_like_static():
    w = make_workload("A B C D E".split(), "E D E D".split(), 3)
    assert matchless(w.list.elements, w.requests.requests)
    breakdown, trace = serve_amr(w)
    static, _, _ = run_classic("static", FULL, w)
    assert breakdown.total == static.total
    assert all(ev.source == "list" for ev in trace)


@settings(max_examples=100)
@given(w=workloads())
def test_trace_replay_recovers_breakdown(w):
    breakdown, trace = serve_amr(w)
    replay_amr_trace(w, breakdown, trace)


@given(w=workloads(buffers=(0,)))
def test_zero_capacity_degenerates_to_static_plus_matching(w):
    breakdown, trace = serve_amr(w)
    static, _, _ = run_classic("static", FULL, w)
    assert breakdown.access == static.total
    assert breakdown.replacement == 0
    assert breakdown.total == static.total + breakdown.matching
    for ev in trace:
        assert ev.source == "list"
        assert ev.inserted == () and ev.evicted == () and ev.flags_added == ()


@given(w=workloads(max_l=12, max_n=60, buffers=None))
def test_amr_minus_static_is_matching_replacement_gain_and_loss(w):
    # Every request is served from the list at its position or from the
    # buffer at its slot. gain sums pos - slot over the hits with pos >
    # slot, loss sums slot - pos over the other hits, the costly ones.
    breakdown, steps = serve_amr(w)
    static, _, _ = run_classic("static", FULL, w)
    pos = w.list.positions
    hits = [(pos[ev.element], ev.position) for ev in steps if ev.source == "buffer"]
    gain = sum(p - slot for p, slot in hits if p > slot)
    loss = sum(slot - p for p, slot in hits if p <= slot)
    assert breakdown.total - static.total == \
        breakdown.matching + breakdown.replacement - gain + loss


@given(w=workloads())
def test_serve_amr_is_deterministic(w):
    assert listed(serve_amr(w)) == listed(serve_amr(w))


@given(w=workloads(), extra=st.integers(1, 10**6))
def test_capacity_beyond_list_size_changes_nothing(w, extra):
    # at most l distinct elements can ever be resident
    elements, requests = w.list.elements, w.requests.requests
    capped = listed(serve_amr(make_workload(elements, requests, w.list.l)))
    assert listed(serve_amr(make_workload(elements, requests, w.list.l + extra))) == capped


def test_huge_capacity_allocates_nothing_per_slot():
    elements, requests = "A B C".split(), "C A B C A".split()
    w = make_workload(elements, requests, 10**7)
    tracemalloc.start()
    try:
        breakdown, trace = listed(serve_amr(w))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (breakdown, trace) == listed(serve_amr(make_workload(elements, requests, 3)))


def test_matchless_search_finds_qualifying_workloads():
    # deterministic brute-force sweep over a tiny alphabet
    elements = ("A", "B", "C")
    found = [
        seq
        for seq in itertools.product(elements, repeat=4)
        if matchless(elements, seq)
    ]
    assert found, "search space should contain matchless sequences"
    for seq in found:
        w = make_workload(elements, seq, 2)
        breakdown, _ = serve_amr(w)
        assert breakdown.total == static_full_total(elements, seq)


# --- indexed paths against plain scans ----------------------------------------


@settings(max_examples=300)
@given(w=workloads(max_l=80, max_n=160, buffers=None))
def test_engine_matches_plain_scan_reference(w):
    # l up to 80 puts flag windows on both sides of set_flags' sixteen
    # positions; the breakdown comes from the count path, the events from
    # the steps' flag rule
    assert listed(serve_amr(w)) == serve_amr_reference(w)


# --- the count path and the lazy steps ------------------------------------------


@settings(max_examples=100)
@given(w=skewed_workloads(), capacity=st.integers(0, 12))
def test_count_path_matches_reference_breakdown_under_skew(w, capacity):
    # hot elements stay resident through many list accesses, and small
    # buffers evict elements that come back with a reach from before
    w = w.replace(buffer_capacity=capacity)
    assert serve_amr(w)[0] == serve_amr_reference(w)[0]


def test_count_path_keeps_no_flags(monkeypatch, illustration, demonstration):
    def refuse(*args):
        raise AssertionError("set_flags called")

    monkeypatch.setattr(amr, "set_flags", refuse)
    assert serve_amr(illustration)[0].total == 34
    assert serve_amr(demonstration)[0].total == 36
    # long windows, evictions and hits
    w = generate(spec_from_dist_token("uniform", 100, 2000, 1), 8)
    assert serve_amr(w)[0] == serve_amr_reference(w)[0]
    # only the steps run the flag rule, and only once iterated
    _, steps = serve_amr(illustration)
    with pytest.raises(AssertionError, match="set_flags called"):
        list(steps)


@given(w=workloads(max_l=40, max_n=120, buffers=None))
def test_steps_reiterate_and_replay_to_the_breakdown(w):
    breakdown, steps = serve_amr(w)
    assert len(steps) == w.requests.n
    events = list(steps)
    assert list(steps) == events
    replay_amr_trace(w, breakdown, events)


@given(
    l=st.integers(1, 80),
    idxs=st.lists(st.integers(0, 79), max_size=160),
)
def test_long_window_matches_agree_with_oracle(l, idxs):
    elements = list_elements(l)
    # the first request is the last element, so its window spans the list
    # or the rest of the requests; match_parallel reads the step table's
    # row on every list length
    requests = RequestSequence((elements[-1], *(elements[i % l] for i in idxs)))
    lst = ListConfig(elements)
    for t, x in enumerate(requests.requests, start=1):
        matched = match_parallel(lst, position(lst, x), requests, t)
        assert matched == positional_matches(elements, requests.requests, t)
        matched.append((0, "Z"))  # a new list: the cached row stays as it was
    assert (0, "Z") not in itertools.chain.from_iterable(requests.step_matches(lst))


@given(data=st.data())
def test_step_table_rows_agree_with_oracle(data):
    # one request sequence against two lists of the same elements, so the
    # cached table is rebuilt for each switch
    l = data.draw(st.integers(1, 40))
    elements = list_elements(l)
    idxs = data.draw(st.lists(st.integers(0, l - 1), max_size=3 * l + 20))
    requests = RequestSequence(tuple(elements[i] for i in idxs))
    forward = ListConfig(elements)
    shuffled = ListConfig(tuple(data.draw(st.permutations(elements))))
    for lst in (forward, shuffled, forward):
        table = requests.step_matches(lst)
        assert len(table) == requests.n + 1 and not table[0]
        for t in range(1, requests.n + 1):
            # a row holds the matched elements; each one's offset is its position
            assert [(lst.positions[e], e) for e in table[t]] == \
                positional_matches(lst.elements, requests.requests, t)


def test_every_list_length_reads_the_step_table():
    # With one resident, set_flags scans every window of a list of at most
    # sixteen elements and builds no occurrence lists; at l=17 a window of
    # seventeen positions bisects them.
    for l in (1, 9, 16, 17):
        w = generate(spec_from_dist_token("uniform", l, 3000, 4), 1)
        breakdown, steps = serve_amr(w)
        assert "_step_matches" in vars(w.requests), l
        assert (breakdown, list(steps)) == serve_amr_reference(w)
        assert ("occurrences" in vars(w.requests)) is (l > 16), l


@given(data=st.data())
def test_long_window_flags_agree_with_plain_scan(data):
    l = data.draw(st.integers(1, 80))
    elements = list_elements(l)
    # windows of more than sixteen positions, which set_flags may bisect
    n = data.draw(st.integers(17, 160))
    requests = RequestSequence(
        tuple(elements[i] for i in data.draw(st.lists(st.integers(0, l - 1), min_size=n, max_size=n)))
    )
    # few residents take the bisection rule, many keep the scan
    residents = data.draw(st.lists(st.sampled_from(elements), unique=True, max_size=l))
    buf = Buffer(len(residents))
    buffer_insert(buf, list(enumerate(residents, start=1)))
    t = data.draw(st.integers(0, n - 17))
    window = lookahead_window(t, data.draw(st.integers(17, n)), n)
    before = data.draw(st.sets(st.integers(1, n)))
    flags = set(before)
    touched = set_flags(flags, window, buf, requests)
    assert touched == flagged_positions(requests.requests, window.start, window.end, residents)
    assert flags == before | set(touched)


def test_hot_resident_walks_its_whole_window():
    # A is every other request, so each long window holds far more than
    # eight of its positions, and the windows start in any order.
    elements = list_elements(40)
    requests = RequestSequence(("A", elements[-1]) * 50)
    buf = Buffer(1)
    buffer_insert(buf, [(1, "A")])
    for start, end in ((1, 60), (20, 50), (5, 40), (61, 100)):
        flags: set[int] = set()
        touched = set_flags(flags, LookaheadWindow(start, end), buf, requests)
        assert touched == flagged_positions(requests.requests, start, end, {"A"})
        assert len(touched) > 8 and flags == set(touched)
    # served whole: the first access to the last element buffers it at
    # offset 40 of its window and flags its 20 positions there
    w = make_workload(elements, requests.requests, 1)
    breakdown, events = listed(serve_amr(w))
    assert (breakdown, events) == serve_amr_reference(w)
    assert max(len(ev.flags_added) for ev in events) > 8


@given(
    w=st.one_of(
        workloads(min_l=40, max_l=120, max_n=400, buffers=(0,)),
        skewed_workloads(min_l=40, max_l=120, max_n=400),
    ),
    capacity=st.integers(1, 4),
)
def test_bisection_flags_survive_a_churning_buffer(w, capacity):
    # long windows and few residents take the bisection rule; a small
    # buffer evicts and re-inserts elements, which must be flagged again
    w = w.replace(buffer_capacity=capacity)
    assert listed(serve_amr(w)) == serve_amr_reference(w)


def test_set_flags_keeps_no_state_between_calls():
    elements = list_elements(50)
    uniform, skewed = (
        generate(spec_from_dist_token(dist, 50, 400, 5)).requests
        for dist in ("uniform", "zipf:1.2")
    )
    buf = Buffer(3)
    # rising starts on one sequence, then another sequence, then earlier
    # starts: set_flags keeps nothing between calls on one Buffer
    calls = [(uniform, 1), (uniform, 30), (uniform, 31), (uniform, 200), (skewed, 210),
             (skewed, 260), (skewed, 20), (uniform, 25), (uniform, 340)]
    for k, (requests, start) in enumerate(calls):
        # six elements cycle through three slots, so evicted ones come back
        buffer_insert(buf, [(k, elements[k % 6])])
        window = lookahead_window(start - 1, 60, requests.n)
        flags = set()
        touched = set_flags(flags, window, buf, requests)
        expected = flagged_positions(requests.requests, window.start, window.end, buf.resident)
        assert touched == expected and flags == set(expected)


def test_set_flags_takes_both_rules(monkeypatch):
    # Windows of at most sixteen positions, or of at most eight per
    # resident, are scanned and call no bisection; longer ones bisect each
    # resident that has requests once, and skip residents that never occur.
    bisections = []

    def counting(a, x, *args):
        bisections.append(x)
        return bisect_left(a, x, *args)

    monkeypatch.setattr(amr, "bisect_left", counting)
    elements = list_elements(12)
    requests = RequestSequence(tuple(elements[j % 5] for j in range(60)))
    residents = (elements[0], elements[3], elements[10], elements[11])  # the last two never occur
    buf = Buffer(len(residents))
    buffer_insert(buf, list(enumerate(residents, start=1)))
    cases = [  # (window, bisections)
        (LookaheadWindow(5, 4), 0),  # empty
        (LookaheadWindow(61, 60), 0),  # empty, past the last request
        (LookaheadWindow(1, 1), 0),
        (LookaheadWindow(10, 41), 0),  # 32 positions: scanned
        (LookaheadWindow(10, 42), 2),  # 33 positions: bisected
        (LookaheadWindow(1, 60), 2),
    ]
    for window, expected in cases:
        bisections.clear()
        flags = {70}
        touched = set_flags(flags, window, buf, requests)
        assert touched == flagged_positions(requests.requests, window.start, window.end, residents)
        assert flags == {70, *touched}
        assert len(bisections) == expected, window
    # one resident: sixteen positions are scanned, seventeen bisected
    single = Buffer(1)
    buffer_insert(single, [(1, elements[0])])
    for window, expected in ((LookaheadWindow(3, 18), 0), (LookaheadWindow(3, 19), 1)):
        bisections.clear()
        touched = set_flags(set(), window, single, requests)
        assert touched == flagged_positions(requests.requests, window.start, window.end, [elements[0]])
        assert len(bisections) == expected, window
    # an empty buffer flags nothing, whatever the window, and builds no index
    fresh = RequestSequence(requests.requests)
    for window in (LookaheadWindow(3, 2), LookaheadWindow(1, 60)):
        assert set_flags(set(), window, Buffer(0), fresh) == []
    assert "occurrences" not in vars(fresh)


def test_runs_sharing_one_request_sequence_stay_independent():
    # as scripts/buffer_sensitivity.py does, every capacity shares one
    # request sequence and its cached indices; no run may leak into another
    for dist in ("uniform", "burst:4"):
        generated = generate(spec_from_dist_token(dist, 40, 400, 2))
        l, requests = generated.list.l, generated.requests
        shared = [listed(serve_amr(generated.replace(buffer_capacity=c))) for c in range(l + 3)]
        fresh = [
            listed(serve_amr(make_workload(generated.list.elements, requests.requests, c)))
            for c in range(l + 3)
        ]
        assert shared == fresh
        assert len({breakdown for breakdown, _ in shared}) > 1


def test_one_request_sequence_served_against_two_lists():
    # the step table is cached per list object and rebuilt for another one
    elements = list_elements(40)
    requests = generate(spec_from_dist_token("uniform", 40, 400, 3)).requests
    forward, backward = ListConfig(elements), ListConfig(tuple(reversed(elements)))
    runs = {}
    for lst in (forward, backward, forward, ListConfig(elements), backward):
        w = Workload(lst, requests, 4)
        runs.setdefault(lst.elements, []).append(listed(serve_amr(w)))
        assert runs[lst.elements][-1] == serve_amr_reference(w)
    assert runs[forward.elements][0] != runs[backward.elements][0]


# --- the helpers the benchmark tracer wraps -------------------------------------

# Module attribute -> the positional argument types perfbench/tracer.py
# expects when it swaps in its timing wrappers.
TRACED_HELPERS = {
    "position": (ListConfig, str),
    "match_parallel": (ListConfig, int, RequestSequence, int),
    "buffer_insert": (Buffer, list),
    "lookahead_window": (int, int, int),
    "set_flags": (set, LookaheadWindow, Buffer, RequestSequence),
}


def test_engine_calls_the_traced_helpers(monkeypatch, illustration):
    calls = Counter()

    def counting(name, fn, types):
        def wrapper(*args):  # positional only, like the tracer's wrappers
            assert len(args) == len(types), (name, args)
            assert all(isinstance(a, ty) for a, ty in zip(args, types)), (name, args)
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name, types in TRACED_HELPERS.items():
        monkeypatch.setattr(amr, name, counting(name, getattr(amr, name), types))
    monkeypatch.setattr(Buffer, "slot_of", counting("slot_of", Buffer.slot_of, (Buffer, str)))
    # both workloads, the illustration (l=9) and a long uniform one, read
    # the table of each step's matches; their steps run the indexed paths
    # under the wrappers
    for w in (illustration, generate(spec_from_dist_token("uniform", 100, 2000, 1), 8)):
        calls.clear()
        breakdown, steps = amr.serve_amr(w)
        counted = calls.copy()
        calls.clear()
        trace = list(steps)
        assert (breakdown, trace) == serve_amr_reference(w)
        accesses = sum(ev.source == "list" for ev in trace)
        hits = len(trace) - accesses
        assert accesses > 0 and hits > 0
        # the count path keeps its own FIFO and no flags, and reads its
        # matches from the table: it calls neither helper
        assert counted == Counter(match_parallel=0, buffer_insert=0)
        # the steps run the flag rule through every helper
        assert {name: calls[name] for name in TRACED_HELPERS} == dict.fromkeys(TRACED_HELPERS, accesses)
        assert calls["slot_of"] >= hits
