import itertools
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from listlab import (
    FULL,
    Buffer,
    InvalidWorkload,
    ListConfig,
    LookaheadWindow,
    RequestSequence,
    StepEvent,
    Workload,
    amr,
    buffer_insert,
    generate,
    lookahead_window,
    make_workload,
    match_parallel,
    position,
    run_classic,
    serve_amr,
    set_flags,
    spec_from_dist_token,
)
from listlab.amr import SCAN_MAX
from listlab.workloads import list_elements
from oracles import (
    best_retained,
    flagged_positions,
    matchless,
    positional_matches,
    replay_amr_trace,
    serve_amr_reference,
    static_full_total,
)
from support import workloads

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
    breakdown, trace = serve_amr(illustration)
    assert trace == ILLUSTRATION_TRACE
    assert (breakdown.access, breakdown.matching, breakdown.replacement) == (31, 3, 0)
    assert breakdown.total == 34


def test_demonstration_run(demonstration):
    breakdown, trace = serve_amr(demonstration)
    assert trace == DEMONSTRATION_TRACE
    assert (breakdown.access, breakdown.matching, breakdown.replacement) == (31, 4, 1)
    assert breakdown.total == 36


def test_empty_request_sequence():
    breakdown, trace = serve_amr(make_workload("A B".split(), (), 4))
    assert breakdown.total == 0 and trace == []


def test_invalid_workload_rejected():
    # Building the workload raises, so no engine ever sees it.
    with pytest.raises(InvalidWorkload, match="^duplicate element A"):
        make_workload("A A".split(), ["A"], 1)


def test_stale_flag_falls_back_to_list_access():
    # B gets flagged at positions 3 and 4, then evicted by C at t=2;
    # both flagged B requests must be plain list accesses.
    w = make_workload("A B C".split(), "C C B B C".split(), 1)
    breakdown, trace = serve_amr(w)
    assert trace[0].flags_added == (3, 4)
    assert trace[1].evicted == ((1, "B"),)
    assert trace[2].source == "list" and trace[2].access_cost == 2
    assert trace[3].source == "list" and trace[3].access_cost == 2
    assert trace[4].source == "buffer" and trace[4].access_cost == 1
    assert (breakdown.access, breakdown.matching, breakdown.replacement) == (11, 3, 1)


def test_buffered_but_unflagged_request_served_from_list():
    # the final A sits in the buffer but outside every look-ahead window
    w = make_workload("A B C".split(), "C B A A A".split(), 3)
    _, trace = serve_amr(w)
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


@given(w=workloads())
def test_serve_amr_is_deterministic(w):
    assert serve_amr(w) == serve_amr(w)


@given(w=workloads(), extra=st.integers(1, 10**6))
def test_capacity_beyond_list_size_changes_nothing(w, extra):
    # at most l distinct elements can ever be resident
    elements, requests = w.list.elements, w.requests.requests
    capped = serve_amr(make_workload(elements, requests, w.list.l))
    assert serve_amr(make_workload(elements, requests, w.list.l + extra)) == capped


def test_huge_capacity_allocates_nothing_per_slot():
    elements, requests = "A B C".split(), "C A B C A".split()
    w = make_workload(elements, requests, 10**7)
    tracemalloc.start()
    try:
        breakdown, trace = serve_amr(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (breakdown, trace) == serve_amr(make_workload(elements, requests, 3))


def test_buffer_rejects_negative_capacity():
    with pytest.raises(ValueError):
        Buffer(-1)


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
    # l up to 80 puts windows on both sides of SCAN_MAX
    assert serve_amr(w) == serve_amr_reference(w)


@given(
    l=st.integers(SCAN_MAX + 1, 80),
    idxs=st.lists(st.integers(0, 79), min_size=SCAN_MAX + 1, max_size=160),
)
def test_long_window_matches_agree_with_oracle(l, idxs):
    elements = list_elements(l)
    # the first request is the last element, so its window is longer than SCAN_MAX
    requests = RequestSequence((elements[-1], *(elements[i % l] for i in idxs)))
    lst = ListConfig(elements)
    for t, x in enumerate(requests.requests, start=1):
        assert match_parallel(lst, position(lst, x), requests, t) == positional_matches(
            elements, requests.requests, t
        )


@given(data=st.data())
def test_long_window_flags_agree_with_plain_scan(data):
    l = data.draw(st.integers(1, 80))
    elements = list_elements(l)
    n = data.draw(st.integers(SCAN_MAX + 1, 160))
    requests = RequestSequence(
        tuple(elements[i] for i in data.draw(st.lists(st.integers(0, l - 1), min_size=n, max_size=n)))
    )
    # few residents take the bisection path, many keep the scan
    residents = data.draw(st.lists(st.sampled_from(elements), unique=True, max_size=l))
    buf = Buffer(len(residents))
    for e in residents:
        buf.place(e)
    t = data.draw(st.integers(0, n - SCAN_MAX - 1))
    window = lookahead_window(t, data.draw(st.integers(SCAN_MAX + 1, n)), n)
    before = data.draw(st.sets(st.integers(1, n)))
    flags = set(before)
    touched = set_flags(flags, window, buf, requests)
    assert touched == flagged_positions(requests.requests, window.start, window.end, residents)
    assert flags == before | set(touched)


def test_one_request_sequence_served_against_two_lists():
    # the diagonal table is cached per list object and rebuilt for another one
    elements = list_elements(40)
    requests = generate(spec_from_dist_token("uniform", 40, 400, 3)).requests
    forward, backward = ListConfig(elements), ListConfig(tuple(reversed(elements)))
    runs = {}
    for lst in (forward, backward, forward, ListConfig(elements), backward):
        w = Workload(lst, requests, 4)
        runs.setdefault(lst.elements, []).append(serve_amr(w))
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
    # a long uniform workload also runs the indexed paths under the wrappers
    for w in (illustration, generate(spec_from_dist_token("uniform", 100, 2000, 1), 8)):
        calls.clear()
        breakdown, trace = amr.serve_amr(w)
        assert (breakdown, trace) == serve_amr_reference(w)
        accesses = sum(ev.source == "list" for ev in trace)
        hits = len(trace) - accesses
        assert accesses > 0 and hits > 0
        assert {name: calls[name] for name in TRACED_HELPERS} == dict.fromkeys(TRACED_HELPERS, accesses)
        assert calls["slot_of"] >= hits
