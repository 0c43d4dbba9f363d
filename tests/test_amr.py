import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from listlab import (
    FULL,
    AmrStepEvent,
    Buffer,
    InvalidWorkload,
    ListConfig,
    RequestSequence,
    buffer_insert,
    lookahead_window,
    make_workload,
    match_parallel,
    run_classic,
    serve_amr,
    set_flags,
)
from oracles import best_retained, matchless, replay_amr_trace, static_full_total
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
    AmrStepEvent(1, "I", "list", 9, 9, ((5, "E"), (9, "I")), ((1, "E"), (2, "I")), (), (2, 5, 6, 10)),
    AmrStepEvent(2, "E", "buffer", 1, 1),
    AmrStepEvent(3, "G", "list", 7, 7, ((4, "D"),), ((3, "D"),), (), (4, 5, 6, 7, 10)),
    AmrStepEvent(4, "D", "buffer", 3, 3),
    AmrStepEvent(5, "I", "buffer", 2, 2),
    AmrStepEvent(6, "E", "buffer", 1, 1),
    AmrStepEvent(7, "D", "buffer", 3, 3),
    AmrStepEvent(8, "A", "list", 1, 1),
    AmrStepEvent(9, "B", "list", 2, 2, (), (), (), (10,)),
    AmrStepEvent(10, "I", "buffer", 2, 2),
]

DEMONSTRATION_TRACE = [
    AmrStepEvent(1, "I", "list", 9, 9, ((5, "E"), (9, "I")), ((1, "E"), (2, "I")), (), (2, 5, 6, 10)),
    AmrStepEvent(2, "E", "buffer", 1, 1),
    AmrStepEvent(3, "G", "list", 7, 7, ((4, "D"),), ((3, "D"),), (), (4, 5, 6, 7, 10)),
    AmrStepEvent(4, "D", "buffer", 3, 3),
    AmrStepEvent(5, "I", "buffer", 2, 2),
    AmrStepEvent(6, "E", "buffer", 1, 1),
    AmrStepEvent(7, "D", "buffer", 3, 3),
    AmrStepEvent(8, "B", "list", 2, 2, ((1, "A"),), ((1, "A"),), ((1, "E"),), (9, 10)),
    AmrStepEvent(9, "A", "buffer", 1, 1),
    AmrStepEvent(10, "I", "buffer", 2, 2),
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
    with pytest.raises(InvalidWorkload):
        serve_amr(make_workload("A A".split(), ["A"], 1))


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
