import pytest
from hypothesis import given, strategies as st

from listlab import (
    CENTRALIZED,
    FULL,
    PARTIAL,
    InvalidWorkload,
    Unsupported,
    make_workload,
    pd,
    run_classic,
)
from oracles import mtf_full_total, static_full_total
from support import workloads


def _workload(elements, requests):
    return make_workload(elements, requests, 0)


def test_mtf_reverse_order_costs_121(reverse_eleven):
    breakdown, _, _ = run_classic("mtf", FULL, reverse_eleven)
    assert breakdown.access == 121
    assert breakdown.exchange == 0
    assert breakdown.total == 121


def test_mtf_repeated_tail_element():
    breakdown, _, state = run_classic("mtf", FULL, _workload("A B C".split(), "C C".split()))
    assert breakdown.total == 4
    assert state.ordering == ["C", "A", "B"]


def test_transpose_single_access():
    breakdown, _, state = run_classic("transpose", FULL, _workload("A B C".split(), ["C"]))
    assert breakdown.total == 3
    assert state.ordering == ["A", "C", "B"]


def test_transpose_front_access_keeps_order():
    _, trace, state = run_classic("transpose", FULL, _workload("A B".split(), ["A"]))
    assert state.ordering == ["A", "B"]
    assert trace[0].transpositions == 0


def test_fc_overtakes_smaller_counts_only():
    breakdown, _, state = run_classic("fc", FULL, _workload("A B C".split(), "B B".split()))
    assert breakdown.total == 3
    assert state.ordering == ["B", "A", "C"]
    assert state.counts == {"A": 0, "B": 2, "C": 0}


def test_static_partial_two_accesses():
    breakdown, _, _ = run_classic("static", PARTIAL, _workload("A B".split(), "B B".split()))
    assert breakdown.total == 2


def test_static_centralized_small_case():
    # center of three positions is 2; costs |1-2| + |3-2|
    breakdown, _, _ = run_classic("static", CENTRALIZED, _workload("A B C".split(), "A C".split()))
    assert breakdown.total == 2


def test_mtf_under_pd_charges_rearrangement():
    # access 3, then 2 transpositions at d=2
    breakdown, _, _ = run_classic("mtf", pd(2), _workload("A B C".split(), ["C"]))
    assert breakdown.access == 3
    assert breakdown.exchange == 4
    assert breakdown.total == 7


@pytest.mark.parametrize("algorithm", ["mtf", "transpose", "fc"])
def test_centralized_supports_static_only(algorithm):
    with pytest.raises(Unsupported):
        run_classic(algorithm, CENTRALIZED, _workload("A B".split(), ["A"]))


def test_unknown_algorithm_rejected():
    with pytest.raises(Unsupported):
        run_classic("opt", FULL, _workload("A B".split(), ["A"]))


def test_invalid_workload_rejected():
    with pytest.raises(InvalidWorkload):
        run_classic("mtf", FULL, _workload("A B".split(), ["Z"]))


def test_mtf_agrees_with_reference_replay(demonstration):
    breakdown, _, _ = run_classic("mtf", FULL, demonstration)
    expected = mtf_full_total(demonstration.list.elements, demonstration.requests.requests)
    assert breakdown.total == expected == 58


def test_static_trace_positions_are_fixed(demonstration):
    breakdown, trace, state = run_classic("static", FULL, demonstration)
    elements = demonstration.list.elements
    assert [ev.position for ev in trace] == [
        elements.index(x) + 1 for x in demonstration.requests.requests
    ]
    assert state.ordering == list(elements)
    assert breakdown.total == static_full_total(elements, demonstration.requests.requests) == 55


@pytest.mark.parametrize("algorithm", ["static", "mtf", "transpose", "fc"])
@given(w=workloads())
def test_final_ordering_is_a_permutation(algorithm, w):
    _, _, state = run_classic(algorithm, FULL, w)
    assert sorted(state.ordering) == sorted(w.list.elements)


@pytest.mark.parametrize("algorithm", ["static", "mtf", "transpose", "fc"])
@given(w=workloads())
def test_partial_total_is_full_total_minus_n(algorithm, w):
    full, _, _ = run_classic(algorithm, FULL, w)
    partial, _, _ = run_classic(algorithm, PARTIAL, w)
    assert partial.total == full.total - w.requests.n


@given(w=workloads(max_l=6, max_n=12))
def test_positional_laws_hold_after_every_prefix(w):
    elements = w.list.elements
    requests = w.requests.requests
    for t in range(1, len(requests) + 1):
        prefix = make_workload(elements, requests[:t], 0)
        x = requests[t - 1]

        _, mtf_trace, mtf_state = run_classic("mtf", FULL, prefix)
        assert mtf_state.ordering[0] == x

        _, tr_trace, tr_state = run_classic("transpose", FULL, prefix)
        i = tr_trace[-1].position
        assert tr_state.ordering.index(x) + 1 == max(1, i - 1)

        _, _, fc_state = run_classic("fc", FULL, prefix)
        along = [fc_state.counts[e] for e in fc_state.ordering]
        assert along == sorted(along, reverse=True)


@given(w=workloads(max_l=6, max_n=12))
def test_fc_counts_match_access_tallies(w):
    _, _, state = run_classic("fc", FULL, w)
    for e in w.list.elements:
        assert state.counts[e] == list(w.requests.requests).count(e)


@given(w=workloads(), d=st.integers(1, 4))
def test_pd_exchange_equals_d_times_transpositions(w, d):
    base, base_trace, _ = run_classic("mtf", FULL, w)
    charged, trace, _ = run_classic("mtf", pd(d), w)
    moves = sum(ev.transpositions for ev in trace)
    assert charged.exchange == d * moves
    assert charged.access == base.access
    assert [ev.transpositions for ev in trace] == [ev.transpositions for ev in base_trace]


@pytest.mark.parametrize("algorithm", ["static", "transpose", "fc"])
@given(w=workloads())
def test_mtf_within_sleator_tarjan_bound(algorithm, w):
    # C_MTF <= 2*C_A - F_A - n under full, F_A = A's free transpositions
    # (Sleator & Tarjan, CACM 1985); these algorithms make no paid ones.
    mtf, _, _ = run_classic("mtf", FULL, w)
    breakdown, events, _ = run_classic(algorithm, FULL, w)
    free = sum(ev.transpositions for ev in events)
    assert mtf.total <= 2 * breakdown.total - free - w.requests.n
