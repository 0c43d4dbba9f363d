from bisect import bisect_left
from collections import Counter
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from listlab import classic
from listlab.classic import CLASSIC_ALGORITHMS, reprice, run_classic
from listlab.core import InvalidWorkload, make_workload
from listlab.costs import (
    CENTRALIZED,
    FULL,
    PARTIAL,
    ExchangeKind,
    StepEvent,
    Unsupported,
    access_cost,
    exchange_cost,
    model_token,
    pd,
)
from listlab.workloads import generate, spec_from_dist_token
from oracles import (
    mtf_full_total,
    opt_full_total,
    pair_opt_bound,
    pair_total,
    run_classic_reference,
    static_full_total,
)
from support import listed, skewed_workloads, tokens, workloads


def _workload(elements, requests):
    return make_workload(elements, requests, 0)


def test_mtf_reverse_order_costs_121(reverse_eleven):
    breakdown, _, _ = run_classic("mtf", FULL, reverse_eleven)
    assert breakdown.access == 121
    assert breakdown.exchange == 0
    assert breakdown.total == 121


def test_mtf_reverse_order_costs_l_squared():
    # Each request asks for the element at the back, so every access costs
    # l and the list ends as it began; at l = 200 mtf bisects stamps.
    w = generate(spec_from_dist_token("reverse", 200, 200, 0), 0)
    assert w.list.l > classic.SCAN_MAX
    breakdown, _, ordering = run_classic("mtf", FULL, w)
    assert breakdown.access == breakdown.total == 200**2
    assert ordering == list(w.list.elements)


def test_mtf_repeated_tail_element():
    breakdown, _, ordering = run_classic("mtf", FULL, _workload("A B C".split(), "C C".split()))
    assert breakdown.total == 4
    assert ordering == ["C", "A", "B"]


def test_transpose_single_access():
    breakdown, _, ordering = run_classic("transpose", FULL, _workload("A B C".split(), ["C"]))
    assert breakdown.total == 3
    assert ordering == ["A", "C", "B"]


def test_transpose_front_access_keeps_order():
    _, trace, ordering = listed(run_classic("transpose", FULL, _workload("A B".split(), ["A"])))
    assert ordering == ["A", "B"]
    assert trace[0].transpositions == 0


def test_fc_overtakes_smaller_counts_only():
    breakdown, trace, ordering = run_classic("fc", FULL, _workload("A B C".split(), "B B".split()))
    assert breakdown.total == 3
    assert ordering == ["B", "A", "C"]
    assert [ev.transpositions for ev in trace] == [1, 0]


def test_fc_ties_keep_arrival_order():
    # C overtakes A and B; A then ties with C and stays behind it; D
    # overtakes B only; A's second access puts it ahead of C and D.
    breakdown, trace, ordering = run_classic(
        "fc", FULL, _workload("A B C D".split(), "C A D A".split())
    )
    assert [ev.position for ev in trace] == [3, 2, 4, 2]
    assert [ev.transpositions for ev in trace] == [2, 0, 1, 1]
    assert breakdown.total == 11
    assert ordering == ["A", "C", "D", "B"]


def test_static_partial_two_accesses():
    breakdown, _, _ = run_classic("static", PARTIAL, _workload("A B".split(), "B B".split()))
    assert breakdown.total == 2


def test_static_centralized_small_case():
    # center of three positions is 2; costs |1-2| + |3-2|
    breakdown, _, _ = run_classic("static", CENTRALIZED, _workload("A B C".split(), "A C".split()))
    assert breakdown.total == 2


def test_static_centralized_even_list():
    # center of four positions is 3; costs |1-3| + |1-3| + |2-3|
    workload = _workload("A B C D".split(), "A A B".split())
    assert run_classic("static", CENTRALIZED, workload)[0].total == 5


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
    # Building the workload raises, so no engine ever sees it.
    with pytest.raises(InvalidWorkload, match="^request 1: Z not in list$"):
        _workload("A B".split(), ["Z"])


def test_mtf_agrees_with_reference_replay(demonstration):
    breakdown, _, _ = run_classic("mtf", FULL, demonstration)
    expected = mtf_full_total(demonstration.list.elements, demonstration.requests.requests)
    assert breakdown.total == expected == 58


def test_static_trace_positions_are_fixed(demonstration):
    breakdown, trace, ordering = run_classic("static", FULL, demonstration)
    elements = demonstration.list.elements
    assert [ev.position for ev in trace] == [
        elements.index(x) + 1 for x in demonstration.requests.requests
    ]
    assert ordering == list(elements)
    assert breakdown.total == static_full_total(elements, demonstration.requests.requests) == 55


@pytest.mark.parametrize("algorithm", ["static", "mtf", "transpose", "fc"])
@given(w=workloads())
def test_final_ordering_is_a_permutation(algorithm, w):
    _, _, ordering = run_classic(algorithm, FULL, w)
    assert sorted(ordering) == sorted(w.list.elements)


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

        _, _, mtf_ordering = run_classic("mtf", FULL, prefix)
        assert mtf_ordering[0] == x

        _, tr_trace, tr_ordering = listed(run_classic("transpose", FULL, prefix))
        i = tr_trace[-1].position
        assert tr_ordering.index(x) + 1 == max(1, i - 1)

        # fc keeps the list in non-increasing order of request tallies and
        # puts x right behind every other element requested at least as often.
        _, fc_trace, fc_ordering = listed(run_classic("fc", FULL, prefix))
        tallies = Counter(requests[:t])
        along = [tallies[e] for e in fc_ordering]
        assert along == sorted(along, reverse=True)
        at_least = sum(tallies[e] >= tallies[x] for e in elements if e != x)
        assert fc_ordering.index(x) == at_least
        assert fc_trace[-1].transpositions == fc_trace[-1].position - 1 - at_least


@given(w=workloads(max_l=6, max_n=12))
def test_fc_counts_match_access_tallies(w):
    # fc's counts are its request tallies: the final ordering is
    # non-increasing in the tallies over the whole sequence, and elements
    # never requested are never moved past one another.
    _, _, ordering = run_classic("fc", FULL, w)
    tallies = Counter(w.requests.requests)
    along = [tallies[e] for e in ordering]
    assert along == sorted(along, reverse=True)
    unrequested = [e for e in ordering if tallies[e] == 0]
    assert unrequested == [e for e in w.list.elements if tallies[e] == 0]


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


def test_offline_optimum_pays_for_exchanges_up_front():
    # A B C, requests C B B C. One paid exchange makes B A C (1); C costs
    # 3 and moves in behind B for free; then B, B and C cost 1, 1 and 2:
    # 8 in all. With free moves alone the best is 9, which mtf reaches.
    w = _workload("A B C".split(), "C B B C".split())
    assert opt_full_total(w.list.elements, w.requests.requests) == 8
    totals = [run_classic(a, FULL, w)[0].total for a in CLASSIC_ALGORITHMS]
    assert totals == [10, 9, 11, 10]


@given(w=workloads(max_l=5, max_n=12))
def test_offline_optimum_bounds_every_classical_total(w):
    opt = opt_full_total(w.list.elements, w.requests.requests)
    n = w.requests.n
    totals = {a: run_classic(a, FULL, w)[0].total for a in CLASSIC_ALGORITHMS}
    assert n <= opt <= min(totals.values())
    # Sleator & Tarjan, CACM 1985: move-to-front is 2-competitive.
    assert totals["mtf"] <= 2 * opt - n


@given(w=workloads(max_l=5, max_n=12), data=st.data())
def test_offline_optimum_ignores_element_names(w, data):
    elements = w.list.elements
    names = data.draw(st.lists(tokens, min_size=len(elements), max_size=len(elements), unique=True))
    rename = dict(zip(elements, names))
    renamed = [rename[x] for x in w.requests.requests]
    assert opt_full_total(names, renamed) == opt_full_total(elements, w.requests.requests)


@settings(max_examples=100)
@given(w=skewed_workloads(max_l=40, max_n=80))
def test_partial_totals_are_pair_sums(w):
    # l up to 40 crosses mtf's scan cutoff; past fc's, the wide-list test
    # below checks every position, and partial prices a position alike at any l
    for algorithm in ("static", "mtf", "fc"):
        total = run_classic(algorithm, PARTIAL, w)[0].total
        assert total == pair_total(algorithm, w.list.elements, w.requests.requests), algorithm


@settings(max_examples=100)
@given(w=skewed_workloads(max_l=40, max_n=80))
def test_pair_opt_bound_is_below_every_partial_total(w):
    bound = pair_opt_bound(w.list.elements, w.requests.requests)
    totals = {a: run_classic(a, PARTIAL, w)[0].total for a in CLASSIC_ALGORITHMS}
    # transpose lacks the pairwise property, so only the bound checks it
    assert bound <= min(totals.values()), totals
    # Sleator & Tarjan's bound for move-to-front, against a lower bound on OPT
    assert totals["mtf"] <= 2 * bound


@given(w=workloads(max_l=5, max_n=12))
def test_pair_opt_bound_is_below_the_offline_optimum(w):
    # full = partial + n, and the pair optima sum to at most OPT's partial total
    bound = pair_opt_bound(w.list.elements, w.requests.requests)
    opt = opt_full_total(w.list.elements, w.requests.requests)
    assert bound + w.requests.n <= opt
    if w.list.l <= 2:  # at most one pair, which is the whole list
        assert bound + w.requests.n == opt


def test_pair_opt_bound_on_short_sequences():
    # A B, requests B B: one paid exchange puts B in front, then both
    # accesses are free
    assert pair_opt_bound(("A", "B"), ("B", "B")) == 1
    # A B, requests B A B A: keeping A in front costs 1 per B, so the
    # optimum is 2; mtf moves each request to the front and pays 1 for
    # every access, 4, which meets its bound of twice the optimum
    w = _workload(("A", "B"), ("B", "A", "B", "A"))
    assert pair_opt_bound(w.list.elements, w.requests.requests) == 2
    assert run_classic("mtf", PARTIAL, w)[0].total == 4


@pytest.mark.parametrize("algorithm", CLASSIC_ALGORITHMS)
@given(w=skewed_workloads())
def test_engine_matches_plain_scan_reference(algorithm, w):
    models = [FULL, PARTIAL, pd(2)] + ([CENTRALIZED] if algorithm == "static" else [])
    for model in models:
        expected = run_classic_reference(algorithm, model, w)
        assert listed(run_classic(algorithm, model, w)) == expected, model_token(model)


@pytest.mark.parametrize("algorithm", CLASSIC_ALGORITHMS)
@given(w=workloads())
def test_steps_reiterate_and_reprice_like_a_fresh_run(algorithm, w):
    _, steps, _ = run_classic(algorithm, FULL, w)
    assert len(steps) == w.requests.n
    assert list(steps) == list(steps)
    models = [PARTIAL, pd(2), FULL] + ([CENTRALIZED] if algorithm == "static" else [])
    for model in models:
        fresh = listed(run_classic(algorithm, model, w))[:2]
        assert listed(reprice(model, steps)) == fresh, model_token(model)
    if algorithm != "static":
        with pytest.raises(Unsupported):
            reprice(CENTRALIZED, steps)


@pytest.mark.parametrize("algorithm", CLASSIC_ALGORITHMS)
def test_wide_list_matches_plain_scan_reference(algorithm):
    # l = 5000, above both scan cutoffs: fc's group of unrequested
    # elements stays large for the whole run, and its tie groups grow long.
    w = generate(spec_from_dist_token("uniform", 5000, 5000, 11), 0)
    assert listed(run_classic(algorithm, FULL, w)) == run_classic_reference(algorithm, FULL, w)


_CUTOFFS = {"mtf": classic.SCAN_MAX, "fc": classic.FC_SCAN_MAX}
# At and just above both scan cutoffs.
_WIDTHS = (classic.SCAN_MAX, classic.SCAN_MAX + 1, classic.FC_SCAN_MAX, classic.FC_SCAN_MAX + 1)


@pytest.mark.parametrize("algorithm", sorted(_CUTOFFS))
@settings(max_examples=25)
@given(data=st.data())
def test_scan_cutoff_both_sides_match_reference(algorithm, data):
    # Lists of exactly the cutoff are scanned; one element more and every
    # access bisects the stamps once.
    cutoff = _CUTOFFS[algorithm]
    for l, bisections in ((cutoff, 0), (cutoff + 1, 1)):
        w = data.draw(skewed_workloads(min_l=l, max_l=l, max_n=150))
        with mock.patch.object(classic, "bisect_left", wraps=bisect_left) as bisect:
            for model in (FULL, PARTIAL, pd(2)):
                expected = run_classic_reference(algorithm, model, w)
                assert listed(run_classic(algorithm, model, w)) == expected, (l, model_token(model))
        assert bisect.call_count == 3 * bisections * w.requests.n


@pytest.mark.parametrize("algorithm", CLASSIC_ALGORITHMS)
def test_steps_yield_one_move_per_request(algorithm):
    # islice bounds the count, so an endless move stream fails here
    # instead of hanging a sum over it.
    for l in _WIDTHS:
        w = generate(spec_from_dist_token("uniform", l, 300, l), 0)
        positions, moves, ordering = classic._STEPS[algorithm](w)
        assert len(positions) == 300, l
        assert sum(1 for _ in islice(moves, 301)) == 300, l
        assert sorted(ordering) == sorted(w.list.elements), l


@pytest.mark.parametrize("algorithm", CLASSIC_ALGORITHMS)
def test_events_are_step_events(algorithm):
    # run_classic builds its events with tuple.__new__, which checks
    # neither the type nor the arity; comparing against the reference
    # cannot tell a plain tuple from a StepEvent, but trace lines and the
    # benchmark's checks read events by field.
    for l in _WIDTHS:
        w = generate(spec_from_dist_token("zipf:1.2", l, 300, l), 0)
        for model in (FULL, PARTIAL, pd(2)):
            _, events, _ = run_classic(algorithm, model, w)
            assert len(events) == 300, (l, model_token(model))
            for ev in events:
                assert type(ev) is StepEvent, (l, model_token(model))
                assert len(ev) == len(StepEvent._fields), (l, model_token(model))
            assert [ev.t for ev in events] == list(range(1, 301))
            assert [ev.element for ev in events] == list(w.requests.requests)


@pytest.mark.parametrize("algorithm", CLASSIC_ALGORITHMS)
def test_access_cost_per_distinct_position_exchange_cost_once_per_run(algorithm):
    for l in _WIDTHS:
        w = generate(spec_from_dist_token("uniform", l, 300, l), 0)
        positions, moves, _ = classic._STEPS[algorithm](w)
        with mock.patch.object(classic, "access_cost", wraps=access_cost) as access, \
                mock.patch.object(classic, "exchange_cost", wraps=exchange_cost) as exchange:
            _, steps, _ = run_classic(algorithm, pd(2), w)
            # the breakdown sums the access costs without calling access_cost
            assert access.call_count == 0, l
            # one call prices the whole run from its summed transpositions
            assert exchange.call_count == 1, l
            assert exchange.call_args.args == (pd(2), ExchangeKind.FREE_ELIGIBLE, sum(moves)), l
            # iterating the steps evaluates each distinct position once
            for _ in steps:
                pass
        assert access.call_count == len(set(positions)) <= min(w.requests.n, l), l
        assert exchange.call_count == 1, l
