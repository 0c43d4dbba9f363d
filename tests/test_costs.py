import pytest
from hypothesis import example, given, strategies as st

from listlab.costs import (
    CENTRALIZED,
    FULL,
    PARTIAL,
    CostBreakdown,
    CostModel,
    ExchangeKind,
    InvalidModel,
    OutOfRange,
    access_cost,
    access_total,
    center_position,
    exchange_cost,
    model_token,
    parse_model_token,
    pd,
)

ALL_MODELS = (FULL, PARTIAL, pd(1), pd(2), CENTRALIZED)

positions = st.integers(1, 50).flatmap(
    lambda l: st.tuples(st.integers(1, l), st.just(l))
)


def test_full_ninth_position():
    assert access_cost(FULL, 9, 9) == 9


def test_partial_front_position_is_free():
    assert access_cost(PARTIAL, 1, 5) == 0


def test_centralized_ninth_of_nine():
    # center of nine positions is 5, so distance is 4
    assert center_position(9) == 5
    assert access_cost(CENTRALIZED, 9, 9) == 4


@pytest.mark.parametrize("l,costs", [
    (2, [1, 0]),
    (4, [2, 1, 0, 1]),
    (10, [5, 4, 3, 2, 1, 0, 1, 2, 3, 4]),
])
def test_centralized_costs_on_even_lists(l, costs):
    # worked by hand: ceil((l+1)/2) is the later of the two middle
    # positions, l/2 + 1, so position 1 costs l/2
    assert [access_cost(CENTRALIZED, i, l) for i in range(1, l + 1)] == costs


def test_pd_access_matches_full():
    assert access_cost(pd(3), 4, 8) == 4


@pytest.mark.parametrize("i,l", [(0, 5), (6, 5), (-1, 3)])
def test_access_out_of_range(i, l):
    with pytest.raises(OutOfRange):
        access_cost(FULL, i, l)


@given(positions)
def test_full_minus_partial_is_one(pos_l):
    i, l = pos_l
    assert access_cost(FULL, i, l) - access_cost(PARTIAL, i, l) == 1


@given(st.integers(1, 60))
def test_centralized_zero_at_center(l):
    assert access_cost(CENTRALIZED, center_position(l), l) == 0


@given(st.integers(2, 40))
def test_access_monotone_and_unimodal(l):
    for model in (FULL, PARTIAL, pd(2)):
        costs = [access_cost(model, i, l) for i in range(1, l + 1)]
        assert costs == sorted(costs)
    c = center_position(l)
    central = [access_cost(CENTRALIZED, i, l) for i in range(1, l + 1)]
    assert central[:c] == sorted(central[:c], reverse=True)
    assert central[c - 1 :] == sorted(central[c - 1 :])
    assert min(central) == central[c - 1] == 0


position_lists = st.integers(1, 40).flatmap(
    lambda l: st.tuples(st.lists(st.integers(1, l), max_size=60), st.just(l))
)


@pytest.mark.parametrize("model", ALL_MODELS)
@given(position_lists)
@example(([], 1))
@example(([], 6))
@example(([1, 5, 3, 3, 2], 5))  # odd l
@example(([1, 6, 3, 4, 4], 6))  # even l
def test_access_total_is_the_sum_of_access_costs(model, ps_l):
    ps, l = ps_l
    assert access_total(model, ps, l) == sum(access_cost(model, i, l) for i in ps)


def test_free_exchange_costs_nothing_under_full():
    assert exchange_cost(FULL, ExchangeKind.FREE_ELIGIBLE, 8) == 0


def test_pd_charges_d_per_exchange_and_other_models_none():
    # pd charges d for every exchange, free-eligible ones included; the
    # other models charge none
    free = ExchangeKind.FREE_ELIGIBLE
    assert exchange_cost(pd(2), free, 2) == 4
    assert exchange_cost(pd(3), free, 5) == 15
    assert [exchange_cost(m, free, 4) for m in (FULL, PARTIAL, CENTRALIZED)] == [0, 0, 0]


@pytest.mark.parametrize("model", ALL_MODELS)
@pytest.mark.parametrize("kind", list(ExchangeKind))
def test_zero_transpositions_cost_zero(model, kind):
    assert exchange_cost(model, kind, 0) == 0


@given(st.sampled_from((FULL, PARTIAL, CENTRALIZED) + tuple(map(pd, range(1, 6)))),
       st.integers(0, 10**6), st.integers(0, 10**6))
def test_free_exchange_cost_is_additive(model, a, b):
    # run_classic prices a run's free-eligible exchanges with one call over
    # the summed transpositions, which this identity makes exact
    free = ExchangeKind.FREE_ELIGIBLE
    assert exchange_cost(model, free, a) + exchange_cost(model, free, b) == \
        exchange_cost(model, free, a + b)


def test_negative_transpositions_rejected():
    with pytest.raises(ValueError):
        exchange_cost(pd(2), ExchangeKind.FREE_ELIGIBLE, -1)


def test_pd_requires_positive_charge():
    with pytest.raises(InvalidModel):
        CostModel("pd", 0)
    with pytest.raises(InvalidModel):
        CostModel("bogus")


@pytest.mark.parametrize("token", ["full", "partial", "centralized", "pd:2", "pd:10"])
def test_model_token_round_trip(token):
    assert model_token(parse_model_token(token)) == token


@pytest.mark.parametrize("token", ["pd", "pd:x", "pd:0", "full:1", "bogus", ""])
def test_bad_model_tokens(token):
    with pytest.raises(InvalidModel):
        parse_model_token(token)


def test_breakdown_total_is_component_sum():
    b = CostBreakdown(access=3, matching=2, replacement=1, exchange=4)
    assert b.total == 10
    assert CostBreakdown().total == 0
