import sys
import tracemalloc
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from listlab.core import InvalidWorkload, validate_workload
from listlab.workloads import (
    BLOCK,
    GeneratorSpec,
    InvalidSpec,
    below,
    generate,
    list_elements,
    spec_from_dist_token,
    splitmix64,
)
from oracles import SplitMix64, generate_reference

# Published reference outputs for the splitmix64 stream seeded with 0.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_splitmix64_reference_vectors():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SPLITMIX64_SEED0


def test_kernel_reference_vectors():
    assert tuple(islice(splitmix64(0, 3), 3)) == SPLITMIX64_SEED0


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
@pytest.mark.parametrize("first,count", [
    (BLOCK - 1, BLOCK), (BLOCK, BLOCK + 1), (BLOCK + 1, 2 * BLOCK + 1),
    (2 * BLOCK + 1, 2 * BLOCK + 1), (1, BLOCK + 1), (200, 2 * BLOCK + 1),
])
def test_kernel_matches_next_u64(seed, first, count):
    # first sizes the first block; count reads across the block edges.
    rng = SplitMix64(seed)
    assert list(islice(splitmix64(seed, first), count)) == [rng.next_u64() for _ in range(count)]


def test_kernel_rejection_matches_below():
    # Every draw at or above 2**64 - 2**64 % m, about half of them, is rejected.
    m = 2**63 + 12345
    limit = 2**64 - 2**64 % m
    rejected = sum(v >= limit for v in islice(splitmix64(5, 2000), 2000))
    assert 800 < rejected < 1200
    rng = SplitMix64(5)
    assert list(islice(below(splitmix64(5, 1000), m), 1000)) == [rng.below(m) for _ in range(1000)]


@settings(max_examples=80)
@given(
    dist=st.sampled_from(["uniform", "zipf", "burst", "reverse"]),
    l=st.integers(1, 300),
    n=st.one_of(st.integers(0, 300), st.integers(BLOCK - 2, BLOCK + 2), st.integers(0, 9000)),
    seed=st.one_of(st.sampled_from([0, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    skew=st.floats(0.01, 50),
    run=st.integers(1, 12),
    buffer=st.integers(0, 9),
)
def test_generate_matches_reference(dist, l, n, seed, skew, run, buffer):
    spec = GeneratorSpec(dist, l, None if dist == "reverse" else n, seed,
                         zipf_skew=skew if dist == "zipf" else None,
                         run_length=run if dist == "burst" else None)
    assert generate(spec, buffer) == generate_reference(spec, buffer)


@pytest.mark.parametrize("token,l", [("uniform", 1000), ("zipf:1.2", 10), ("burst:4", 10)])
def test_generate_memory_stays_near_the_result(token, l):
    # Draws stream through blocks, so the peak is the request tuple
    # (grown in place) plus O(BLOCK) temporaries.
    spec = spec_from_dist_token(token, l, 200_000, 7)
    tracemalloc.start()
    try:
        w = generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sys.getsizeof(w.requests.requests) + 2**20


def test_splitmix64_below_stays_in_range():
    rng = SplitMix64(99)
    draws = [rng.below(7) for _ in range(500)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7


def test_splitmix64_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(1).below(0)


def test_element_names_follow_positions():
    names = list_elements(28)
    assert (names[0], names[25], names[26], names[27]) == ("A", "Z", "E27", "E28")
    assert list_elements(3) == ("A", "B", "C")


def test_reverse_eleven_elements():
    w = generate(GeneratorSpec("reverse", list_size=11))
    assert " ".join(w.requests.requests) == "K J I H G F E D C B A"
    assert w.list.elements == tuple("ABCDEFGHIJK")


def test_reverse_three_elements():
    w = generate(GeneratorSpec("reverse", list_size=3))
    assert w.requests.requests == ("C", "B", "A")


def test_reverse_forces_length():
    generate(GeneratorSpec("reverse", list_size=4, length=4))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("reverse", list_size=4, length=5))


def test_uniform_is_seed_deterministic():
    spec = GeneratorSpec("uniform", list_size=5, length=100, seed=7)
    assert generate(spec) == generate(spec)
    other = GeneratorSpec("uniform", list_size=5, length=100, seed=8)
    assert generate(other) != generate(spec)


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec("uniform", list_size=6, length=80, seed=1),
        GeneratorSpec("zipf", list_size=6, length=80, seed=2, zipf_skew=1.1),
        GeneratorSpec("burst", list_size=6, length=80, seed=3, run_length=5),
        GeneratorSpec("reverse", list_size=6),
    ],
)
def test_generated_workloads_are_valid(spec):
    w = generate(spec)
    validate_workload(w)  # raises InvalidWorkload on any violation
    assert set(w.requests.requests) <= set(w.list.elements)


def test_burst_blocks_are_constant():
    run_length = 4
    spec = GeneratorSpec("burst", list_size=5, length=18, seed=11, run_length=run_length)
    requests = generate(spec).requests.requests
    for start in range(0, len(requests), run_length):
        block = requests[start : start + run_length]
        assert len(set(block)) == 1
    assert len(requests) == 18  # final block truncated


def test_burst_run_longer_than_the_sequence_is_capped():
    # 10**20 does not fit a list repeat count; the run is cut at n instead.
    spec = spec_from_dist_token("burst:99999999999999999999", list_size=3, length=2, seed=0)
    assert generate(spec).requests.requests == ("B", "B")


def test_zipf_front_rank_dominates_back_rank():
    spec = GeneratorSpec("zipf", list_size=10, length=10000, seed=42, zipf_skew=1.2)
    w = generate(spec)
    counts = Counter(w.requests.requests)
    assert counts[w.list.elements[0]] > counts[w.list.elements[9]]


def test_generate_rejects_bad_specs():
    for dist, l, n, extra in [
        ("uniform", 0, 5, {}), ("uniform", 3, None, {}), ("uniform", 3, -1, {}),
        ("zipf", 3, 5, {"zipf_skew": 0.0}), ("zipf", 3, 5, {"zipf_skew": None}),
        ("zipf", 3, 5, {"zipf_skew": float("inf")}), ("burst", 3, 5, {"run_length": 0}),
        ("bogus", 3, 5, {}), ("uniform", 3, 5, {"seed": -1}), ("uniform", 3, 5, {"seed": 2**64}),
    ]:
        with pytest.raises(InvalidSpec):
            generate(GeneratorSpec(dist, list_size=l, length=n, **extra))
    # the buffer capacity is a workload rule, which Workload checks
    with pytest.raises(InvalidWorkload, match="^negative buffer capacity -1$"):
        generate(GeneratorSpec("uniform", list_size=3, length=5), buffer_capacity=-1)


def test_dist_token_parsing():
    spec = spec_from_dist_token("zipf:1.5", list_size=4, length=10, seed=3)
    assert spec.zipf_skew == 1.5
    spec = spec_from_dist_token("burst:4", list_size=4, length=10, seed=3)
    assert spec.run_length == 4
    assert spec_from_dist_token("uniform", 4, 10, 0).dist == "uniform"
    assert spec_from_dist_token("reverse", 4, None, 0).length is None
    assert spec_from_dist_token("uniform", 4, 10, 2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize(
    "token",
    ["zipf", "zipf:x", "zipf:0", "zipf:-1", "zipf:inf", "zipf:1e400", "zipf:nan",
     "burst", "burst:0", "burst:x", "uniform:3", "reverse:1", "bogus"],
)
def test_dist_token_errors(token):
    with pytest.raises(InvalidSpec):
        spec_from_dist_token(token, list_size=4, length=10, seed=0)


def test_replace_copies_are_checked():
    valid = GeneratorSpec("uniform", list_size=3, length=5)
    with pytest.raises(InvalidSpec, match="list size"):
        valid.replace(list_size=0)
    with pytest.raises(InvalidSpec, match="seed"):
        valid.replace(seed=2**64)


def test_buffer_capacity_passthrough():
    w = generate(GeneratorSpec("reverse", list_size=3), buffer_capacity=7)
    assert w.buffer_capacity == 7
    assert generate(GeneratorSpec("reverse", list_size=3)).buffer_capacity == 3
