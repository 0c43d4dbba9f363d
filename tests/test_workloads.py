import dataclasses
from collections import Counter

import pytest

from listlab import (
    GeneratorSpec,
    InvalidSpec,
    SplitMix64,
    element_name,
    generate,
    list_elements,
    spec_from_dist_token,
    validate_workload,
)

# Published reference outputs for the splitmix64 stream seeded with 0.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_splitmix64_reference_vectors():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SPLITMIX64_SEED0


def test_splitmix64_below_stays_in_range():
    rng = SplitMix64(99)
    draws = [rng.below(7) for _ in range(500)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7


def test_splitmix64_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(1).below(0)


def test_element_names_follow_positions():
    assert element_name(1) == "A"
    assert element_name(26) == "Z"
    assert element_name(27) == "E27"
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
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("uniform", list_size=0, length=5))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("uniform", list_size=3, length=None))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("uniform", list_size=3, length=-1))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("zipf", list_size=3, length=5, zipf_skew=0.0))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("zipf", list_size=3, length=5, zipf_skew=None))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("zipf", list_size=3, length=5, zipf_skew=float("inf")))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("burst", list_size=3, length=5, run_length=0))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("bogus", list_size=3, length=5))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("uniform", list_size=3, length=5, seed=-1))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("uniform", list_size=3, length=5, seed=2**64))
    with pytest.raises(InvalidSpec):
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
        dataclasses.replace(valid, list_size=0)
    with pytest.raises(InvalidSpec, match="seed"):
        dataclasses.replace(valid, seed=2**64)


def test_buffer_capacity_passthrough():
    w = generate(GeneratorSpec("reverse", list_size=3), buffer_capacity=7)
    assert w.buffer_capacity == 7
    assert generate(GeneratorSpec("reverse", list_size=3)).buffer_capacity == 3
