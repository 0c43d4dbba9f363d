import pytest
from hypothesis import given
from hypothesis import strategies as st

from listlab import core
from listlab.amr import serve_amr
from listlab.classic import CLASSIC_ALGORITHMS, run_classic
from listlab.cli import main
from listlab.core import (
    InvalidWorkload,
    ListConfig,
    ParseError,
    RequestSequence,
    Workload,
    make_workload,
    parse_workload,
    position,
    serialize_workload,
    validate_workload,
)
from listlab.costs import CENTRALIZED, FULL, PARTIAL, CostBreakdown, CostModel, InvalidModel, pd
from listlab.workloads import GeneratorSpec, InvalidSpec, generate, spec_from_dist_token
from support import text_workloads, tokens, unique_token_lists, workloads

NINE = tuple("A B C D E F G H I".split())


def test_position_ninth_element():
    lst = make_workload(NINE, (), 0).list
    assert position(lst, "I") == 9


def test_position_front_element():
    lst = make_workload(NINE, (), 0).list
    assert position(lst, "A") == 1


def test_position_keeps_first_occurrence():
    lst = ListConfig(("A", "B", "A"))
    for _ in range(2):  # the second round reads the cached index
        assert [position(lst, e) for e in "ABA"] == [1, 2, 1]


def test_cached_indices_leave_equality_and_hash_unchanged():
    w = generate(spec_from_dist_token("uniform", 40, 300, 5), buffer_capacity=3)
    twin = make_workload(w.list.elements, w.requests.requests, w.buffer_capacity)
    before = (hash(w), hash(w.list), hash(w.requests), repr(w), serialize_workload(w))
    list(serve_amr(w)[1])  # the steps' flag rule reads the occurrence lists
    assert "positions" in vars(w.list)
    assert vars(w.requests).keys() >= {"_step_matches", "occurrences"}
    assert (hash(w), hash(w.list), hash(w.requests), repr(w), serialize_workload(w)) == before
    assert (w, w.list, w.requests) == (twin, twin.list, twin.requests)
    assert hash(w) == hash(twin)


def _served(w):
    list(serve_amr(w)[1])  # the steps build every index the engine caches
    return w


# Each value type: a builder, a field change for replace(), and a call
# that builds the indices cached on the value, if it has any.
VALUE_TYPES = {
    "ListConfig": (lambda: ListConfig(tuple("ABC")), {"elements": ("A", "C")},
                   lambda v: _served(Workload(v, RequestSequence(tuple("CBACB")), 1))),
    "RequestSequence": (lambda: RequestSequence(tuple("CBACB")), {"requests": ("A",)},
                        lambda v: _served(Workload(ListConfig(tuple("ABC")), v, 1))),
    "Workload": (lambda: make_workload("ABC", "CBACB", 1), {"buffer_capacity": 2}, _served),
    "CostModel": (lambda: CostModel("pd", 2), {"d": 3}, None),
    "CostBreakdown": (lambda: CostBreakdown(access=3, matching=1), {"exchange": 1}, None),
    "GeneratorSpec": (lambda: GeneratorSpec("zipf", 4, 10, zipf_skew=1.2), {"seed": 1}, None),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_type_contract(name):
    build, change, build_indices = VALUE_TYPES[name]
    value, twin = build(), build()
    assert type(value).__name__ == name and value is not twin
    assert value == twin and hash(value) == hash(twin)
    fields = {field: getattr(value, field) for field in type(value)._fields}
    assert repr(value) == f"{name}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    # equal to nothing but its own type: not a tuple, not a subclass
    same_fields = type("Other", (type(value),), {})(**fields)
    assert value != tuple(fields.values()) and value != same_fields and same_fields != value
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value.replace() == value
    changed = value.replace(**change)
    assert changed != value and {**fields, **change} == {f: getattr(changed, f) for f in fields}
    with pytest.raises(TypeError):
        value.replace(no_such_field=1)
    before = (hash(value), repr(value))
    if build_indices:
        build_indices(value)
    assert (hash(value), repr(value)) == before and value == twin


@pytest.mark.parametrize("value, change, error", [
    (make_workload("AB", "BA", 1), {"buffer_capacity": -1}, InvalidWorkload),
    (CostModel("pd", 2), {"kind": "paid"}, InvalidModel),
    (GeneratorSpec("uniform", 3, 5), {"seed": 2**64}, InvalidSpec),
], ids=["Workload", "CostModel", "GeneratorSpec"])
def test_replace_runs_the_checks_again(value, change, error):
    with pytest.raises(error):
        value.replace(**change)


@given(workloads(max_l=4, max_n=40))
def test_occurrences_list_each_elements_positions(w):
    requests = w.requests.requests
    occurrences = w.requests.occurrences
    assert occurrences.keys() == set(requests)
    for e, at in occurrences.items():
        assert at == [j for j, r in enumerate(requests, start=1) if r == e]


@given(unique_token_lists)
def test_position_is_a_bijection(elements):
    lst = make_workload(elements, (), 0).list
    assert [position(lst, e) for e in elements] == list(range(1, len(elements) + 1))


def _violations(elements, requests, capacity):
    with pytest.raises(InvalidWorkload) as exc:
        make_workload(elements, requests, capacity)
    return str(exc.value).split("; ")


def test_validate_short_sequence_warns_but_passes(tmp_path, capsys):
    # Legal for every engine, so building it raises nothing; only the
    # CLI warns.
    w = make_workload("A B C".split(), "B A".split(), 1)
    validate_workload(w)
    path = tmp_path / "short.workload"
    path.write_text(serialize_workload(w), encoding="utf-8")
    assert main(["run", "--workload", str(path), "--algorithm", "static"]) == 0
    assert capsys.readouterr().err == "warning: request sequence shorter than list (n=2 < l=3)\n"


def test_validate_duplicate_element():
    # Each duplicate names the element's first position.
    assert _violations("A B A A".split(), "A Z".split(), 1) == [
        "duplicate element A (list positions 1 and 3)",
        "duplicate element A (list positions 1 and 4)",
        "request 2: Z not in list",
    ]


def test_validate_request_not_in_list():
    assert _violations("A B".split(), ["C"], 2) == ["request 1: C not in list"]


def test_validate_empty_list():
    assert _violations((), (), 0) == ["empty list"]


def test_validate_negative_buffer():
    assert _violations(("A",), ("A",), -1) == ["negative buffer capacity -1"]


def test_validate_bad_token():
    assert _violations(("A", "B C"), (), 0) == ["bad element token at list position 2: 'B C'"]


def test_invalid_workload_lists_all_violations():
    assert _violations("A A".split(), ["Z"], -2) == [
        "duplicate element A (list positions 1 and 2)",
        "request 1: Z not in list",
        "negative buffer capacity -2",
    ]


def test_invalid_workload_is_rejected_on_every_call():
    # Every way of building a Workload checks it, every time.
    for _ in range(2):
        with pytest.raises(InvalidWorkload):
            make_workload("A B".split(), ["Z"], 0)
        with pytest.raises(InvalidWorkload, match="^duplicate element A"):
            parse_workload("list: A A\nbuffer: 1\nrequests: A\n")
    valid = make_workload("A B".split(), ["A"], 0)
    with pytest.raises(InvalidWorkload, match="^negative buffer capacity -1$"):
        valid.replace(buffer_capacity=-1)
    with pytest.raises(InvalidWorkload, match="^request 1: A not in list$"):
        valid.replace(list=ListConfig(("B",)))


def test_compare_validates_its_workload_once(tmp_path, monkeypatch, capsys):
    checked = []
    check = core.validate_workload
    monkeypatch.setattr(core, "validate_workload", lambda w: checked.append(w) or check(w))
    path = tmp_path / "demo.workload"
    path.write_text("list: A B C\nbuffer: 1\nrequests: C B C A\n", encoding="utf-8")
    argv = ["compare", "--workload", str(path), "--algorithm", "static,mtf,transpose,fc,amr",
            "--model", "full,partial"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4 * 2 + 1
    assert len(checked) == 1


def test_parse_basic():
    w = parse_workload("list: A B C\nbuffer: 3\nrequests: C B\n")
    assert w.list.elements == ("A", "B", "C")
    assert w.buffer_capacity == 3
    assert w.requests.requests == ("C", "B")


def test_parse_missing_buffer_line():
    with pytest.raises(ParseError) as exc:
        parse_workload("list: A B C\nrequests: C\n")
    assert exc.value.line_no == 0
    assert "buffer" in str(exc.value)


def test_parse_keys_any_order_comments_ignored():
    text = "# workload\n\nrequests: B\nbuffer: 0\n# middle\nlist: A B\n"
    w = parse_workload(text)
    assert w.list.elements == ("A", "B")
    assert w.buffer_capacity == 0


def test_parse_duplicate_key():
    with pytest.raises(ParseError) as exc:
        parse_workload("list: A\nlist: B\nbuffer: 1\nrequests: A\n")
    assert exc.value.line_no == 2


def test_parse_unknown_key():
    with pytest.raises(ParseError) as exc:
        parse_workload("list: A\nbuffer: 1\nrequests: A\nseed: 3\n")
    assert exc.value.line_no == 4
    assert "unknown key" in exc.value.reason


def test_parse_line_without_colon():
    with pytest.raises(ParseError) as exc:
        parse_workload("list A B\nbuffer: 1\nrequests: A\n")
    assert exc.value.line_no == 1


def test_parse_non_integer_buffer():
    with pytest.raises(ParseError):
        parse_workload("list: A\nbuffer: three\nrequests: A\n")


def test_parse_negative_buffer():
    # an integer buffer parses; the workload rules reject a negative one
    with pytest.raises(InvalidWorkload, match="^negative buffer capacity -1$"):
        parse_workload("list: A\nbuffer: -1\nrequests: A\n")


def test_demonstration_workload_round_trips(demonstration):
    assert parse_workload(serialize_workload(demonstration)) == demonstration


@given(text_workloads())
def test_parse_serialize_round_trip(w):
    assert parse_workload(serialize_workload(w)) == w


# Tokens that break the rules: empty, or with whitespace inside or around.
bad_tokens = st.sampled_from(["", " ", "A B", "\t", "C\n", "\u3000"]) | st.text(max_size=3)


@st.composite
def raw_inputs(draw):
    """List, requests and capacity that may break every workload rule.

    Each draw first picks which rules its inputs may break; about a fifth
    of the draws break none."""
    pool = tokens | bad_tokens if draw(st.booleans()) else tokens
    elements = draw(st.lists(pool, max_size=6, unique=draw(st.booleans())))
    if elements and draw(st.booleans()):
        pool = st.sampled_from(elements)
    return elements, draw(st.lists(pool, max_size=10)), draw(st.integers(-1, 4))


def expected_violations(elements, requests, capacity):
    """The workload rules, worked out without listlab, in report order."""
    errors = []
    if not elements:
        errors.append("empty list")
    first = {}
    for idx, e in enumerate(elements, start=1):
        if e == "" or any(ch.isspace() for ch in e):
            errors.append(f"bad element token at list position {idx}: {e!r}")
        first.setdefault(e, idx)
        if first[e] != idx:
            errors.append(f"duplicate element {e} (list positions {first[e]} and {idx})")
    for j, r in enumerate(requests, start=1):
        if r not in first:
            errors.append(f"request {j}: {r} not in list")
    if capacity < 0:
        errors.append(f"negative buffer capacity {capacity}")
    return errors


@given(raw_inputs())
def test_validation_gates_exactly_what_engines_accept(raw):
    expected = expected_violations(*raw)
    if expected:
        with pytest.raises(InvalidWorkload) as exc:
            make_workload(*raw)
        assert str(exc.value) == "; ".join(expected)
        return
    w = make_workload(*raw)
    assert isinstance(serve_amr(w)[0], CostBreakdown)
    for algorithm in CLASSIC_ALGORITHMS:
        for model in (FULL, PARTIAL, pd(2)):
            assert isinstance(run_classic(algorithm, model, w)[0], CostBreakdown)
    assert isinstance(run_classic("static", CENTRALIZED, w)[0], CostBreakdown)


@given(st.text())
def test_valid_token_is_nonempty_and_free_of_whitespace(t):
    assert core._valid_token(t) == (len(t) >= 1 and not any(ch.isspace() for ch in t))
