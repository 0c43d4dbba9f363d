import dataclasses

import pytest
from hypothesis import given

from listlab import (
    FULL,
    InvalidWorkload,
    ListConfig,
    NotInList,
    ParseError,
    generate,
    make_workload,
    parse_workload,
    position,
    run_classic,
    serialize_workload,
    serve_amr,
    spec_from_dist_token,
    validate_workload,
)
from listlab import core
from listlab.cli import main
from listlab.core import require_valid
from support import text_workloads, unique_token_lists

NINE = tuple("A B C D E F G H I".split())


def test_position_ninth_element():
    lst = make_workload(NINE, (), 0).list
    assert position(lst, "I") == 9


def test_position_front_element():
    lst = make_workload(NINE, (), 0).list
    assert position(lst, "A") == 1


def test_position_absent_element():
    lst = make_workload(("A", "B", "C"), (), 0).list
    with pytest.raises(NotInList):
        position(lst, "Z")


def test_position_keeps_first_occurrence_and_not_in_list():
    lst = ListConfig(("A", "B", "A"))
    for _ in range(2):  # the second round reads the cached index
        assert [position(lst, e) for e in "ABA"] == [1, 2, 1]
        with pytest.raises(NotInList):
            position(lst, "Z")


def test_cached_indices_leave_equality_and_hash_unchanged():
    w = generate(spec_from_dist_token("uniform", 40, 300, 5), buffer_capacity=3)
    twin = make_workload(w.list.elements, w.requests.requests, w.buffer_capacity)
    before = (hash(w), hash(w.list), hash(w.requests), repr(w), serialize_workload(w))
    serve_amr(w)
    assert "positions" in vars(w.list) and "_diagonals" in vars(w.requests)
    assert (hash(w), hash(w.list), hash(w.requests), repr(w), serialize_workload(w)) == before
    assert (w, w.list, w.requests) == (twin, twin.list, twin.requests)
    assert hash(w) == hash(twin)


@given(unique_token_lists)
def test_position_is_a_bijection(elements):
    lst = make_workload(elements, (), 0).list
    assert [position(lst, e) for e in elements] == list(range(1, len(elements) + 1))


def test_validate_short_sequence_warns_but_passes():
    report = validate_workload(make_workload("A B C".split(), "B A".split(), 1))
    assert report.ok
    assert any("n=2 < l=3" in w for w in report.warnings)


def test_validate_duplicate_element():
    report = validate_workload(make_workload("A A B".split(), ["A"], 0))
    assert not report.ok
    assert any("duplicate element A" in e for e in report.errors)


def test_validate_request_not_in_list():
    report = validate_workload(make_workload("A B".split(), ["C"], 2))
    assert not report.ok
    assert any("C not in list" in e for e in report.errors)


def test_validate_empty_list():
    report = validate_workload(make_workload((), (), 0))
    assert not report.ok
    assert "empty list" in report.errors


def test_validate_negative_buffer():
    report = validate_workload(make_workload(("A",), ("A",), -1))
    assert not report.ok


def test_validate_bad_token():
    report = validate_workload(make_workload(("A", "B C"), (), 0))
    assert not report.ok


def test_require_valid_lists_all_violations():
    w = make_workload("A A".split(), ["Z"], -2)
    with pytest.raises(InvalidWorkload) as exc:
        require_valid(w)
    message = str(exc.value)
    assert "duplicate element A" in message
    assert "Z not in list" in message
    assert "negative buffer" in message


def test_invalid_workload_is_rejected_on_every_call():
    w = make_workload("A B".split(), ["Z"], 0)
    for _ in range(2):
        with pytest.raises(InvalidWorkload):
            run_classic("static", FULL, w)
        with pytest.raises(InvalidWorkload):
            serve_amr(w)
    # The cached report belongs to one object: a copy with a bad field
    # is checked afresh.
    valid = make_workload("A B".split(), ["A"], 0)
    assert validate_workload(valid).ok
    broken = dataclasses.replace(valid, buffer_capacity=-1)
    assert validate_workload(broken).errors == ("negative buffer capacity -1",)
    with pytest.raises(InvalidWorkload):
        serve_amr(broken)


def test_compare_validates_its_workload_once(tmp_path, monkeypatch, capsys):
    checked = []
    check = core._validation_report
    monkeypatch.setattr(core, "_validation_report", lambda w: checked.append(w) or check(w))
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
    with pytest.raises(ParseError):
        parse_workload("list: A\nbuffer: -1\nrequests: A\n")


def test_demonstration_workload_round_trips(demonstration):
    assert parse_workload(serialize_workload(demonstration)) == demonstration


@given(text_workloads())
def test_parse_serialize_round_trip(w):
    assert parse_workload(serialize_workload(w)) == w


@given(text_workloads())
def test_validation_gates_exactly_what_engines_accept(w):
    from listlab import FULL, run_classic, serve_amr

    report = validate_workload(w)
    assert report.ok  # valid by construction
    serve_amr(w)
    run_classic("static", FULL, w)
