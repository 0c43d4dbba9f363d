import errno
import io
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from listlab.cli import (
    ALGORITHM_TOKENS,
    PAPER_EXAMPLES,
    ComparisonRow,
    format_trace_line,
    main,
    rows_to_csv,
    run_pair,
)
from listlab.core import parse_workload, serialize_workload
from listlab.costs import parse_model_token
from oracles import static_full_total
from support import rows_from_csv, workloads

DEMO = "list: A B C D E F G H I\nbuffer: 3\nrequests: I E G D I E D B A I\n"
ILLU = "list: A B C D E F G H I\nbuffer: 3\nrequests: I E G D I E D A B I\n"


@pytest.fixture
def demo_path(tmp_path):
    path = tmp_path / "demo.workload"
    path.write_text(DEMO, encoding="utf-8")
    return str(path)


@pytest.fixture
def illu_path(tmp_path):
    path = tmp_path / "illu.workload"
    path.write_text(ILLU, encoding="utf-8")
    return str(path)


# --- run ---------------------------------------------------------------------


def test_run_amr_demo(demo_path, capsys):
    assert main(["run", "--workload", demo_path, "--algorithm", "amr"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "algorithm=amr model=amr n=10 l=9 buffer=3\n"
        "access=31 matching=4 replacement=1 exchange=0 total=36\n"
    )


def test_run_static_full_demo(demo_path, capsys):
    assert main(["run", "--workload", demo_path, "--algorithm", "static", "--model", "full"]) == 0
    out = capsys.readouterr().out
    e = "A B C D E F G H I".split()
    r = "I E G D I E D B A I".split()
    assert static_full_total(e, r) == 55
    assert "total=55" in out


def test_run_mtf_centralized_is_unsupported(demo_path, capsys):
    assert main(["run", "--workload", demo_path, "--algorithm", "mtf", "--model", "centralized"]) == 3
    assert "error:" in capsys.readouterr().err


def test_run_amr_rejects_model_flag(demo_path, capsys):
    assert main(["run", "--workload", demo_path, "--algorithm", "amr", "--model", "full"]) == 3
    assert "carries its own cost model" in capsys.readouterr().err


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", "--workload", str(tmp_path / "nope"), "--algorithm", "amr"]) == 2


def test_run_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.workload"
    path.write_text("list: A B\nrequests: A\n", encoding="utf-8")
    assert main(["run", "--workload", str(path), "--algorithm", "amr"]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 0: missing 'buffer:' line\n"


def test_run_invalid_workload(tmp_path, capsys):
    path = tmp_path / "dup.workload"
    path.write_text("list: A A\nbuffer: 1\nrequests: A\n", encoding="utf-8")
    assert main(["run", "--workload", str(path), "--algorithm", "mtf"]) == 2
    assert "duplicate element" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_negative_buffer_file_is_an_invalid_workload(command, tmp_path, capsys):
    # the buffer line parses as an integer; the workload rules reject it
    path = tmp_path / "neg.workload"
    path.write_text("list: A B\nbuffer: -1\nrequests: A\n", encoding="utf-8")
    assert main([command, "--workload", str(path), "--algorithm", "amr"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: invalid workload: negative buffer capacity -1\n"


def test_gen_names_a_negative_buffer(tmp_path, capsys):
    out_path = tmp_path / "w.workload"
    argv = ["gen", "--dist", "uniform", "--list-size", "4", "--length", "8", "--buffer", "-1",
            "-o", str(out_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: negative buffer capacity -1\n"
    assert not out_path.exists()


def test_run_short_sequence_warns_on_stderr(tmp_path, capsys):
    path = tmp_path / "short.workload"
    path.write_text("list: A B C\nbuffer: 1\nrequests: B A\n", encoding="utf-8")
    assert main(["run", "--workload", str(path), "--algorithm", "static"]) == 0
    assert "warning:" in capsys.readouterr().err


def test_run_writes_trace(illu_path, tmp_path, capsys):
    trace_path = tmp_path / "out.trace"
    assert main(["run", "--workload", illu_path, "--algorithm", "amr", "--trace", str(trace_path)]) == 0
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 10
    assert lines[0] == (
        "t=1 element=I source=list position=9 cost=9 "
        "matched=5:E;9:I inserted=1:E;2:I evicted= flags_added=2;5;6;10"
    )
    assert lines[1] == (
        "t=2 element=E source=buffer position=1 cost=1 "
        "matched= inserted= evicted= flags_added="
    )


def test_run_classic_trace_has_same_fields(demo_path, tmp_path):
    trace_path = tmp_path / "mtf.trace"
    main(["run", "--workload", demo_path, "--algorithm", "mtf", "--trace", str(trace_path)])
    first = trace_path.read_text(encoding="utf-8").splitlines()[0]
    assert first == (
        "t=1 element=I source=list position=9 cost=9 "
        "matched= inserted= evicted= flags_added="
    )


@pytest.mark.parametrize("algorithm, dist, list_size, mib", [
    # Short lists read the step table too, and their flag windows are
    # scanned, so they build no occurrence lists.
    pytest.param("amr", "uniform", 10, 3, id="amr"),
    pytest.param("amr", "zipf:1.2", 10, 3, id="amr-zipf-l10"),
    pytest.param("mtf", "uniform", 10, 3, id="mtf"),
    # Windows up to 100 long read the step table and bisect the residents'
    # occurrence lists, both cached on the request sequence. An index of
    # one (position, element) tuple per request, bucketed by diagonal,
    # peaked at about 10.3 MiB here; the step table, whose rows share one
    # tuple per list element, peaks at about 4.7 MiB.
    pytest.param("amr", "zipf:1.2", 100, 6, id="amr-zipf-l100"),
])
def test_run_trace_streams_its_steps(algorithm, dist, list_size, mib, tmp_path, capsys):
    # Holding all 5*10^4 events of the uniform l=10 file at once peaks at
    # about 11 MiB for amr and 9.5 MiB for mtf; streamed, the run holds the
    # workload, its indices and about one event.
    wl, trace = tmp_path / "long.workload", tmp_path / "long.trace"
    assert main(["gen", "--dist", dist, "--list-size", str(list_size), "--length", "50000",
                 "--buffer", "8", "--seed", "3", "-o", str(wl)]) == 0
    tracemalloc.start()
    try:
        code = main(["run", "--workload", str(wl), "--algorithm", algorithm,
                     "--trace", str(trace)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert trace.read_text(encoding="utf-8").count("\n") == 50_000
    assert peak < mib * 2**20, f"peak {peak / 2**20:.2f} MiB"


TRACE_KEYS = (
    "t", "element", "source", "position", "cost", "matched", "inserted", "evicted", "flags_added"
)


@given(w=workloads())
def test_every_engine_steps_through_one_record(w):
    for algorithm in ALGORITHM_TOKENS:  # the classical ones under full
        row, events = run_pair(algorithm, None, w)
        assert row[:2] == (algorithm, "amr" if algorithm == "amr" else "full")
        assert row[-4:] == (w.requests.n, w.list.l, w.buffer_capacity, None)
        assert [ev.t for ev in events] == list(range(1, w.requests.n + 1))
        if algorithm == "amr":
            assert all(ev.transpositions == 0 for ev in events)
        else:
            for ev in events:
                assert ev.source == "list"
                assert (ev.matched, ev.inserted, ev.evicted, ev.flags_added) == ((), (), (), ())
        cost = 0
        for ev in events:
            fields = [field.split("=", 1) for field in format_trace_line(ev).split(" ")]
            assert tuple(key for key, _ in fields) == TRACE_KEYS
            assert [value for _, value in fields[:5]] == [str(v) for v in ev[:5]]
            cost += int(fields[4][1])
        assert cost == row.access


def test_run_writes_single_row_csv(demo_path, tmp_path):
    csv_path = tmp_path / "run.csv"
    main(["run", "--workload", demo_path, "--algorithm", "amr", "--csv", str(csv_path)])
    rows = rows_from_csv(csv_path.read_text(encoding="utf-8"))
    assert len(rows) == 1
    row = rows[0]
    assert (row.algorithm, row.model, row.total, row.seed) == ("amr", "amr", 36, None)
    assert (row.n, row.l, row.buffer) == (10, 9, 3)


# --- compare -----------------------------------------------------------------


def test_compare_mtf_and_amr(demo_path, tmp_path, capsys):
    csv_path = tmp_path / "cmp.csv"
    code = main(
        [
            "compare",
            "--workload",
            demo_path,
            "--algorithm",
            "mtf,amr",
            "--model",
            "full",
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out == csv_path.read_text(encoding="utf-8")
    rows = rows_from_csv(out)
    assert [(r.algorithm, r.model, r.total) for r in rows] == [
        ("amr", "amr", 36),
        ("mtf", "full", 58),
    ]


def test_compare_skips_unsupported_pairs(demo_path, capsys):
    code = main(
        [
            "compare",
            "--workload",
            demo_path,
            "--algorithm",
            "static,mtf",
            "--model",
            "full,centralized",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    rows = rows_from_csv(captured.out)
    assert [(r.algorithm, r.model) for r in rows] == [
        ("mtf", "full"),
        ("static", "centralized"),
        ("static", "full"),
    ]
    assert "skip mtf under centralized" in captured.err


@pytest.mark.parametrize("flag", ["--algorithm", "--model"])
def test_compare_rejects_an_empty_token_list(flag, demo_path, capsys):
    argv = ["compare", "--workload", demo_path, "--algorithm", "static", flag, ""]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} '' names no token\n"


@pytest.mark.parametrize("flag", ["--algorithm", "--model"])
def test_compare_rejects_a_token_list_that_names_nothing(flag, demo_path, capsys):
    argv = ["compare", "--workload", demo_path, "--algorithm", "static", flag, ","]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_compare_unknown_algorithm(demo_path, capsys):
    assert main(["compare", "--workload", demo_path, "--algorithm", "opt"]) == 2


def test_compare_unknown_model(demo_path, capsys):
    assert main(["compare", "--workload", demo_path, "--algorithm", "mtf", "--model", "bogus"]) == 2


@pytest.mark.parametrize("command", ["run", "compare"])
def test_bad_model_token_is_rejected_before_any_run(command, demo_path, capsys):
    argv = [command, "--workload", demo_path, "--algorithm", "amr", "--model", "bogus"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown cost model kind 'bogus'\n"


def test_compare_prices_every_model_like_a_single_run(tmp_path, capsys):
    # compare serves each classical algorithm once and reprices it; mtf,
    # transpose and fc are refused under the first model, centralized
    wl = tmp_path / "w.workload"
    assert main(["gen", "--dist", "zipf:1.2", "--list-size", "40", "--length", "400",
                 "--seed", "2", "-o", str(wl)]) == 0
    capsys.readouterr()
    tokens = ["centralized", "full", "partial", "pd:2"]
    assert main(["compare", "--workload", str(wl), "--algorithm", ",".join(ALGORITHM_TOKENS),
                 "--model", ",".join(tokens)]) == 0
    rows = rows_from_csv(capsys.readouterr().out)
    assert len(rows) == 4 + 3 * 3 + 1  # static, the other classics, amr
    w = parse_workload(wl.read_text(encoding="utf-8"))
    for row in rows:
        model = None if row.model == "amr" else parse_model_token(row.model)
        assert row == run_pair(row.algorithm, model, w)[0]


def test_compare_amr_ignores_model_list(demo_path, capsys):
    main(["compare", "--workload", demo_path, "--algorithm", "amr", "--model", "full,partial"])
    rows = rows_from_csv(capsys.readouterr().out)
    assert [(r.algorithm, r.model) for r in rows] == [("amr", "amr")]


def test_compare_reverse_eleven_reproduces_mtf_121(tmp_path, capsys):
    wl = tmp_path / "rev.workload"
    assert main(["gen", "--dist", "reverse", "--list-size", "11", "-o", str(wl)]) == 0
    capsys.readouterr()
    main(["compare", "--workload", str(wl), "--algorithm", "mtf", "--model", "full"])
    rows = rows_from_csv(capsys.readouterr().out)
    assert rows[0].total == 121


# --- gen ---------------------------------------------------------------------


def test_gen_reverse_eleven(tmp_path, capsys):
    out_path = tmp_path / "rev.workload"
    assert main(["gen", "--dist", "reverse", "--list-size", "11", "-o", str(out_path)]) == 0
    text = out_path.read_text(encoding="utf-8")
    assert "requests: K J I H G F E D C B A\n" in text
    assert "buffer: 3\n" in text
    stdout = capsys.readouterr().out
    assert "seed=0" in stdout


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.workload"
    b = tmp_path / "b.workload"
    args = ["gen", "--dist", "uniform", "--list-size", "5", "--length", "100", "--seed", "7"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_zipf_zero_skew_is_a_usage_error(tmp_path, capsys):
    code = main(["gen", "--dist", "zipf:0", "--list-size", "5", "--length", "10"])
    assert code == 2
    assert "skew" in capsys.readouterr().err


def test_gen_zipf_infinite_skew_is_a_usage_error(capsys):
    code = main(["gen", "--dist", "zipf:inf", "--list-size", "5", "--length", "10"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "skew" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_gen_writes_to_stdout_without_output_flag(capsys):
    assert main(["gen", "--dist", "reverse", "--list-size", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "list: A B C\nbuffer: 3\nrequests: C B A\n"
    assert "dist=reverse" in captured.err


def test_gen_buffer_flag(tmp_path):
    out_path = tmp_path / "buf.workload"
    main(["gen", "--dist", "reverse", "--list-size", "3", "--buffer", "9", "-o", str(out_path)])
    assert "buffer: 9\n" in out_path.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "extra", [["--buffer", "-2"], ["--seed", "-1"], ["--seed", str(2**64)]]
)
def test_gen_rejects_out_of_range_values(extra, tmp_path, capsys):
    out_path = tmp_path / "w.workload"
    argv = ["gen", "--dist", "uniform", "--list-size", "4", "--length", "8", "-o", str(out_path)]
    assert main(argv + extra) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_path.exists()


def test_gen_output_parses_back(tmp_path, capsys):
    out_path = tmp_path / "z.workload"
    main(["gen", "--dist", "zipf:1.2", "--list-size", "8", "--length", "50", "--seed", "5", "-o", str(out_path)])
    from listlab.core import parse_workload

    w = parse_workload(out_path.read_text(encoding="utf-8"))
    assert w.requests.n == 50
    assert out_path.read_text(encoding="utf-8") == serialize_workload(w)


# --- paper-examples ----------------------------------------------------------


def test_reference_checks_pass(capsys):
    assert main(["paper-examples"]) == 0
    out = capsys.readouterr().out
    assert "3/3 pass" in out
    assert "lookahead-illustration [amr]: PASS" in out
    assert "access expected=31 actual=31" in out
    assert "matching expected=3 actual=3" in out
    assert "reverse-order-mtf [mtf]: PASS" in out


def corrupt_total(example):
    name, workload, algorithm, _ = example
    return name, workload, algorithm, {"total": 999}


def test_reference_checks_report_mismatch(monkeypatch, capsys):
    monkeypatch.setattr("listlab.cli.PAPER_EXAMPLES", (corrupt_total(PAPER_EXAMPLES[0]),))
    assert main(["paper-examples"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "lookahead-illustration [amr]: FAIL (total expected=999 actual=34)",
        "0/1 pass",
    ]


def test_corrupted_builtin_checks_exit_nonzero(monkeypatch, capsys):
    corrupted = (*PAPER_EXAMPLES[:2], corrupt_total(PAPER_EXAMPLES[2]))
    monkeypatch.setattr("listlab.cli.PAPER_EXAMPLES", corrupted)
    assert main(["paper-examples"]) == 1
    out = capsys.readouterr().out
    assert "reverse-order-mtf [mtf]: FAIL (total expected=999 actual=121)" in out
    assert out.endswith("2/3 pass\n")


# --- unreadable input, unwritable output ------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--workload", "{latin1}", "--algorithm", "amr"],
        ["compare", "--workload", "{latin1}", "--algorithm", "mtf"],
        ["run", "--workload", "{demo}", "--algorithm", "amr", "--trace", "{nodir}"],
        ["run", "--workload", "{demo}", "--algorithm", "amr", "--csv", "{nodir}"],
        ["compare", "--workload", "{demo}", "--algorithm", "amr", "--csv", "{nodir}"],
        ["gen", "--dist", "reverse", "--list-size", "3", "-o", "{nodir}"],
    ],
    ids=["run-not-utf8", "compare-not-utf8", "run-trace", "run-csv", "compare-csv", "gen-o"],
)
def test_io_failure_is_one_error_line_and_exit_two(argv, demo_path, tmp_path, capsys):
    latin1 = tmp_path / "latin1.workload"
    latin1.write_bytes("list: \xc4 B\nbuffer: 1\nrequests: B\n".encode("latin-1"))
    paths = {"demo": demo_path, "latin1": latin1, "nodir": tmp_path / "missing" / "out"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--workload", "demo.workload", "--algorithm", "amr", "--trace", "demo.workload"],
        ["run", "--workload", "demo.workload", "--algorithm", "amr", "--csv", "./demo.workload"],
        ["compare", "--workload", "demo.workload", "--algorithm", "mtf", "--csv", "demo.workload"],
        ["run", "--workload", "demo.workload", "--algorithm", "amr", "--trace", "t", "--csv", "t"],
    ],
    ids=["run-trace-is-workload", "run-csv-is-workload", "compare-csv-is-workload",
         "run-trace-is-csv"],
)
def test_colliding_paths_exit_two_before_any_write(argv, demo_path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (tmp_path / "demo.workload").read_bytes() == DEMO.encode()
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--workload", "demo.workload", "--algorithm", "amr", "--trace", ""], "--trace"),
        (["run", "--workload", "demo.workload", "--algorithm", "amr", "--csv", ""], "--csv"),
        (["compare", "--workload", "demo.workload", "--algorithm", "mtf", "--csv", ""], "--csv"),
        (["run", "--workload", "", "--algorithm", "amr"], "--workload"),
        (["gen", "--dist", "reverse", "--list-size", "3", "-o", ""], "--output"),
    ],
    ids=["run-trace", "run-csv", "compare-csv", "run-workload", "gen-o"],
)
def test_empty_path_exits_two_before_any_write(argv, flag, demo_path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {flag} names no file\n")
    assert [p.name for p in tmp_path.iterdir()] == ["demo.workload"]
    assert (tmp_path / "demo.workload").read_bytes() == DEMO.encode()


ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# Every entry point that writes to stdout, as a child's argv after the interpreter.
ENTRY_POINTS = {
    "gen": ["-m", "listlab.cli", "gen", "--dist", "reverse", "--list-size", "3"],
    "run": ["-m", "listlab.cli", "run", "--workload", "{demo}", "--algorithm", "amr"],
    "compare": ["-m", "listlab.cli", "compare", "--workload", "{demo}", "--algorithm", "mtf"],
    "paper-examples": ["-m", "listlab.cli", "paper-examples"],
    "sweep_compare": [str(SCRIPTS / "sweep_compare.py"), "--seeds", "1", "--buffers", "1"],
    "buffer_sensitivity": [str(SCRIPTS / "buffer_sensitivity.py"), "--max-buffer", "0"],
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_unwritable_stdout_is_one_error_line_and_exit_two(entry, buffered, demo_path):
    # Buffered, the write fails in the final flush; unbuffered, in the command.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [arg.format(demo=demo_path) for arg in ENTRY_POINTS[entry]]
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, *argv], stdout=full, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


BROKEN_PIPE = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


class BrokenPipeStdout(io.StringIO):
    def write(self, text):
        raise BROKEN_PIPE


def test_broken_pipe_stdout_in_process(capsys):
    with redirect_stdout(BrokenPipeStdout()):
        assert main(["paper-examples"]) == 2
    assert capsys.readouterr().err == f"error: cannot write stdout: {BROKEN_PIPE}\n"


# --- CSV round trip ----------------------------------------------------------

row_strategy = st.builds(
    ComparisonRow,
    algorithm=st.sampled_from(["static", "mtf", "transpose", "fc", "amr"]),
    model=st.sampled_from(["full", "partial", "pd:2", "centralized", "amr"]),
    access=st.integers(0, 10**6),
    matching=st.integers(0, 10**4),
    replacement=st.integers(0, 10**4),
    exchange=st.integers(0, 10**4),
    total=st.integers(0, 10**6),
    n=st.integers(0, 10**4),
    l=st.integers(1, 100),
    buffer=st.integers(0, 50),
    seed=st.one_of(st.none(), st.integers(0, 2**63 - 1)),
)


@given(st.lists(row_strategy, max_size=8))
def test_csv_rows_round_trip(rows):
    assert rows_from_csv(rows_to_csv(rows)) == rows


def test_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        rows_from_csv("a,b,c\n1,2,3\n")


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
