import errno
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from listlab import classic
from listlab.classic import CLASSIC_ALGORITHMS, run_classic
from listlab.cli import (
    ALGORITHM_TOKENS,
    PAPER_EXAMPLES,
    ComparisonRow,
    format_trace_line,
    main,
    rows_to_csv,
    run_pair,
    trace_lines,
)
from listlab.core import make_workload, parse_workload, serialize_workload
from listlab.costs import CENTRALIZED, FULL, PARTIAL, model_token, parse_model_token, pd
from listlab.workloads import generate, spec_from_dist_token
from oracles import static_full_total
from pinned import files, in_process
from support import replays, rows_from_csv, workloads

DEMO = "list: A B C D E F G H I\nbuffer: 3\nrequests: I E G D I E D B A I\n"


@pytest.fixture
def demo_path(tmp_path):
    path = tmp_path / "demo.workload"
    path.write_text(DEMO, encoding="utf-8")
    return str(path)


# --- run ---------------------------------------------------------------------


def test_run_static_full_demo(demo_path, capsys):
    assert main(["run", "--workload", demo_path, "--algorithm", "static", "--model", "full"]) == 0
    out = capsys.readouterr().out
    e = "A B C D E F G H I".split()
    r = "I E G D I E D B A I".split()
    assert static_full_total(e, r) == 55
    assert "total=55" in out


def draws_nothing(*args):
    raise AssertionError("a request was drawn")


def test_gen_names_a_negative_buffer(tmp_path, monkeypatch, capsys):
    # the buffer rule runs before any request is drawn
    monkeypatch.setattr("listlab.workloads.splitmix64", draws_nothing)
    out_path = tmp_path / "w.workload"
    argv = ["gen", "--dist", "uniform", "--list-size", "4", "--length", "8", "--buffer", "-1",
            "-o", str(out_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: negative buffer capacity -1\n"
    assert not out_path.exists()


@pytest.mark.parametrize("algorithm, dist, list_size, mib", [
    # Short lists read the step table too, and their flag windows are
    # scanned, so they build no occurrence lists.
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
    # Holding all 5*10^4 trace lines of an l=10 file at once peaks at about
    # 10 MiB for amr (zipf:1.2) and 8.3 MiB for mtf (uniform); streamed, the
    # run holds the workload, its indices and about one event.
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


@settings(max_examples=100)
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


CLASSIC_PAIRS = [(a, m) for a in CLASSIC_ALGORITHMS for m in (FULL, PARTIAL, pd(1), pd(2))]
CLASSIC_PAIRS.append(("static", CENTRALIZED))


# n = 0, and n < l
@example(w=make_workload("ABC", "", 0))
@example(w=make_workload("ABCD", "DB", 0))
@settings(max_examples=100)
@given(w=workloads(max_l=40, max_n=60))
def test_classic_trace_lines_are_the_formatted_events(w):
    # A classical trace is formatted from the run's columns, not from its
    # events; the lines must be the ones the events format to.
    for algorithm, model in CLASSIC_PAIRS:
        _, steps, _ = run_classic(algorithm, model, w)
        expected = [format_trace_line(ev) + "\n" for ev in steps]
        assert list(trace_lines(steps)) == expected, (algorithm, model_token(model))


def builds_no_event(*args):
    raise AssertionError("a StepEvent was built")


@pytest.mark.parametrize("algorithm, model", [
    ("static", "centralized"), ("mtf", "full"), ("transpose", "partial"), ("fc", "pd:2")])
def test_classic_trace_builds_no_event(algorithm, model, tmp_path, monkeypatch):
    # A traced classical run reads each step's cost from a table over
    # the distinct positions, one access_cost call each, and builds no
    # StepEvent; l=40 puts mtf on its stamps.
    w = generate(spec_from_dist_token("zipf:1.2", 40, 500, 1), 0)
    path, trace = tmp_path / "w.workload", tmp_path / "t"
    path.write_text(serialize_workload(w), encoding="utf-8")
    positions, _, _ = classic._STEPS[algorithm](w)
    monkeypatch.setattr(classic, "_events", builds_no_event)
    with mock.patch.object(classic, "access_cost", wraps=classic.access_cost) as access:
        assert main(["run", "--workload", str(path), "--algorithm", algorithm,
                     "--model", model, "--trace", str(trace)]) == 0
    assert access.call_count == len(set(positions)) < len(positions)
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 500
    assert lines[0].startswith("t=1 ") and lines[-1].startswith("t=500 ")


# --- compare -----------------------------------------------------------------


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


# --- gen ---------------------------------------------------------------------


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.workload"
    b = tmp_path / "b.workload"
    args = ["gen", "--dist", "uniform", "--list-size", "5", "--length", "100", "--seed", "7"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_output_parses_back(tmp_path, capsys):
    out_path = tmp_path / "z.workload"
    main(["gen", "--dist", "zipf:1.2", "--list-size", "8", "--length", "50", "--seed", "5", "-o", str(out_path)])
    w = parse_workload(out_path.read_text(encoding="utf-8"))
    assert w.requests.n == 50
    assert out_path.read_text(encoding="utf-8") == serialize_workload(w)


# --- paper-examples ----------------------------------------------------------


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


# --- failures and outputs pinned in tests/pinned.py --------------------------

# Each test replays the rows that pin its exit codes and exact bytes.
test_run_amr_demo = replays("run-amr-demonstration")
test_run_writes_trace = replays("run-amr-illustration")
test_run_classic_trace_has_same_fields = replays("run-mtf-full-reverse-eleven")
test_run_writes_single_row_csv = replays("run-amr-demonstration")
test_compare_mtf_and_amr = replays("compare-mtf-amr")
test_compare_amr_ignores_model_list = replays("compare-amr-two-models")
test_compare_reverse_eleven_reproduces_mtf_121 = replays("compare-reverse-eleven")
test_gen_reverse_eleven = replays("compare-reverse-eleven")
test_gen_buffer_flag = replays("gen-buffer-9")
test_reference_checks_pass = replays("paper-examples")
test_run_mtf_centralized_is_unsupported = replays("run-mtf-centralized")
test_run_amr_rejects_model_flag = replays("run-amr-with-model")
test_run_missing_file = replays("run-missing-file")
test_run_malformed_file = replays("run-missing-buffer-line")
test_run_invalid_workload = replays("run-duplicate-element")
test_negative_buffer_file_is_an_invalid_workload = replays(
    {"run": "run-negative-buffer", "compare": "compare-negative-buffer"})
test_run_short_sequence_warns_on_stderr = replays("run-short-sequence")
test_compare_skips_unsupported_pairs = replays("compare-demonstration")
test_compare_rejects_an_empty_token_list = replays(
    {"--algorithm": "compare-empty-algorithm", "--model": "compare-empty-model"})
test_compare_rejects_a_token_list_that_names_nothing = replays(
    {"--algorithm": "compare-comma-algorithm", "--model": "compare-comma-model"})
test_compare_unknown_algorithm = replays("compare-unknown-algorithm")
test_compare_unknown_model = replays("compare-unknown-model")
test_bad_model_token_is_rejected_before_any_run = replays(
    {"run": "run-amr-bad-model", "compare": "compare-amr-bad-model"})
test_gen_zipf_zero_skew_is_a_usage_error = replays("gen-zipf-zero-skew")
test_gen_zipf_infinite_skew_is_a_usage_error = replays("gen-zipf-infinite-skew")
test_gen_writes_to_stdout_without_output_flag = replays("gen-stdout")
test_gen_rejects_out_of_range_values = replays(
    {"extra0": "gen-negative-buffer", "extra1": "gen-negative-seed", "extra2": "gen-seed-2**64"})
test_io_failure_is_one_error_line_and_exit_two = replays(
    {"run-not-utf8": "run-not-utf8", "compare-not-utf8": "compare-not-utf8",
     "run-trace": "run-trace-no-dir", "run-csv": "run-csv-no-dir",
     "compare-csv": "compare-csv-no-dir", "gen-o": "gen-o-no-dir"})
test_colliding_paths_exit_two_before_any_write = replays(
    {name: name for name in ("run-trace-is-workload", "run-csv-is-workload",
                             "compare-csv-is-workload", "run-trace-is-csv")})
test_empty_path_exits_two_before_any_write = replays(
    {"run-trace": "run-empty-trace", "run-csv": "run-empty-csv", "compare-csv": "compare-empty-csv",
     "run-workload": "run-empty-workload", "gen-o": "gen-empty-o"})
test_failing_call_publishes_no_file_and_no_note = replays(
    {"trace-then-csv": "run-trace-then-csv-no-dir", "directory": "run-trace-is-a-directory",
     "run-warning": "run-short-mtf-centralized", "compare-notes": "compare-short-csv-no-dir"})


def test_an_output_is_checked_as_open_would_before_the_run(demo_path, tmp_path, monkeypatch,
                                                           capsys):
    # an existing file this process may not write is refused up front and kept
    monkeypatch.chdir(tmp_path)
    Path("out.csv").write_text("old\n", encoding="utf-8")
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert main(["run", "--workload", demo_path, "--algorithm", "mtf", "--csv", "out.csv"]) == 2
    assert capsys.readouterr() == (
        "", "error: cannot write out.csv: [Errno 13] Permission denied: 'out.csv'\n")
    assert sorted(os.listdir()) == ["demo.workload", "out.csv"]
    assert Path("out.csv").read_text(encoding="utf-8") == "old\n"


def test_a_file_that_cannot_be_moved_onto_its_path_is_named(demo_path, tmp_path, monkeypatch,
                                                            capsys):
    def refuse(src, dst):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), src, None, dst)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "replace", refuse)
    assert main(["run", "--workload", demo_path, "--algorithm", "mtf", "--trace", "t"]) == 2
    assert capsys.readouterr().err == "error: cannot write t: [Errno 21] Is a directory: 't'\n"
    assert os.listdir() == ["demo.workload"]  # the staged file is removed


def test_an_output_through_a_symlink_replaces_its_target(demo_path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("link").symlink_to("out.csv")
    assert main(["run", "--workload", demo_path, "--algorithm", "amr", "--csv", "link"]) == 0
    assert Path("link").is_symlink()
    assert Path("out.csv").read_text(encoding="utf-8").startswith("algorithm,model,")
    assert sorted(os.listdir()) == ["demo.workload", "link", "out.csv"]


def test_an_output_name_of_any_length_is_staged(demo_path, tmp_path, monkeypatch):
    # the staged file's own name must fit wherever its target's does
    monkeypatch.chdir(tmp_path)
    name = "x" * os.pathconf(".", "PC_NAME_MAX")
    assert main(["run", "--workload", demo_path, "--algorithm", "amr", "--trace", name]) == 0
    assert sorted(os.listdir()) == ["demo.workload", name]


def test_a_device_is_written_in_place(demo_path, monkeypatch):
    # staged, /dev/null would be replaced by a regular file
    moved = []
    monkeypatch.setattr(os, "replace", lambda src, dst: moved.append(dst))
    assert main(["run", "--workload", demo_path, "--algorithm", "mtf", "--trace", os.devnull]) == 0
    assert moved == []


# --- any argv: exit 0, 2 or 3, and one error: line ----------------------------

# Values for each flag, valid and broken; {d} is the call's directory, and an
# output named {d}/w.workload collides with the workload. A required flag is
# always given; argparse rejects "opt" and "x" with its usage.
OUTPUTS = [None, "{d}/out", "{d}/w.workload", "", "{d}/missing/out"]
WORKLOADS = ["{d}/w.workload", "{d}/missing/w", ""]
MODELS = [None, "full", "partial,pd:2", "centralized", "", ",", "pd:0", "bogus"]
GRAMMAR = {
    "run": {"--workload": WORKLOADS, "--algorithm": [*ALGORITHM_TOKENS, "opt"],
            "--model": MODELS, "--trace": OUTPUTS, "--csv": OUTPUTS},
    "compare": {"--workload": WORKLOADS,
                "--algorithm": ["static,mtf", "transpose,fc,amr", "amr", "", ",", "opt"],
                "--model": MODELS, "--csv": OUTPUTS},
    "gen": {"--dist": ["uniform", "zipf:1.2", "zipf:inf", "zipf:0", "burst:4", "burst:0",
                       "reverse", "bogus", ""],
            "--list-size": ["5", "0", "-1", "x"], "--length": [None, "8", "0", "-1"],
            "--seed": [None, "7", "-1", str(2**64)], "--buffer": [None, "2", "-1"],
            "-o": OUTPUTS},
    "paper-examples": {},
}


@st.composite
def calls(draw):
    """An argv from GRAMMAR; None leaves a flag out."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [command]
    for flag, values in GRAMMAR[command].items():
        value = draw(st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
    return argv


@settings(max_examples=300)
@given(argv=calls(), text=st.sampled_from([DEMO, "list: A B C\nbuffer: 1\nrequests: B A\n"]),
       edits=st.lists(st.tuples(st.integers(0, 60), st.binary(max_size=2)), max_size=3))
def test_every_call_exits_0_2_or_3_with_one_error_line(argv, text, edits):
    data = bytearray(text.encode())
    for pos, new in edits:  # replace, delete or insert bytes
        data[pos:pos + 1] = new
    with tempfile.TemporaryDirectory() as d:
        Path(d, "w.workload").write_bytes(data)
        before = files(Path(d))
        code, out, err = in_process([arg.format(d=d) for arg in argv])
        unchanged = files(Path(d)) == before
    assert code in (0, 2, 3) or code == 1 and argv == ["paper-examples"]
    if code in (2, 3):
        assert out == b"", "a failing call wrote to stdout"
        assert unchanged, "a failing call created or changed a file"
    if code in (2, 3) and not err.startswith(b"usage:"):
        # no warning or skip note: the error line is all a failing call writes
        assert err.startswith(b"error: ") and err.count(b"\n") == 1 and err.endswith(b"\n")

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
    "help": ["-m", "listlab.cli", "--help"],
    "sweep_compare-help": [str(SCRIPTS / "sweep_compare.py"), "--help"],
    "buffer_sensitivity-help": [str(SCRIPTS / "buffer_sensitivity.py"), "--help"],
}
UNWRITABLE_STDOUT = [(entry, buffered) for entry in sorted(ENTRY_POINTS) for buffered in (True, False)]


def child_env(buffered):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def assert_stdout_is_unwritable(argv, buffered, cwd=None):
    """A child given a full stdout exits 2 with one error: line."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, *argv], stdout=full, stderr=subprocess.PIPE,
                              text=True, cwd=cwd, env=child_env(buffered), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("entry, buffered", UNWRITABLE_STDOUT,
                         ids=[f"{e}-{'buffered' if b else 'unbuffered'}" for e, b in UNWRITABLE_STDOUT])
def test_unwritable_stdout_is_one_error_line_and_exit_two(entry, buffered, demo_path):
    # Buffered, the write fails in the final flush; unbuffered, in the command.
    assert_stdout_is_unwritable([arg.format(demo=demo_path) for arg in ENTRY_POINTS[entry]], buffered)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("algorithm", ["mtf", "amr"])
def test_unwritable_stdout_leaves_no_output_file(algorithm, demo_path, tmp_path):
    # guard publishes the files only once stdout has been written
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["-m", "listlab.cli", "run", "--workload", demo_path, "--algorithm", algorithm,
            "--trace", "t", "--csv", "c"]
    assert_stdout_is_unwritable(argv, True, out_dir)
    assert list(out_dir.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("stdout", ["pipe", "file"])
def test_gen_writes_its_workload_to_a_stdout_pipe(stdout, tmp_path):
    # -o /dev/stdout names stdout's own file, so the workload goes through
    # stdout ahead of the echo, whether stdout is a pipe or a regular file.
    argv = [sys.executable, *ENTRY_POINTS["gen"], "-o", "/dev/stdout"]
    with open(tmp_path / "f.txt", "w", encoding="utf-8") as f:
        proc = subprocess.run(argv, stdout=subprocess.PIPE if stdout == "pipe" else f,
                              stderr=subprocess.PIPE, text=True, cwd=tmp_path,
                              env=child_env(True), timeout=60)
    written = proc.stdout if stdout == "pipe" else (tmp_path / "f.txt").read_text("utf-8")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert written == ("list: A B C\nbuffer: 3\nrequests: C B A\n"
                       "dist=reverse list-size=3 length=3 seed=0 buffer=3\n"
                       "wrote /dev/stdout\n")


# An input error, and gen's echo, which goes to stderr.
STDERR_WRITERS = {
    "input-error": ["-m", "listlab.cli", "run", "--workload", "missing", "--algorithm", "amr"],
    "gen-echo": ENTRY_POINTS["gen"],
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("entry", sorted(STDERR_WRITERS))
def test_unwritable_stderr_still_exits_two(entry, buffered, tmp_path):
    # The error line cannot be written, so the exit code alone reports it;
    # 1 would mean a paper mismatch and 120 a failed flush at exit.
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, *STDERR_WRITERS[entry]], stdout=subprocess.PIPE,
                              stderr=full, cwd=tmp_path, env=child_env(buffered), timeout=60)
    assert proc.returncode == 2


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
