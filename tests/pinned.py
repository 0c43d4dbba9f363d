"""The pinned CLI bytes: one table of calls and the bytes they write.

A row is a chain of calls that share one directory, so that a `gen -o`
file feeds the `run` and `compare` calls after it. A call is a `listlab`
argv, split as a shell would split it, or, when its first word ends in
.py, a script under scripts/ and its argv. `{golden}` in an argv stands
for the tests/golden/ directory. Each call names the outputs it pins,
"stdout", "stderr" or a file it writes, and the bytes expected: a sha256
hex digest, the name of a file under tests/golden/, or, when the value
ends in a newline, the bytes themselves, with `{golden}` formatted as in
the argv. A call that does not name its stderr must write nothing there.

A call exits 0 unless it names another "exit" code. A failing call must
also write nothing to an unnamed stdout and must leave every file in the
row's directory as it was, so a failure row is a call with its exit code
and its error line; `fails(cmd, message)` builds one:

    "run-missing-file": [fails("run --workload nope --algorithm amr",
                               "cannot read nope: [Errno 2] No such file or directory: 'nope'")],

The unchanged-directory rule also holds for a call whose stdout cannot be
written: cli.guard publishes a call's files only after its stdout. Rows
capture stdout, so they cannot fail it; tests/test_cli.py checks that case
with children whose stdout is /dev/full.

Usage errors, whose text argparse words differently from one Python
version to the next, are not rows.

tests/test_golden.py replays every row in process, through `cli.main`
or a script's `main` under `cli.guard`. Run as a script, this module
replays them as `python -m listlab.cli` and `python scripts/...` children
and exits 1 if any row differs:

    python tests/pinned.py
"""

import hashlib
import importlib.util
import io
import os
import re
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache, partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCRIPTS = ROOT / "scripts"
DIGEST = re.compile(r"[0-9a-f]{64}")
EVERY_PAIR = "--algorithm static,mtf,transpose,fc,amr --model full,partial,pd:2"
DEMO = "{golden}/demonstration.workload"
GEN = "gen --dist uniform --list-size 4 --length 8"
MTF_AMR = ("algorithm,model,access,matching,replacement,exchange,total,n,l,buffer,seed\n"
           "amr,amr,31,4,1,0,36,10,9,3,\nmtf,full,58,0,0,0,58,10,9,3,\n")
NEGATIVE = "{golden}/negative-buffer.workload: invalid workload: negative buffer capacity -1"
NO_DIR = "cannot write missing/out: [Errno 2] No such file or directory: 'missing/out'"
SHORT = "gen --dist uniform --list-size 3 --length 2 --buffer 1 -o s.workload"  # n=2 < l=3
NOT_UTF8 = ("cannot read {golden}/latin1.workload:"
            " 'utf-8' codec can't decode byte 0xc4 in position 6: invalid continuation byte")


def fails(cmd: str, message: str, code: int = 2, **outputs: str):
    """A call that exits `code` with the one stderr line `error: message`."""
    return cmd, {"exit": code, "stderr": f"error: {message}\n", **outputs}


ROWS = {
    # totals 34 and 36: the two look-ahead worked traces
    "run-amr-illustration": [
        ("run --workload {golden}/illustration.workload --algorithm amr"
         " --trace out.trace --csv out.csv",
         {"stdout": "run-amr-illustration.stdout", "out.trace": "run-amr-illustration.trace",
          "out.csv": "run-amr-illustration.csv"}),
    ],
    "run-amr-demonstration": [
        ("run --workload {golden}/demonstration.workload --algorithm amr"
         " --trace out.trace --csv out.csv",
         {"stdout": "run-amr-demonstration.stdout", "out.trace": "run-amr-demonstration.trace",
          "out.csv": "run-amr-demonstration.csv"}),
    ],
    # total 121: move-to-front on the reversed list
    "run-mtf-full-reverse-eleven": [
        ("run --workload {golden}/reverse-eleven.workload --algorithm mtf --model full"
         " --trace out.trace",
         {"stdout": "run-mtf-full-reverse-eleven.stdout",
          "out.trace": "run-mtf-full-reverse-eleven.trace"}),
    ],
    # centralized on an odd list length, every position accessed once
    "run-static-centralized-reverse-eleven": [
        ("run --workload {golden}/reverse-eleven.workload --algorithm static --model centralized"
         " --trace out.trace",
         {"stdout": "algorithm=static model=centralized n=11 l=11 buffer=3\n"
                    "access=30 matching=0 replacement=0 exchange=0 total=30\n",
          "out.trace": "924168557c6906acfe1c081d3f2134bc2a15ec761a793b14f5b8254293af7582"}),
    ],
    # exchange 20: run's stdout and CSV with a nonzero exchange
    "run-transpose-pd2-demonstration": [
        ("run --workload {golden}/demonstration.workload --algorithm transpose --model pd:2"
         " --csv out.csv",
         {"stdout": "run-transpose-pd2-demonstration.stdout",
          "out.csv": "run-transpose-pd2-demonstration.csv"}),
    ],
    "compare-demonstration": [
        ("compare --workload {golden}/demonstration.workload"
         " --algorithm static,mtf,transpose,fc,amr --model full,partial,pd:2,centralized",
         {"stdout": "compare-demonstration.stdout", "stderr": "compare-demonstration.stderr"}),
    ],
    # all three totals, checked against the built-in table
    "paper-examples": [
        ("paper-examples", {"stdout": "paper-examples.stdout"}),
    ],
    # l=10000, wider than any benchmark workload
    "wide": [
        ("gen --dist uniform --list-size 10000 --length 20000 --seed 7 -o w.workload", {}),
        # each classical algorithm is served once and repriced under every model
        (f"compare --workload w.workload {EVERY_PAIR}",
         {"stdout": "74845b538a93b29e60e77c97703f59872ca9df6fb5ed62c0c1ae61f3d9a52dd0"}),
        # centralized, the one access cost not affine in the position, on an even list length
        ("compare --workload w.workload --algorithm static --model centralized",
         {"stdout": "af0bc290cf89d467fa661c2306843d61f95ea5d6b27de772a54f10d97c2dbd0b"}),
        # set_flags bisects its residents' occurrence lists on l=10000 windows
        ("run --workload w.workload --algorithm amr --trace amr.trace",
         {"amr.trace": "e953ce68bd8306fdcf62b210da473d529b0c33af7de813d4b8d359cd9b105137"}),
        ("run --workload w.workload --algorithm mtf --model pd:2 --trace mtf.trace",
         {"mtf.trace": "957d9b097e6060f193c0d3319812e1d921a1a4296e3bbebc820eac890306daf9"}),
        # the other classical traces: centralized on an even list length,
        # transpose under partial, and fc's stamps beyond FC_SCAN_MAX
        ("run --workload w.workload --algorithm static --model centralized --trace static.trace",
         {"static.trace": "6d378d998c939c1c97c962a146633dfb5415c64cd592daae00ed1402c697aace"}),
        ("run --workload w.workload --algorithm transpose --model partial --trace transpose.trace",
         {"transpose.trace": "033bffcdb39ff18c489ab33b3a297a80490466159662ff1b9891747f943fac32"}),
        ("run --workload w.workload --algorithm fc --model pd:2 --trace fc.trace",
         {"fc.trace": "a25ed3ea874a58fba6079aea8637df50a0d68605a1146320a7839bde0f44186a"}),
    ],
    # l as large as n under skew: nearly every list element is filed in the step table
    "wide-hot": [
        ("gen --dist zipf:1.2 --list-size 10000 --length 10000 --buffer 8 --seed 7 -o w.workload",
         {"w.workload": "68e9bae35275b59617af6ea5771a091c7ecfe1636906d2edc50724eea2a45f98"}),
        ("run --workload w.workload --algorithm amr --trace amr.trace",
         {"amr.trace": "5140c891d0d8b22aa31840ed369a0430461c555a526d0f476d1aa332b6000e0b"}),
        ("compare --workload w.workload --algorithm amr",
         {"stdout": "72466d683ec5f1e4a1784e5feca4e83a6713a16a381656efddbf3dab76d17a47"}),
        # mtf's stamps beyond SCAN_MAX, on requests that revisit the front
        ("run --workload w.workload --algorithm mtf --model full --trace mtf.trace",
         {"mtf.trace": "b6eda02bb078a7a3a13a2017ce7258e4833b504a96394aab1c39936d1448e911"}),
    ],
    # amr at l=1000 where set_flags' scan rule decides (buffer 1000) and with
    # hot residents; both traces take both of set_flags' rules. The traces come
    # from the steps and the compare rows from the count path.
    "amr-full": [
        ("gen --dist uniform --list-size 1000 --length 5000 --buffer 1000 --seed 7 -o w.workload",
         {}),
        ("run --workload w.workload --algorithm amr --trace amr.trace",
         {"amr.trace": "5b53ebfa8018613b768ab1579894086a5bd548e5dbfa7feeeb3ed75c3ab3be18"}),
        ("compare --workload w.workload --algorithm amr",
         {"stdout": "b5c902417024541ee1d5ac87e1bf54afac4b8fbafee6db096398477b5641a615"}),
    ],
    "amr-hot": [
        ("gen --dist zipf:1.2 --list-size 1000 --length 20000 --buffer 8 --seed 7 -o w.workload",
         {}),
        ("run --workload w.workload --algorithm amr --trace amr.trace",
         {"amr.trace": "f6cb81d346dd69e25a21a4cfe0441af80b166d6c2cdccde735d3c1a1cf4f7cd7"}),
        ("compare --workload w.workload --algorithm amr",
         {"stdout": "8283624033b88468694a5fdaaae793e2661ad5e3a51a5f47170fb80f88522b2b"}),
    ],
    # l=24, wider than set_flags' sixteen scanned positions: the count path and
    # the steps read each list access's matches from the step table
    "mid": [
        ("gen --dist uniform --list-size 24 --length 20000 --buffer 3 --seed 7 -o w.workload",
         {"w.workload": "1ddd69f569485100a9d0e2f031db049284cba8b4a54dfc0c6afc1634f37c7d81"}),
        ("run --workload w.workload --algorithm amr --trace amr.trace",
         {"amr.trace": "0496d8bab2fb4551d1cc661870b40de487141a0cca6a3ac85b6342904e060bf6"}),
        (f"compare --workload w.workload {EVERY_PAIR}",
         {"stdout": "0a2fe735c1044d09738d25802e7e15aefd5b6a49171ab6a5490432a0a7542951"}),
        # fc's group scan, at most FC_SCAN_MAX elements
        ("run --workload w.workload --algorithm fc --model pd:2 --trace fc.trace",
         {"fc.trace": "30998c07e2a2ff3412e2824cd0a4ff8765deed64b1822d9a54ece1b874e638c9"}),
    ],
    # l=10 with a one-slot buffer, so most requests are list accesses that read
    # the step table; every flag window is scanned
    "short": [
        ("gen --dist uniform --list-size 10 --length 20000 --buffer 1 --seed 7 -o w.workload",
         {"w.workload": "50f094df97a404cc7208c2d66d04f0ab6f85b98500eb37c403c463c4675a77e7"}),
        ("run --workload w.workload --algorithm amr --trace amr.trace",
         {"amr.trace": "a59b93c2832f6f7f664e582bdb60704cb0632ecd5af684fdc908cc7ba42d4919"}),
        (f"compare --workload w.workload {EVERY_PAIR}",
         {"stdout": "d16ed3b58f2d02924cbcca177d41da5e655fba6d8437adb6146825f1cc7a469b"}),
    ],
    # long generated files, pinned to the bytes of the per-draw generator
    "gen-zipf1.2-l10": [
        ("gen --dist zipf:1.2 --list-size 10 --length 200000 --buffer 8 --seed 7 -o w.workload",
         {"w.workload": "f41e6575cfd1526feb2f6ebaad312113d5dec1cc420c8a1da3f3aa432e337539"}),
    ],
    "gen-uniform-l1000": [
        ("gen --dist uniform --list-size 1000 --length 200000 --buffer 8 --seed 7 -o w.workload",
         {"w.workload": "a72140a3f02b43b1a632428a1b979ccc1d93edaea591b0f78ed58a4e623af202"}),
    ],
    "gen-burst4-l10000": [
        ("gen --dist burst:4 --list-size 10000 --length 200000 --buffer 3 --seed 7 -o w.workload",
         {"w.workload": "bb4a3ac55ab231adfe68feced7608364b994086e134c0ee5359d9d91d2293286"}),
    ],
    # the largest seed, 2**64 - 1
    "gen-zipf0.8-l10000": [
        ("gen --dist zipf:0.8 --list-size 10000 --length 100000 --buffer 3"
         " --seed 18446744073709551615 -o w.workload",
         {"w.workload": "ac3c28066249a8d125af33eb13ec303860ccb90c710a57cd5068a6e726ee4d24"}),
    ],
    # compare's stdout is the CSV table it writes, with the same bytes
    "compare-mtf-amr": [
        (f"compare --workload {DEMO} --algorithm mtf,amr --model full --csv cmp.csv",
         {"stdout": MTF_AMR, "cmp.csv": MTF_AMR}),
    ],
    # amr runs once, whatever the model list
    "compare-amr-two-models": [(f"compare --workload {DEMO} --algorithm amr --model full,partial",
                                {"stdout": "run-amr-demonstration.csv"})],
    "compare-reverse-eleven": [
        ("gen --dist reverse --list-size 11 -o rev.workload",
         {"stdout": "dist=reverse list-size=11 length=11 seed=0 buffer=3\nwrote rev.workload\n",
          "rev.workload": "reverse-eleven.workload"}),
        ("compare --workload rev.workload --algorithm mtf --model full",
         {"stdout": "algorithm,model,access,matching,replacement,exchange,total,n,l,buffer,seed\n"
                    "mtf,full,121,0,0,0,121,11,11,3,\n"}),
    ],
    "gen-buffer-9": [("gen --dist reverse --list-size 3 --buffer 9 -o b.workload",
                      {"b.workload": "list: A B C\nbuffer: 9\nrequests: C B A\n"})],
    # without -o, gen writes the workload to stdout and its echo to stderr
    "gen-stdout": [("gen --dist reverse --list-size 3",
                    {"stdout": "list: A B C\nbuffer: 3\nrequests: C B A\n",
                     "stderr": "dist=reverse list-size=3 length=3 seed=0 buffer=3\n"})],
    # a sequence shorter than its list is legal, with a warning
    "run-short-sequence": [
        ("gen --dist uniform --list-size 3 --length 2 --buffer 1 -o s.workload", {}),
        ("run --workload s.workload --algorithm static",
         {"stdout": "algorithm=static model=full n=2 l=3 buffer=1\n"
                    "access=3 matching=0 replacement=0 exchange=0 total=3\n",
          "stderr": "warning: request sequence shorter than list (n=2 < l=3)\n"}),
    ],
    # a failing call drops its warning and skip notes: its error line is all it writes
    "run-short-mtf-centralized": [
        (SHORT, {}),
        fails("run --workload s.workload --algorithm mtf --model centralized",
              "only the static algorithm is defined under the centralized model", 3),
    ],
    "compare-short-csv-no-dir": [
        (SHORT, {}),
        fails("compare --workload s.workload --algorithm static,mtf --model centralized,full"
              " --csv missing/out", NO_DIR),
    ],
    # unsupported pairs exit 3
    "run-mtf-centralized": [fails(f"run --workload {DEMO} --algorithm mtf --model centralized",
                                  "only the static algorithm is defined under the centralized"
                                  " model", 3)],
    "run-amr-with-model": [fails(f"run --workload {DEMO} --algorithm amr --model full",
                                 "the amr engine carries its own cost model; drop --model", 3)],
    # input errors exit 2: a workload file that cannot be read or breaks a rule
    "run-missing-file": [fails("run --workload nope --algorithm amr",
                               "cannot read nope: [Errno 2] No such file or directory: 'nope'")],
    "run-missing-buffer-line": [
        fails("run --workload {golden}/missing-buffer.workload --algorithm amr",
              "{golden}/missing-buffer.workload: line 0: missing 'buffer:' line")],
    "run-duplicate-element": [
        fails("run --workload {golden}/duplicate.workload --algorithm mtf",
              "{golden}/duplicate.workload: invalid workload:"
              " duplicate element A (list positions 1 and 2)")],
    # the buffer line parses as an integer; the workload rules reject it
    "run-negative-buffer": [
        fails("run --workload {golden}/negative-buffer.workload --algorithm amr", NEGATIVE)],
    "compare-negative-buffer": [
        fails("compare --workload {golden}/negative-buffer.workload --algorithm amr", NEGATIVE)],
    "run-not-utf8": [fails("run --workload {golden}/latin1.workload --algorithm amr", NOT_UTF8)],
    "compare-not-utf8": [
        fails("compare --workload {golden}/latin1.workload --algorithm mtf", NOT_UTF8)],
    # bad tokens, rejected before the workload is read
    "compare-empty-algorithm": [fails(f"compare --workload {DEMO} --algorithm ''",
                                      "--algorithm '' names no token")],
    "compare-empty-model": [fails(f"compare --workload {DEMO} --algorithm static --model ''",
                                  "--model '' names no token")],
    "compare-comma-algorithm": [fails(f"compare --workload {DEMO} --algorithm ,",
                                      "--algorithm ',' names no token")],
    "compare-comma-model": [fails(f"compare --workload {DEMO} --algorithm static --model ,",
                                  "--model ',' names no token")],
    "compare-unknown-algorithm": [fails(f"compare --workload {DEMO} --algorithm opt",
                                        "unknown algorithm token 'opt'")],
    "compare-unknown-model": [fails(f"compare --workload {DEMO} --algorithm mtf --model bogus",
                                    "unknown cost model kind 'bogus'")],
    "run-amr-bad-model": [fails(f"run --workload {DEMO} --algorithm amr --model bogus",
                                "unknown cost model kind 'bogus'")],
    "compare-amr-bad-model": [fails(f"compare --workload {DEMO} --algorithm amr --model bogus",
                                    "unknown cost model kind 'bogus'")],
    # gen's spec and buffer rules, checked before any request is drawn
    "gen-zipf-zero-skew": [fails("gen --dist zipf:0 --list-size 5 --length 10",
                                 "zipf needs a finite skew > 0, got 0.0")],
    "gen-zipf-infinite-skew": [fails("gen --dist zipf:inf --list-size 5 --length 10",
                                     "zipf needs a finite skew > 0, got inf")],
    "gen-negative-buffer": [fails(f"{GEN} --buffer -2 -o w.workload",
                                  "negative buffer capacity -2")],
    "gen-negative-seed": [fails(f"{GEN} --seed -1 -o w.workload",
                                "seed must be in 0..18446744073709551615, got -1")],
    "gen-seed-2**64": [fails(f"{GEN} --seed 18446744073709551616 -o w.workload",
                             "seed must be in 0..18446744073709551615, got 18446744073709551616")],
    # an output path that cannot be written; the call writes no other file
    # and nothing to stdout
    "run-trace-no-dir": [fails(f"run --workload {DEMO} --algorithm amr --trace missing/out",
                               NO_DIR)],
    "run-csv-no-dir": [fails(f"run --workload {DEMO} --algorithm amr --csv missing/out", NO_DIR)],
    "run-trace-then-csv-no-dir": [
        fails(f"run --workload {DEMO} --algorithm amr --trace t --csv missing/out", NO_DIR)],
    # a directory is opened as itself, so it fails before the run is written anywhere
    "run-trace-is-a-directory": [fails(f"run --workload {DEMO} --algorithm mtf --trace .",
                                       "cannot write .: [Errno 21] Is a directory: '.'")],
    "compare-csv-no-dir": [fails(f"compare --workload {DEMO} --algorithm amr --csv missing/out",
                                 NO_DIR)],
    "gen-o-no-dir": [fails("gen --dist reverse --list-size 3 -o missing/out", NO_DIR)],
    # an output that names the workload or the other output, refused before any write
    "run-trace-is-workload": [
        ("gen --dist reverse --list-size 3 -o w.workload", {}),
        fails("run --workload w.workload --algorithm amr --trace w.workload",
              "--trace w.workload names the same file as --workload"),
    ],
    "run-csv-is-workload": [
        ("gen --dist reverse --list-size 3 -o w.workload", {}),
        fails("run --workload w.workload --algorithm amr --csv ./w.workload",
              "--csv ./w.workload names the same file as --workload"),
    ],
    "compare-csv-is-workload": [
        ("gen --dist reverse --list-size 3 -o w.workload", {}),
        fails("compare --workload w.workload --algorithm mtf --csv w.workload",
              "--csv w.workload names the same file as --workload"),
    ],
    "run-trace-is-csv": [fails(f"run --workload {DEMO} --algorithm amr --trace t --csv t",
                               "--csv t names the same file as --trace")],
    # an empty path, refused before the workload is read
    "run-empty-trace": [fails(f"run --workload {DEMO} --algorithm amr --trace ''",
                              "--trace names no file")],
    "run-empty-csv": [fails(f"run --workload {DEMO} --algorithm amr --csv ''",
                            "--csv names no file")],
    "compare-empty-csv": [fails(f"compare --workload {DEMO} --algorithm mtf --csv ''",
                                "--csv names no file")],
    "run-empty-workload": [fails("run --workload '' --algorithm amr", "--workload names no file")],
    "gen-empty-o": [fails("gen --dist reverse --list-size 3 -o ''", "--output names no file")],
    # the scripts
    "sweep-compare": [("sweep_compare.py --seeds 2 --buffers 1,3",
                       {"stdout": "sweep-compare.stdout"})],
    "buffer-sensitivity": [("buffer_sensitivity.py", {"stdout": "buffer-sensitivity.stdout"})],
    "sweep-bad-buffer": [fails("sweep_compare.py --buffers a",
                               "invalid literal for int() with base 10: 'a'")],
    # the Workload rule's message, as `listlab gen --buffer -1` prints it
    "sweep-negative-buffer": [fails("sweep_compare.py --buffers -1",
                                    "negative buffer capacity -1")],
    "sweep-list-size": [fails("sweep_compare.py --list-size 0", "list size must be >= 1, got 0")],
    "sweep-list-size-no-seeds": [fails("sweep_compare.py --list-size 0 --seeds 0",
                                       "list size must be >= 1, got 0")],
    "sweep-no-seeds": [fails("sweep_compare.py --seeds 0", "--seeds must be >= 1, got 0")],
    "sweep-no-dists": [fails("sweep_compare.py --dists ''", "--dists '' names no token")],
    "sweep-no-buffers": [fails("sweep_compare.py --buffers ''", "--buffers '' names no token")],
    "sweep-o-no-dir": [fails("sweep_compare.py --seeds 1 -o missing/out", NO_DIR)],
    "sweep-empty-o": [fails("sweep_compare.py --seeds 1 -o ''", "--output names no file")],
    "sensitivity-dist": [fails("buffer_sensitivity.py --dist bogus",
                               "unknown distribution 'bogus'")],
    "sensitivity-negative-max-buffer": [fails("buffer_sensitivity.py --max-buffer -1",
                                              "--max-buffer must be >= 0, got -1")],
}


def matches(data: bytes, expected: str) -> bool:
    """Whether data is the expected bytes: literal text ending in a newline,
    a sha256 hex digest or a golden file."""
    if expected.endswith("\n"):
        return data == expected.format(golden=GOLDEN).encode()
    if DIGEST.fullmatch(expected):
        return hashlib.sha256(data).hexdigest() == expected
    return data == (GOLDEN / expected).read_bytes()


def files(directory: Path) -> dict:
    """Every path under directory, with a file's bytes."""
    return {p: p.read_bytes() if p.is_file() else None for p in directory.rglob("*")}


def check(name: str, run, directory: Path) -> None:
    """Replay row `name` with run(argv) -> (exit code, stdout, stderr), the
    calls' files written to `directory`; raise AssertionError at the first
    call that fails or output that differs."""
    for cmd, expected in ROWS[name]:
        def fail(what):
            raise AssertionError(f"{name}: `{cmd}` {what}")

        code = expected.get("exit", 0)
        before = files(directory) if code else None
        got, out, err = run([tok.format(golden=GOLDEN) for tok in shlex.split(cmd)])
        # a stray write is the worst fault a failure row can show, so it is named first
        if code and files(directory) != before:
            fail(f"exited {got} and created or changed a file in its directory")
        if got != code:
            fail(f"exited {got}, not {code}: {err!r}")
        streams = {"stdout": out, "stderr": err}
        quiet = ("stdout", "stderr") if code else ("stderr",)  # empty unless pinned
        for stream in quiet:
            if streams[stream] and stream not in expected:
                fail(f"wrote to {stream}: {streams[stream]!r}")
        for output, want in expected.items():
            if output == "exit":
                continue
            data = streams[output] if output in streams else (directory / output).read_bytes()
            if not matches(data, want):
                fail(f"{output} is not {want!r}: {data[:200]!r}")


@cache
def script(name: str):
    """The module of scripts/<name>, loaded once."""
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def in_process(argv: list[str]):
    """One call in this process: a script's main under cli.guard, or cli.main.
    An argparse exit returns its code."""
    from listlab.cli import guard, main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if argv[0].endswith(".py"):
                code = guard(script(argv[0]).main, argv[1:])
            else:
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def child(directory: str, argv: list[str]):
    """One child in `directory`, run from this checkout's src: a script, or
    `python -m listlab.cli`."""
    program = [str(SCRIPTS / argv.pop(0))] if argv[0].endswith(".py") else ["-m", "listlab.cli"]
    proc = subprocess.run([sys.executable, *program, *argv], cwd=directory,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    failed = 0
    for name in ROWS:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                check(name, partial(child, tmp), Path(tmp))
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {exc}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
