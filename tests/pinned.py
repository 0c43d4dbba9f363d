"""The pinned CLI bytes: one table of `listlab` calls and the bytes they write.

A row is a chain of calls that share one directory, so that a `gen -o`
file feeds the `run` and `compare` calls after it. Each call names the
outputs it pins, "stdout", "stderr" or a file it writes, and the bytes
expected, as a sha256 hex digest or as the name of a file under
tests/golden/. Every call must exit 0, and a call that does not name its
stderr must write nothing there.

tests/test_golden.py replays every row in process through `cli.main`.
Run as a script, this module replays them as `python -m listlab.cli`
children and exits 1 if any row differs:

    python tests/pinned.py
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DIGEST = re.compile(r"[0-9a-f]{64}")
EVERY_PAIR = "--algorithm static,mtf,transpose,fc,amr --model full,partial,pd:2"

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
    ],
    # l as large as n under skew: nearly every list element is filed in the step table
    "wide-hot": [
        ("gen --dist zipf:1.2 --list-size 10000 --length 10000 --buffer 8 --seed 7 -o w.workload",
         {"w.workload": "68e9bae35275b59617af6ea5771a091c7ecfe1636906d2edc50724eea2a45f98"}),
        ("run --workload w.workload --algorithm amr --trace amr.trace",
         {"amr.trace": "5140c891d0d8b22aa31840ed369a0430461c555a526d0f476d1aa332b6000e0b"}),
        ("compare --workload w.workload --algorithm amr",
         {"stdout": "72466d683ec5f1e4a1784e5feca4e83a6713a16a381656efddbf3dab76d17a47"}),
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
}


def matches(data: bytes, expected: str) -> bool:
    """Whether data is the expected bytes: a sha256 hex digest or a golden file."""
    if DIGEST.fullmatch(expected):
        return hashlib.sha256(data).hexdigest() == expected
    return data == (GOLDEN / expected).read_bytes()


def check(name: str, run, directory: Path) -> None:
    """Replay row `name` with run(argv) -> (exit code, stdout, stderr), the
    calls' files written to `directory`; raise AssertionError at the first
    call that fails or output that differs."""
    for cmd, expected in ROWS[name]:
        code, out, err = run([tok.format(golden=GOLDEN) for tok in cmd.split()])
        if code != 0:
            raise AssertionError(f"{name}: `listlab {cmd}` exited {code}: {err!r}")
        if err and "stderr" not in expected:
            raise AssertionError(f"{name}: `listlab {cmd}` wrote to stderr: {err!r}")
        streams = {"stdout": out, "stderr": err}
        for output, want in expected.items():
            data = streams[output] if output in streams else (directory / output).read_bytes()
            if not matches(data, want):
                raise AssertionError(f"{name}: `listlab {cmd}` {output} is not {want}")


def child(directory: str, argv: list[str]):
    """One `python -m listlab.cli` child in `directory`, run from this checkout's src."""
    proc = subprocess.run([sys.executable, "-m", "listlab.cli", *argv], cwd=directory,
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
