"""Output checks behind the benchmark's ``correct``/``failed`` fields.

Every expected value here is computed by the benchmark itself from the
cost definitions and the documented file formats, not by calling the
package's own helpers (``rows_to_csv``, ``serialize_workload``,
``builtin_reference_checks``). An operation (one engine run or one CLI
call) counts as failed when any check on its output fails.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FIELDS = ("access", "matching", "replacement", "exchange", "total")
ALGORITHMS = ("amr", "static", "mtf", "transpose", "fc")

NINE = tuple("ABCDEFGHI")
# The paper's worked examples: (name, list, requests, buffer, algorithm,
# expected breakdown). Totals 34, 36 and 121.
PAPER_CHECKS = [
    ("lookahead-illustration", NINE, tuple("IEGDIEDABI"), 3, "amr",
     {"total": 34, "access": 31, "matching": 3, "replacement": 0}),
    ("lookahead-demonstration", NINE, tuple("IEGDIEDBAI"), 3, "amr",
     {"total": 36, "access": 31, "matching": 4, "replacement": 1}),
    ("reverse-order-mtf", tuple("ABCDEFGHIJK"), tuple("KJIHGFEDCBA"), 3, "mtf",
     {"total": 121}),
]

PINS_PATH = Path(__file__).with_name("pins.json")


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def as_dict(b) -> dict[str, int]:
    return {f: getattr(b, f) for f in FIELDS}


def workload_text(elements, requests, buffer: int) -> str:
    """The workload file format as documented, written independently."""
    return f"list: {' '.join(elements)}\nbuffer: {buffer}\nrequests: {' '.join(requests)}\n"


def csv_text(rows) -> str:
    """The CLI's CSV for rows of (algorithm, model, breakdown dict, n, l, buffer)."""
    out = ["algorithm,model,access,matching,replacement,exchange,total,n,l,buffer,seed\n"]
    for alg, model, b, n, l, buffer in rows:
        out.append(
            f"{alg},{model},{b['access']},{b['matching']},{b['replacement']},"
            f"{b['exchange']},{b['total']},{n},{l},{buffer},\n"
        )
    return "".join(out)


class Checker:
    """Counts attempted and failed operations and keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._op_failed = False
        self._op = ""

    def begin(self, op: str) -> None:
        self.attempted += 1
        self._op = op
        self._op_failed = False

    def expect(self, ok: bool, what: str) -> bool:
        if not ok and not self._op_failed:
            self._op_failed = True
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{self._op}: {what}")
        return ok

    def equal(self, actual, expected, what: str) -> bool:
        return self.expect(actual == expected, f"{what}: got {actual!r}, expected {expected!r}")


def check_paper(chk: Checker, mods) -> None:
    for name, elements, requests, buffer, alg, expected in PAPER_CHECKS:
        chk.begin(f"paper {name}")
        w = mods["core"].make_workload(elements, requests, buffer)
        if alg == "amr":
            b, _ = mods["amr"].serve_amr(w)
        else:
            b, _, _ = mods["classic"].run_classic(alg, mods["costs"].FULL, w)
        got = as_dict(b)
        chk.equal({k: got[k] for k in expected}, expected, "breakdown")


def check_engine_run(chk: Checker, alg: str, w, b, events) -> None:
    """Consistency of one in-process engine run, from the cost definitions."""
    requests = w.requests.requests
    n = len(requests)
    chk.equal(b.total, b.access + b.matching + b.replacement + b.exchange, "total vs parts")
    chk.equal(len(events), n, "event count")
    chk.equal(sum(ev.access_cost for ev in events), b.access, "sum of step costs")
    if alg == "amr":
        chk.equal(sum(len(ev.matched) for ev in events), b.matching, "matching vs matches")
        chk.equal(sum(len(ev.evicted) for ev in events), b.replacement, "replacement vs evictions")
        chk.equal(b.exchange, 0, "amr exchange")
        return
    chk.equal((b.matching, b.replacement, b.exchange), (0, 0, 0), "classic under full")
    if alg == "static":
        pos = {e: i for i, e in enumerate(w.list.elements, start=1)}
        chk.equal(b.access, sum(pos[x] for x in requests), "static total vs sum of positions")


def check_mtf_bound(chk: Checker, refs: dict[str, dict], n: int) -> None:
    """Sleator-Tarjan: C_MTF <= 2 C_static - n under the full model."""
    chk.expect(
        refs["mtf"]["total"] <= 2 * refs["static"]["total"] - n,
        f"mtf total {refs['mtf']['total']} above 2*static-n",
    )


def check_trace(chk: Checker, text: str, requests, access: int) -> None:
    """One line per request, in order, whose costs add up to the access cost."""
    lines = text.split("\n")
    chk.equal(lines[-1], "", "trace ends with a newline")
    lines = lines[:-1]
    if not chk.equal(len(lines), len(requests), "trace line count"):
        return
    total = 0
    for t, (line, x) in enumerate(zip(lines, requests), start=1):
        fields = line.split(" ")
        if not chk.expect(
            fields[0] == f"t={t}" and fields[1] == f"element={x}" and fields[4].startswith("cost="),
            f"trace line {t}: {line[:80]!r}",
        ):
            return
        total += int(fields[4][5:])
    chk.equal(total, access, "sum of trace costs")


def run_stdout(alg: str, model: str, b: dict, n: int, l: int, buffer: int) -> str:
    return (
        f"algorithm={alg} model={model} n={n} l={l} buffer={buffer}\n"
        f"access={b['access']} matching={b['matching']} replacement={b['replacement']} "
        f"exchange={b['exchange']} total={b['total']}\n"
    )
