#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json with shortened inputs, both
untraced and traced, and checks that every metric BENCHMARK.json names
is printed with its unit and nothing else is. Then it plants wrong
expected values (a paper total, a pinned digest, a pinned breakdown)
and checks that the output check reports the run as failed, and that
the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import checks
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
W = run.WORKLOADS
TINY = {
    "sweep-l10": replace(W["sweep-l10"], length=40, seeds=1, buffers=(1, 8), cli_length=400),
    "scan-l1000": replace(W["scan-l1000"], length=300, cli_length=200),
}
SECONDS = "0.2"


def bench(name: str, trace: int) -> tuple[int, list[str], dict | None]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run.main(["--workload", name, "--seconds", SECONDS, "--trace", str(trace)],
                        workloads=TINY)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1]) if lines else None


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)
    print(f"ok  {what}")


def test_metrics_named_with_units() -> None:
    expect(sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"]),
           "self-test covers every workload in BENCHMARK.json")
    for name in TINY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = bench(name, trace)
            units = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(code == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{name} trace={trace}: output check passes")
            expect(got == units, f"{name} trace={trace}: exactly the {key} metrics, with units")
            printed = all(any(line.startswith(f"{m} ") and line.endswith(f" {u}") for line in lines)
                          for m, u in units.items())
            expect(printed, f"{name} trace={trace}: every metric printed by name with its unit")
            if trace == 0:
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{name}: every end-to-end metric is above 0")


def test_check_trips_on_wrong_paper_total() -> None:
    expected = checks.PAPER_CHECKS[0][5]
    expected["total"] += 1
    try:
        code, lines, result = bench("sweep-l10", 0)
    finally:
        expected["total"] -= 1
    expect(code == 1 and not result["correct"] and result["failed"] == 1
           and any(line.startswith("FAIL paper lookahead-illustration") for line in lines),
           "output check trips on a wrong paper total")


def test_check_trips_on_wrong_pins() -> None:
    name = "sweep-l10"
    launcher = run.Launcher()
    try:
        _, _, record = run.run(name, TINY[name], run.DEFAULT_SEED, 0.2, False, launcher)
    finally:
        launcher.close()
    real_load = checks.load_pins
    try:
        checks.load_pins = lambda: {name: record}
        code, _, result = bench(name, 0)
        expect(code == 0 and result["correct"], "pins recorded from a run are accepted")
        good = record["files"]["amr.trace"]
        record["files"]["amr.trace"] = "0" * 64
        code, lines, result = bench(name, 0)
        expect(code == 1 and result["failed"] >= 1
               and any("sha256 of amr.trace" in line for line in lines),
               "output check trips on a wrong pinned trace digest")
        record["files"]["amr.trace"] = good
        record["cli"]["fc"]["total"] += 1
        code, lines, result = bench(name, 0)
        expect(code == 1 and result["failed"] == 1
               and any("cli workload breakdowns" in line for line in lines),
               "output check trips on a wrong pinned breakdown")
    finally:
        checks.load_pins = real_load


def test_refuses_without_sources() -> None:
    real_src = run.SRC
    run.SRC = run.HERE / "no-such-src"
    try:
        code, lines, _ = bench("sweep-l10", 0)
    finally:
        run.SRC = real_src
    expect(code != 0 and not lines, "exits non-zero without a result when src/ is missing")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    test_metrics_named_with_units()
    test_check_trips_on_wrong_paper_total()
    test_check_trips_on_wrong_pins()
    test_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
