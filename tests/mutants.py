"""The kill table: one-line mutants of the package that tier-1 must fail.

Each row is (name, file, old text, new text). For each row this script
copies the checkout into a temporary directory, replaces the old text,
which must occur exactly once in the file, with the new one, runs tier-1
with -x against the copy's src/ and prints the mutant's name with
`killed` and the first failing test, or `survived`. Two mutants run at a
time. It exits 1 if a mutant survives or its old text does not occur
exactly once:

    python tests/mutants.py

Pytest does not collect this module. A failing tier-1 would read as a
kill for every mutant, so it first runs tier-1 on an unmutated copy and
exits 1 with one line if that fails.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                              ".bench_work", ".benchmarks", "*.egg-info")
AMR, CLASSIC, CLI, CORE, COSTS, WORKLOADS = (
    f"src/listlab/{m}.py" for m in ("amr", "classic", "cli", "core", "costs", "workloads"))

ROWS = [
    # Each of these puts a step function's position outside 1..l.
    ("static-zero-based", CLASSIC,
     "list(map(pos.__getitem__, requests))", "list(map(workload.list.elements.index, requests))"),
    ("mtf-keeps-old-copy", CLASSIC, "            del ordering[idx]\n", ""),
    ("mtf-stamped-past-back", CLASSIC, "append(l - k)", "append(l - k + 1)"),
    ("transpose-zero-based", CLASSIC, "positions.append(i)", "positions.append(i - 1)"),
    ("fc-zero-based", CLASSIC,
     "rank = group.index(x)\n        positions.append(higher[c] + rank + 1)",
     "rank = group.index(x)\n        positions.append(higher[c] + rank)"),
    ("fc-stamped-past-back", CLASSIC,
     "rank = bisect_left(group, joined[x])\n        positions.append(higher[c] + rank + 1)",
     "rank = bisect_left(group, joined[x])\n        positions.append(higher[c] + rank + 2)"),
    # Comparisons, tie orders, off-by-ones, cost arithmetic, generator
    # constants and exit codes.
    ("step-matches-strict", CORE,
     "k <= pos[requests[j - k - 1]]", "k < pos[requests[j - k - 1]]"),
    ("fc-front-of-group", CLASSIC, "groups[c].append(x)", "groups[c].insert(0, x)"),
    ("mtf-off-by-one", CLASSIC, "positions.append(idx + 1)", "positions.append(idx)"),
    ("center-rounds-down", COSTS, "return (l + 2) // 2", "return (l + 1) // 2"),
    ("pd-exchange-ignores-d", COSTS,
     "return transpositions * model.d if", "return transpositions if"),
    ("zipf-shift-12", WORKLOADS, "map((11).__rrshift__,", "map((12).__rrshift__,"),
    ("reach-guard-strict", AMR, "t <= reach.get(x, 0)", "t < reach.get(x, 0)"),
    ("trace-counts-from-0", CLI, "zip(count(1), steps.workload", "zip(count(0), steps.workload"),
    ("count-loop-keeps-first", AMR,
     "\n                del fresh[: len(fresh) - capacity]", "\n                del fresh[capacity:]"),
    ("partial-off-by-one-past-40", COSTS,
     "return sum(positions) - len(positions)",
     "return sum(positions) - len(positions) - (len(positions) > 40)"),
    ("transpose-moves-from-3", CLASSIC, "1 if i > 1 else 0", "1 if i > 2 else 0"),
    ("below-no-rejection", WORKLOADS,
     "map(n.__rmod__, filter((span - span % n).__gt__, draws))", "map(n.__rmod__, draws)"),
    ("unsupported-exits-2", CLI, "code, message = 3, exc", "code, message = 2, exc"),
    ("scan-floor-4", AMR, "max(16, 8 * len(resident))", "max(4, 8 * len(resident))"),
    ("flags-bisect-left-end", AMR, "bisect_right(at, end, lo)", "bisect_left(at, end, lo)"),
    ("insert-keeps-first", AMR,
     "\n        del fresh[: len(fresh) - capacity]", "\n        del fresh[capacity:]"),
    ("parse-dup-key", CORE, "if key in found:", "if False:"),
    ("mtf-stamped-at-back", CLASSIC, "append(l - k)", "append(l)"),
    # Streamed traces and the commit point of a call's outputs.
    ("trace-held-whole", CLI,
     "write_file(args.trace, trace_lines(steps))", "write_file(args.trace, list(trace_lines(steps)))"),
    ("no-flush-before-publish", CLI,
     "finally:\n            sys.stdout.flush()", "finally:\n            pass"),
]


def first_failure(output: str) -> str:
    """The first FAILED or ERROR line of pytest's summary, or its last line."""
    lines = output.splitlines()
    for line in lines:
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1]
    return lines[-1] if lines else "no output"


def tier1(edit=None) -> tuple[int | None, str]:
    """Tier-1 on a copy of the checkout with edit = (file, old, new) made,
    or on an unmutated copy: (pytest's exit code, its stdout), or (None,
    why) if old does not occur exactly once in file."""
    with tempfile.TemporaryDirectory(prefix="listlab-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        if edit:
            file, old, new = edit
            target = copy / file
            text = target.read_text(encoding="utf-8")
            if (found := text.count(old)) != 1:
                return None, f"old text occurs {found} times in {file}"
            target.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        proc = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def run(row) -> tuple[bool, str]:
    """(passed, verdict) for one mutant; passed means killed."""
    name, *edit = row
    code, out = tier1(edit)
    if code is None:
        return False, f"{name}: {out}"
    if code == 0:
        return False, f"{name}: survived"
    if code not in (1, 2):  # 1 tests failed, 2 collection failed
        return False, f"{name}: pytest exited {code}: {first_failure(out)}"
    return True, f"{name}: killed by {first_failure(out)}"


def main() -> int:
    code, out = tier1()
    if code != 0:
        print(f"unmutated checkout: pytest exited {code}: {first_failure(out)}", flush=True)
        return 1
    ok = True
    with ThreadPoolExecutor(max_workers=2) as pool:
        for passed, verdict in pool.map(run, ROWS):
            print(verdict, flush=True)
            ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
