"""Command-line harness: run, compare, gen, paper-examples.

Exit codes: 0 success, 1 a paper-examples mismatch, 2 input error or a
stdout that cannot be written, 3 unsupported algorithm/model pair; guard maps
each error to its code, and publishes the files write_file stages and the
stderr lines note holds only once the command has returned and its stdout is
written. Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import os
import sys
from collections import namedtuple
from itertools import count

from .amr import serve_amr
from .classic import CLASSIC_ALGORITHMS, ClassicSteps, reprice, run_classic
# Workload checks itself, so validate_workload is not called here; the
# import stays because perfbench/tracer.py wraps cli.validate_workload.
from .core import (
    InvalidWorkload,
    ParseError,
    Workload,
    make_workload,
    parse_workload,
    serialize_workload,
    validate_workload,
)
from .costs import FULL, CostModel, InvalidModel, Unsupported, model_token, parse_model_token
from .workloads import InvalidSpec, generate, spec_from_dist_token

ALGORITHM_TOKENS = CLASSIC_ALGORITHMS + ("amr",)


class CliError(Exception):
    """An input error; guard prints it as one error: line and exits 2."""


ComparisonRow = namedtuple("ComparisonRow", "algorithm model access matching replacement "
                           "exchange total n l buffer seed", defaults=(None,))
ComparisonRow.__doc__ = "One CSV record; the field names are the CSV header."


CSV_HEADER = ComparisonRow._fields


def rows_to_csv(rows: list[ComparisonRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    # csv writes None, the seed of a file-loaded workload, as an empty field.
    writer.writerows(rows)
    return out.getvalue()


def _pairs(pairs) -> str:
    if not pairs:  # most steps: every classical one and every buffer hit
        return ""
    return ";".join([f"{a}:{b}" for a, b in pairs])


def format_trace_line(ev) -> str:
    """A StepEvent without its transpositions, as key=value fields."""
    t, element, source, position, cost, matched, inserted, evicted, flags, _ = ev
    return (
        f"t={t} element={element} source={source} position={position} cost={cost} "
        f"matched={_pairs(matched)} inserted={_pairs(inserted)} evicted={_pairs(evicted)} "
        f"flags_added={';'.join(map(str, flags)) if flags else ''}"
    )


# A classical step leaves every amr field empty, so its trace line is this
# template filled from the run's columns: t, element, position and cost.
CLASSIC_LINE = ("t=%s element=%s source=list position=%s cost=%s"
                " matched= inserted= evicted= flags_added=\n")


def trace_lines(steps):
    """A run's trace, one line per request. A classical run's lines come
    straight from its columns, without a StepEvent or a call per line."""
    if isinstance(steps, ClassicSteps):
        return map(CLASSIC_LINE.__mod__, zip(count(1), steps.workload.requests.requests,
                                             steps.positions, steps.costs()))
    return (format_trace_line(ev) + "\n" for ev in steps)


# Staged (path, temporary file, target) and notes; guard clears both after every call.
_staged: list[tuple[str, str, str]] = []
_notes: list[str] = []


def _names_stdout(path: str) -> bool:
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:  # no such path, or no stdout
        return False


def write_file(path: str, chunks) -> None:
    """Stream text chunks to a hidden file beside path, which guard moves
    onto path once the call has succeeded; what open(path, "w") refuses is
    an input error naming path. A symlink is written through, and a
    directory, or a device or pipe such as /dev/null, is opened as path
    itself. A path that names stdout's own file, such as /dev/stdout, is
    written through stdout's open file, after what stdout already holds."""
    try:
        if _names_stdout(path):
            sys.stdout.flush()
            out = open(os.dup(1), "w", encoding="utf-8")  # shares stdout's offset
        elif path.endswith(os.sep) or os.path.exists(path) and not os.path.isfile(path):
            out = open(path, "w", encoding="utf-8")
        elif os.path.exists(path) and not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        else:
            target = os.path.realpath(path)  # a short temporary name fits wherever path's does
            temp = os.path.join(os.path.dirname(target), f".listlab-{os.getpid()}-{len(_staged)}")
            out = open(temp, "x", encoding="utf-8")
            _staged.append((path, temp, target))
        with out:
            out.writelines(chunks)
    except OSError as exc:
        if exc.filename is not None:  # path, not the temporary file
            exc = OSError(exc.errno, exc.strerror, path)
        raise CliError(f"cannot write {path}: {exc}") from None


def note(text: str) -> None:
    """A stderr line that guard prints once the call has succeeded."""
    _notes.append(text)


def distinct_paths(**paths: str | None) -> None:
    """Reject an empty path, and an output path that names the workload
    or another output; None means the flag was not given."""
    seen: dict[str, str] = {}
    for flag, path in paths.items():
        if path is None:
            continue
        if not path:
            raise CliError(f"--{flag} names no file")
        key = os.path.realpath(path)
        if key in seen:
            raise CliError(f"--{flag} {path} names the same file as {seen[key]}")
        seen[key] = f"--{flag}"


def _load_workload(path: str) -> Workload:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    try:
        w = parse_workload(text)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from None
    except InvalidWorkload as exc:
        raise CliError(f"{path}: invalid workload: {exc}") from None
    n, l = w.requests.n, w.list.l
    if n < l:  # legal for every engine, so only warned about
        note(f"warning: request sequence shorter than list (n={n} < l={l})")
    return w


def run_pair(algorithm: str, model: CostModel | None, w: Workload, steps=None):
    """Run one (algorithm, model) pair; returns (ComparisonRow, steps).

    A model of None means the amr engine's own accounting, reported as
    model "amr", or the full model for a classical algorithm. The row's
    seed is None, and the steps build their events only when iterated.
    `steps` may pass in the steps of an earlier call with the same
    classical algorithm on w; that run is then repriced under the model
    instead of served again. Raises Unsupported for a pair that is not
    defined, such as amr with a model.
    """
    if algorithm == "amr":
        if model is not None:
            raise Unsupported("the amr engine carries its own cost model; drop --model")
        mtok = "amr"
        b, steps = serve_amr(w)
    else:
        model = FULL if model is None else model
        mtok = model_token(model)
        if steps is None:
            b, steps, _ = run_classic(algorithm, model, w)
        else:
            b, steps = reprice(model, steps)
    return ComparisonRow(algorithm, mtok, b.access, b.matching, b.replacement, b.exchange,
                         b.total, w.requests.n, w.list.l, w.buffer_capacity), steps


def cmd_run(args) -> int:
    distinct_paths(workload=args.workload, trace=args.trace, csv=args.csv)
    model = None if args.model is None else parse_model_token(args.model)
    row, steps = run_pair(args.algorithm, model, _load_workload(args.workload))
    if args.trace:
        write_file(args.trace, trace_lines(steps))  # streamed, one line at a time
    if args.csv:
        write_file(args.csv, [rows_to_csv([row])])
    print(f"algorithm={row.algorithm} model={row.model} n={row.n} l={row.l} buffer={row.buffer}")
    print(
        f"access={row.access} matching={row.matching} replacement={row.replacement} "
        f"exchange={row.exchange} total={row.total}"
    )
    return 0


def split_tokens(raw: str, what: str) -> list[str]:
    """Comma-separated tokens; a value that names none, "" or ",", is an error."""
    tokens = [tok for tok in raw.split(",") if tok]
    if not tokens:
        raise CliError(f"--{what} {raw!r} names no token")
    return tokens


def cmd_compare(args) -> int:
    distinct_paths(workload=args.workload, csv=args.csv)
    algorithms = split_tokens(args.algorithm, "algorithm")
    for a in algorithms:
        if a not in ALGORITHM_TOKENS:
            raise CliError(f"unknown algorithm token {a!r}")
    models = [parse_model_token(tok) for tok in split_tokens(args.model, "model")]
    w = _load_workload(args.workload)
    rows = []
    for a in algorithms:
        # amr ignores the model list and runs once; a classical algorithm
        # serves the requests once and is repriced under the other models.
        steps = None
        for model in [None] if a == "amr" else models:
            try:
                row, steps = run_pair(a, model, w, steps)
                rows.append(row)
            except Unsupported as exc:
                note(f"skip {a} under {model_token(model)}: {exc}")
    rows.sort(key=lambda r: (r.algorithm, r.model))
    text = rows_to_csv(rows)
    if args.csv:
        write_file(args.csv, [text])
    sys.stdout.write(text)
    return 0


def cmd_gen(args) -> int:
    distinct_paths(output=args.output)
    spec = spec_from_dist_token(
        args.dist, list_size=args.list_size, length=args.length, seed=args.seed
    )
    w = generate(spec, buffer_capacity=args.buffer)
    text = serialize_workload(w)
    echo = (
        f"dist={args.dist} list-size={spec.list_size} length={w.requests.n} "
        f"seed={spec.seed} buffer={w.buffer_capacity}"
    )
    if args.output:
        write_file(args.output, [text])
        print(echo)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
        note(echo)
    return 0


# The paper's worked examples: name, workload, algorithm (a classical
# one runs under the full model) and the breakdown fields it must match.
PAPER_EXAMPLES = (
    ("lookahead-illustration", make_workload("ABCDEFGHI", "IEGDIEDABI", 3), "amr",
     {"total": 34, "access": 31, "matching": 3, "replacement": 0}),
    ("lookahead-demonstration", make_workload("ABCDEFGHI", "IEGDIEDBAI", 3), "amr",
     {"total": 36, "access": 31, "matching": 4, "replacement": 1}),
    ("reverse-order-mtf", make_workload("ABCDEFGHIJK", "KJIHGFEDCBA", 3), "mtf",
     {"total": 121}),
)


def cmd_paper_examples(args) -> int:
    passed = 0
    for name, w, algorithm, expected in PAPER_EXAMPLES:
        row, _ = run_pair(algorithm, None, w)
        actual = {key: getattr(row, key) for key in expected}
        detail = ", ".join(f"{key} expected={want} actual={actual[key]}"
                           for key, want in expected.items())
        ok = actual == expected
        print(f"{name} [{algorithm}]: {'PASS' if ok else 'FAIL'} ({detail})")
        passed += ok
    print(f"{passed}/{len(PAPER_EXAMPLES)} pass")
    return 0 if passed == len(PAPER_EXAMPLES) else 1


class Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse would drop a failed write; guard reports it and exits 2
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="listlab",
        description="Simulate list-accessing algorithms under different cost models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one algorithm over a workload file")
    p.add_argument("--workload", required=True, help="workload file path")
    p.add_argument("--algorithm", required=True, choices=ALGORITHM_TOKENS)
    p.add_argument("--model", help="full | partial | pd:<d> | centralized (classics only)")
    p.add_argument("--trace", help="write a per-request trace to this file")
    p.add_argument("--csv", help="write the breakdown as a one-row CSV to this file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run several algorithm/model pairs and tabulate")
    p.add_argument("--workload", required=True)
    p.add_argument("--algorithm", required=True, help="comma-separated algorithm tokens")
    p.add_argument("--model", default="full", help="comma-separated model tokens (default: full)")
    p.add_argument("--csv", help="also write the table to this file")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen", help="generate a workload file")
    p.add_argument("--dist", required=True, help="uniform | zipf:<s> | burst:<len> | reverse")
    p.add_argument("--list-size", required=True, type=int)
    p.add_argument("--length", type=int, help="request count (reverse fixes it to list size)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--buffer", type=int, default=3)
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "paper-examples",
        help="check the built-in reference workloads against their known totals",
    )
    p.set_defaults(func=cmd_paper_examples)

    return parser


def guard(func, *args) -> int:
    """Call func(*args), flush stdout, move each staged file onto its path,
    print the notes and return func's exit code. Unsupported exits 3, and an
    input error or a failed stdout write exits 2, each with one error: line
    on stderr, or none if stderr cannot be written, and no file or note.
    A move can fail only if its target changed during the call, as write_file
    stages each file beside its target; that exits 2 after stdout is written,
    leaving the files moved before it in place."""
    try:
        try:
            code = func(*args)
        finally:
            sys.stdout.flush()
        for path, temp, target in _staged:
            try:
                os.replace(temp, target)
            except OSError as exc:  # worded as if open(path) had failed
                exc = OSError(exc.errno, exc.strerror, path)
                raise CliError(f"cannot write {path}: {exc}") from None
        for text in _notes:
            print(text, file=sys.stderr)
        return code
    except Unsupported as exc:
        code, message = 3, exc
    except (CliError, InvalidModel, InvalidSpec, InvalidWorkload) as exc:
        code, message = 2, exc
    except OSError as exc:  # write_file reports its own paths as CliError
        code, message = 2, f"cannot write stdout: {exc}"
        with contextlib.suppress(OSError):
            sys.stdout.close()  # else exit would flush the unwritten rest again
    finally:
        for _, temp, _ in _staged:  # gone already if it was published
            with contextlib.suppress(OSError):
                os.remove(temp)
        _staged.clear()
        _notes.clear()
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:  # nothing is left to report on but the exit code
        with contextlib.suppress(OSError):
            sys.stderr.close()  # as for stdout
    return code


def main(argv=None) -> int:
    # parsed inside guard, so that a --help that cannot be written exits 2
    return guard(lambda: (args := build_parser().parse_args(argv)).func(args))


if __name__ == "__main__":
    sys.exit(main())
