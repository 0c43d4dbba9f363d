"""Command-line harness: run, compare, gen, paper-examples.

Exit codes: 0 success, 2 input error, 3 unsupported algorithm/model
pair. Identical invocations produce byte-identical stdout, CSV and
trace output.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path
from typing import NamedTuple

from .amr import serve_amr
from .classic import CLASSIC_ALGORITHMS, run_classic
from .core import (
    ParseError,
    Workload,
    make_workload,
    parse_workload,
    serialize_workload,
    validate_workload,
)
from .costs import FULL, CostBreakdown, CostModel, Unsupported, model_token, parse_model_token
from .workloads import InvalidSpec, generate, spec_from_dist_token

ALGORITHM_TOKENS = CLASSIC_ALGORITHMS + ("amr",)


class CliError(Exception):
    """Carries the process exit code alongside the diagnostic."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class ComparisonRow(NamedTuple):
    """One CSV record; the field names are the CSV header."""

    algorithm: str
    model: str
    access: int
    matching: int
    replacement: int
    exchange: int
    total: int
    n: int
    l: int
    buffer: int
    seed: int | None = None

    @classmethod
    def from_run(
        cls,
        algorithm: str,
        model: str,
        breakdown: CostBreakdown,
        workload: Workload,
        seed: int | None = None,
    ) -> "ComparisonRow":
        return cls(
            algorithm=algorithm,
            model=model,
            access=breakdown.access,
            matching=breakdown.matching,
            replacement=breakdown.replacement,
            exchange=breakdown.exchange,
            total=breakdown.total,
            n=workload.requests.n,
            l=workload.list.l,
            buffer=workload.buffer_capacity,
            seed=seed,
        )


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


def _write(path: str, chunks) -> None:
    """Stream text chunks to a file; a failed write is an input error."""
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(chunks)
    except OSError as exc:
        raise CliError(2, f"cannot write {path}: {exc}") from None


def _load_workload(path: str) -> Workload:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(2, f"cannot read {path}: {exc}") from None
    try:
        w = parse_workload(text)
    except ParseError as exc:
        raise CliError(2, f"{path}: {exc}") from None
    report = validate_workload(w)
    for msg in report.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    if not report.ok:
        raise CliError(2, f"{path}: invalid workload: " + "; ".join(report.errors))
    return w


def _parse_model(token: str) -> CostModel:
    try:
        return parse_model_token(token)
    except ValueError as exc:
        raise CliError(2, str(exc)) from None


def run_pair(algorithm: str, model: CostModel | None, w: Workload):
    """Run one (algorithm, model) pair; returns (model token, breakdown, events).

    A model of None means the amr engine's own accounting, reported as
    model "amr", or the full model for a classical algorithm. Raises
    Unsupported for a pair that is not defined, such as amr with a model.
    """
    if algorithm == "amr":
        if model is not None:
            raise Unsupported("the amr engine carries its own cost model; drop --model")
        breakdown, events = serve_amr(w)
        return "amr", breakdown, events
    model = FULL if model is None else model
    breakdown, events, _ = run_classic(algorithm, model, w)
    return model_token(model), breakdown, events


def cmd_run(args) -> int:
    model = None if args.model is None else _parse_model(args.model)
    w = _load_workload(args.workload)
    mtok, breakdown, events = run_pair(args.algorithm, model, w)
    print(
        f"algorithm={args.algorithm} model={mtok} "
        f"n={w.requests.n} l={w.list.l} buffer={w.buffer_capacity}"
    )
    print(
        f"access={breakdown.access} matching={breakdown.matching} "
        f"replacement={breakdown.replacement} exchange={breakdown.exchange} "
        f"total={breakdown.total}"
    )
    if args.trace:
        _write(args.trace, (format_trace_line(ev) + "\n" for ev in events))
    if args.csv:
        row = ComparisonRow.from_run(args.algorithm, mtok, breakdown, w)
        _write(args.csv, [rows_to_csv([row])])
    return 0


def split_tokens(raw: str, what: str) -> list[str]:
    """Comma-separated tokens; a value that names none, "" or ",", is an error."""
    tokens = [tok for tok in raw.split(",") if tok]
    if not tokens:
        raise CliError(2, f"--{what} {raw!r} names no token")
    return tokens


def cmd_compare(args) -> int:
    algorithms = split_tokens(args.algorithm, "algorithm")
    for a in algorithms:
        if a not in ALGORITHM_TOKENS:
            raise CliError(2, f"unknown algorithm token {a!r}")
    models = [_parse_model(tok) for tok in split_tokens(args.model, "model")]
    w = _load_workload(args.workload)
    rows = []
    for a in algorithms:
        # amr ignores the model list and runs once.
        for model in [None] if a == "amr" else models:
            try:
                mtok, breakdown, _ = run_pair(a, model, w)
            except Unsupported as exc:
                print(f"skip {a} under {model_token(model)}: {exc}", file=sys.stderr)
                continue
            rows.append(ComparisonRow.from_run(a, mtok, breakdown, w))
    rows.sort(key=lambda r: (r.algorithm, r.model))
    text = rows_to_csv(rows)
    sys.stdout.write(text)
    if args.csv:
        _write(args.csv, [text])
    return 0


def cmd_gen(args) -> int:
    try:
        spec = spec_from_dist_token(
            args.dist, list_size=args.list_size, length=args.length, seed=args.seed
        )
        w = generate(spec, buffer_capacity=args.buffer)
    except InvalidSpec as exc:
        raise CliError(2, str(exc)) from None
    text = serialize_workload(w)
    echo = (
        f"dist={args.dist} list-size={spec.list_size} length={w.requests.n} "
        f"seed={spec.seed} buffer={w.buffer_capacity}"
    )
    if args.output:
        _write(args.output, [text])
        print(echo)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
        print(echo, file=sys.stderr)
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
        _, breakdown, _ = run_pair(algorithm, None, w)
        actual = {key: getattr(breakdown, key) for key in expected}
        detail = ", ".join(f"{key} expected={want} actual={actual[key]}"
                           for key, want in expected.items())
        ok = actual == expected
        print(f"{name} [{algorithm}]: {'PASS' if ok else 'FAIL'} ({detail})")
        passed += ok
    print(f"{passed}/{len(PAPER_EXAMPLES)} pass")
    return 0 if passed == len(PAPER_EXAMPLES) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Unsupported as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
