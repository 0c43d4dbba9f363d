#!/usr/bin/env python3
"""Sweep generated workloads and tabulate every algorithm against the
buffered look-ahead engine.

Emits one CSV row per (workload, algorithm) pair in the harness CSV
format, ready for plotting. Classical algorithms run under the full
model; the buffered engine uses its own accounting.
"""

import sys

from listlab.classic import CLASSIC_ALGORITHMS
from listlab.cli import CliError, Parser, distinct_paths, guard, rows_to_csv, run_pair
from listlab.cli import note, split_tokens, write_file
from listlab.core import check_buffer
from listlab.workloads import generate, spec_from_dist_token


def main(argv=None) -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--dists", default="uniform,zipf:1.2,burst:4",
                    help="comma-separated distribution tokens")
    ap.add_argument("--list-size", type=int, default=10)
    ap.add_argument("--length", type=int, default=200)
    ap.add_argument("--seeds", type=int, default=20, help="use seeds 0..N-1")
    ap.add_argument("--buffers", default="1,3,5", help="comma-separated capacities")
    ap.add_argument("-o", "--output", help="CSV path (default: stdout)")
    args = ap.parse_args(argv)

    distinct_paths(output=args.output)
    try:  # before any seed is served; InvalidWorkload is a ValueError
        buffers = [check_buffer(int(tok)) for tok in split_tokens(args.buffers, "buffers")]
    except ValueError as exc:
        raise CliError(exc) from None
    # One validated spec per distribution; seeds only vary the stream.
    specs = [
        spec_from_dist_token(dist, args.list_size, args.length, seed=0)
        for dist in split_tokens(args.dists, "dists")
    ]
    if args.seeds < 1:
        raise CliError(f"--seeds must be >= 1, got {args.seeds}")
    rows = []
    for base in specs:
        for seed in range(args.seeds):
            # One list and request sequence per seed: every capacity shares
            # them, and with them the indices the amr engine caches on them.
            generated = generate(base.replace(seed=seed))
            for capacity in buffers:
                w = generated.replace(buffer_capacity=capacity)
                for algorithm in ("amr", *CLASSIC_ALGORITHMS):
                    row, _ = run_pair(algorithm, None, w)
                    rows.append(row._replace(seed=seed))
    text = rows_to_csv(rows)
    if args.output is None:
        sys.stdout.write(text)
        return 0
    write_file(args.output, [text])
    note(f"wrote {len(rows)} rows to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(guard(main))
