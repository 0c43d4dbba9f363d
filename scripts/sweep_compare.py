#!/usr/bin/env python3
"""Sweep generated workloads and tabulate every algorithm against the
buffered look-ahead engine.

Emits one CSV row per (workload, algorithm) pair in the harness CSV
format, ready for plotting. Classical algorithms run under the full
model; the buffered engine uses its own accounting.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from listlab import CLASSIC_ALGORITHMS, generate, spec_from_dist_token
from listlab.cli import CliError, rows_to_csv, run_pair, split_tokens


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dists", default="uniform,zipf:1.2,burst:4",
                    help="comma-separated distribution tokens")
    ap.add_argument("--list-size", type=int, default=10)
    ap.add_argument("--length", type=int, default=200)
    ap.add_argument("--seeds", type=int, default=20, help="use seeds 0..N-1")
    ap.add_argument("--buffers", default="1,3,5", help="comma-separated capacities")
    ap.add_argument("-o", "--output", help="CSV path (default: stdout)")
    args = ap.parse_args()

    try:
        buffers = [int(tok) for tok in split_tokens(args.buffers, "buffers")]
        if any(capacity < 0 for capacity in buffers):
            raise ValueError(f"buffer capacities must be >= 0, got {args.buffers!r}")
        # One validated spec per distribution; seeds only vary the stream.
        specs = [
            spec_from_dist_token(dist, args.list_size, args.length, seed=0)
            for dist in split_tokens(args.dists, "dists")
        ]
        if args.seeds < 1:
            raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    except (CliError, ValueError) as exc:  # InvalidSpec included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    for base in specs:
        for seed in range(args.seeds):
            # One list and request sequence per seed: every capacity shares
            # them, and with them the indices the amr engine caches on them.
            generated = generate(replace(base, seed=seed))
            for capacity in buffers:
                w = replace(generated, buffer_capacity=capacity)
                for algorithm in ("amr", *CLASSIC_ALGORITHMS):
                    row, _ = run_pair(algorithm, None, w)
                    rows.append(row._replace(seed=seed))
    text = rows_to_csv(rows)
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(rows)} rows to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
