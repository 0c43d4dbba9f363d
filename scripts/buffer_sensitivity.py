#!/usr/bin/env python3
"""Show how the buffered engine's total cost responds to buffer capacity
on a single generated workload, next to the static/full baseline.
"""

import argparse
import sys

from listlab.cli import CliError, guard, run_pair
from listlab.workloads import generate, spec_from_dist_token


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dist", default="zipf:1.2")
    ap.add_argument("--list-size", type=int, default=12)
    ap.add_argument("--length", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-buffer", type=int, default=8)
    args = ap.parse_args()

    spec = spec_from_dist_token(args.dist, args.list_size, args.length, args.seed)
    if args.max_buffer < 0:
        raise CliError(f"--max-buffer must be >= 0, got {args.max_buffer}")
    # Every capacity shares one list and request sequence, and with them
    # the indices the amr engine caches on them.
    generated = generate(spec, buffer_capacity=0)
    baseline, _ = run_pair("static", None, generated)
    print(f"# dist={args.dist} list-size={args.list_size} length={args.length} seed={args.seed}")
    print(f"# static/full baseline total={baseline.total}")
    print("buffer\taccess\tmatching\treplacement\ttotal")
    for capacity in range(args.max_buffer + 1):
        r, _ = run_pair("amr", None, generated.replace(buffer_capacity=capacity))
        print(f"{capacity}\t{r.access}\t{r.matching}\t{r.replacement}\t{r.total}")
    return 0


if __name__ == "__main__":
    sys.exit(guard(main))
