"""Starts and times the benchmark's CLI children from a small process.

Linux carries the memory high-water mark of the process that starts a
child into the child's peak RSS as ``wait4`` reports it. The benchmark
holds its inputs and results in memory, so it starts this process first,
while it is still small, and lets it start every CLI child.

Protocol: one JSON list ``[argv, cwd, stdout_path, stderr_path]`` per
stdin line; one JSON list ``[seconds, exit_code, peak_rss_kib]`` per
stdout line. The process ends when stdin closes.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        argv, cwd, out_path, err_path = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([seconds, proc.returncode, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
