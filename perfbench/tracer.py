"""Outside-in span tracer for the listlab benchmark.

The tracer never edits the package. While it is active it replaces the
public module attributes that the engines and the CLI look up at call
time (``listlab.amr.match_parallel``, ``listlab.classic.access_cost``,
``listlab.cli.format_trace_line``, ``Buffer.slot_of`` ...) with timing
wrappers, and puts the originals back when it exits.

Each wrapped call records one span: name, start, end, parent span and
run id (one id per top-level engine run or CLI call). Spans are kept in
flat arrays in memory and written out once, after the run. Counters are
taken at the same boundaries from the wrapped calls' arguments and
results, so ratios are measured where the work happens.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module attribute path, span name). Several attributes can share a
# span name when the CLI and the engines reach one function through
# different modules.
WRAPPED = (
    ("amr.serve_amr", "amr.serve"),
    ("cli.serve_amr", "amr.serve"),
    ("amr.position", "amr.position"),
    ("amr.match_parallel", "amr.match_parallel"),
    ("amr.buffer_insert", "amr.buffer_insert"),
    ("amr.lookahead_window", "amr.lookahead_window"),
    ("amr.set_flags", "amr.set_flags"),
    ("amr.Buffer.slot_of", "amr.slot_of"),
    ("classic.run_classic", "classic.run"),
    ("cli.run_classic", "classic.run"),
    ("classic.access_cost", "costs.access_cost"),
    ("classic.exchange_cost", "costs.exchange_cost"),
    ("workloads.generate", "workloads.generate"),
    ("cli.generate", "workloads.generate"),
    ("cli.parse_workload", "core.parse"),
    ("core.validate_workload", "core.validate"),
    ("cli.validate_workload", "core.validate"),
    ("cli.serialize_workload", "core.serialize"),
    ("cli.format_trace_line", "cli.format_trace"),
    ("cli.rows_to_csv", "cli.rows_to_csv"),
)


class Tracer:
    """Span recorder; use as a context manager around the traced work."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self._stack: list[int] = []
        self._run = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._algorithm = ""

    # -- span recording -------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        if not self._stack:
            self._run += 1
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def __len__(self) -> int:
        return len(self.start)

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        count = self.counts

        if name == "amr.serve":
            def wrapper(workload):
                result = tracer.span(name, fn, workload)
                count["amr.events"] += len(result[1])
                return result
        elif name == "amr.match_parallel":
            def wrapper(lst, i, requests, t):
                result = tracer.span(name, fn, lst, i, requests, t)
                count["amr.list_accesses"] += 1
                count["amr.comparisons"] += max(0, min(i, requests.n - t))
                count["amr.matches"] += len(result)
                return result
        elif name == "amr.set_flags":
            def wrapper(flags, window, buffer, requests):
                result = tracer.span(name, fn, flags, window, buffer, requests)
                count["amr.flag_scans"] += max(0, window.end - window.start + 1)
                count["amr.flags_set"] += len(result)
                return result
        elif name == "amr.buffer_insert":
            def wrapper(buffer, candidates):
                result = tracer.span(name, fn, buffer, candidates)
                count["amr.evictions"] += result[2]
                return result
        elif name == "amr.slot_of":
            def wrapper(buffer, element):
                result = tracer.span(name, fn, buffer, element)
                if result is not None:
                    count["amr.buffer_hits"] += 1
                return result
        elif name == "classic.run":
            def wrapper(algorithm, model, workload):
                tracer._algorithm = algorithm
                return tracer.span(f"classic.{algorithm}", fn, algorithm, model, workload)
        elif name == "costs.access_cost":
            def wrapper(model, i, l):
                count[f"classic.{tracer._algorithm}.scan_len"] += i
                count["costs.calls"] += 1
                return tracer.span(name, fn, model, i, l)
        elif name == "costs.exchange_cost":
            def wrapper(model, kind, transpositions):
                count[f"classic.{tracer._algorithm}.moves"] += transpositions
                count["costs.calls"] += 1
                return tracer.span(name, fn, model, kind, transpositions)
        elif name == "core.validate":
            def wrapper(workload):
                count["core.validate_calls"] += 1
                return tracer.span(name, fn, workload)
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        return wrapper

    def __enter__(self) -> "Tracer":
        wrapped: dict[int, object] = {}
        for path, name in WRAPPED:
            module, *attrs = path.split(".")
            owner = self._modules[module]
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, attrs[-1])
            # One wrapper per function, so a function reached through two
            # modules is not wrapped twice.
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(name, original)
            self._saved.append((owner, attrs[-1], original))
            setattr(owner, attrs[-1], wrapped[id(original)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis ---------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name, in seconds.

        Self time is a span's duration minus the time its child spans
        cover; calls run on one thread, so children never overlap.
        """
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        names, name_id = self.names, self.name_id
        for i in range(n):
            name = names[name_id[i]]
            d = end[i] - start[i]
            total[name] += d
            own[name] += d - child[i]
        return total, own

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line: name start end parent run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("name\tstart_s\tend_s\tparent\trun\n")
            names, name_id = self.names, self.name_id
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                out.write(
                    f"{names[name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.run[i]}\n"
                )
