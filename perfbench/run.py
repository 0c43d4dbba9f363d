#!/usr/bin/env python3
"""listlab benchmark: engine throughput and whole CLI calls, checked.

Run from the repository root:

    python3 perfbench/run.py --workload scan-l1000 --seed 1 --seconds 55 --trace 0

The package is imported from ``src/`` of the checkout that holds this
file; nothing needs to be installed. Every workload is closed-loop with
one caller: each call starts after the previous one returned. A run
alternates two kinds of timed work on inputs generated from ``--seed``:

* engine rounds: every instance of the workload through all five
  engines in process (classics under ``full``), timed per engine call;
* CLI cycles: ``listlab gen``, ``run --algorithm amr --trace --csv``,
  ``run --algorithm mtf --model full --trace`` and ``compare`` over all
  five engines, each a fresh ``python3 -m listlab.cli`` child, as a user
  runs them.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` runs the same work in process (the CLI through
``listlab.cli.main``) with the span tracer of ``tracer.py`` patched in,
and prints per-layer metrics per round, where one round regenerates the
inputs, runs one engine round and one CLI cycle. It also times untraced
rounds of the same work and reports the difference as the tracing
overhead. Spans are written to ``.bench_work/spans/`` at the end.

Every engine run and CLI call is checked (see ``checks.py``); the last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
from checks import ALGORITHMS, Checker, as_dict
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 1
CLI_BUFFER = 8
IMPORT_REPEATS = 3
# Spans cost about 26 bytes each in memory and 50 on disk; a traced round
# starts only if the spans would stay within this budget.
SPAN_BUDGET = 600_000
MODULES = ("amr", "classic", "cli", "core", "costs", "workloads")


@dataclass(frozen=True)
class Workload:
    """Inputs of one benchmark workload; sizes stay fixed across seeds."""

    dists: tuple[str, ...]  # generator tokens of the in-process instances
    list_size: int
    length: int
    buffers: tuple[int, ...]
    seeds: int  # instances per (dist, buffer), as the sweep scripts make them
    cli_dist: str  # the workload file the CLI cycle runs on (buffer 8)
    cli_length: int
    engine_share: float  # share of measured time spent in engine rounds

    def inputs(self) -> str:
        """The fields that decide every output; pins apply only while they match."""
        return (f"{self.dists} l={self.list_size} n={self.length} buffers={self.buffers} "
                f"seeds={self.seeds} cli={self.cli_dist} n={self.cli_length}")


WORKLOADS = {
    # Per-request and per-instance overhead: scans <= 10 long, most amr
    # requests are buffer hits, so indexing the scans should gain nothing
    # in the engine rounds. The CLI file is long so that parsing, double
    # validation, trace formatting and file output carry a large share.
    "sweep-l10": Workload(("uniform", "zipf:1.2", "burst:4"), 10, 200, (1, 3, 5, 8), 3,
                          "zipf:1.2", 20_000, 0.5),
    # List-access heavy: ~3% amr buffer hits, look-ahead windows ~500
    # long, classic steps dominated by list.index and fc's tie walk.
    "scan-l1000": Workload(("uniform",), 1000, 10_000, (8,), 1, "uniform", 2_000, 0.6),
}

CLI_STEPS = ("gen", "run_trace", "run_mtf_trace", "compare")
END_TO_END_UNITS = {
    **{f"{alg}.req_per_s": "1/s" for alg in ALGORITHMS},
    "cli.gen_s": "s",
    "cli.run_trace_s": "s",
    "cli.run_mtf_trace_s": "s",
    "cli.compare_s": "s",
    "cli.peak_rss_mib": "MiB",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class Inputs:
    """Generated instances, the CLI workload file and the CLI argument lists."""

    def __init__(self, mods, wl: Workload, seed: int, work: Path):
        gen = mods["workloads"]
        self.instances = []
        for dist in wl.dists:
            for k in range(wl.seeds):
                spec = gen.spec_from_dist_token(dist, wl.list_size, wl.length, seed * 1000 + k)
                for b in wl.buffers:
                    self.instances.append(gen.generate(spec, b))
        self.requests = sum(w.requests.n for w in self.instances)
        self.cli_seed = seed * 1000
        spec = gen.spec_from_dist_token(wl.cli_dist, wl.list_size, wl.cli_length, self.cli_seed)
        self.cli_workload = gen.generate(spec, CLI_BUFFER)
        self.path = work / "input.workload"
        self.path.write_text(mods["core"].serialize_workload(self.cli_workload), encoding="utf-8")
        self.argv = {
            "gen": ["gen", "--dist", wl.cli_dist, "--list-size", str(wl.list_size),
                    "--length", str(wl.cli_length), "--buffer", str(CLI_BUFFER),
                    "--seed", str(self.cli_seed), "-o", str(work / "gen.workload")],
            "run_trace": ["run", "--workload", str(self.path), "--algorithm", "amr",
                          "--trace", str(work / "amr.trace"), "--csv", str(work / "amr.csv")],
            "run_mtf_trace": ["run", "--workload", str(self.path), "--algorithm", "mtf",
                              "--model", "full", "--trace", str(work / "mtf.trace")],
            "compare": ["compare", "--workload", str(self.path),
                        "--algorithm", "static,mtf,transpose,fc,amr"],
        }


def import_listlab() -> dict:
    """Import the package afresh from the checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "listlab" or m.startswith("listlab.")]:
        del sys.modules[name]
    importlib.import_module("listlab.cli")
    return {name: sys.modules[f"listlab.{name}"] for name in MODULES}


class Launcher:
    """The small process that starts every CLI child; see launcher.py."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))

    def call(self, argv: list[str], cwd: Path, out: Path, err: Path) -> tuple[float, int, float]:
        """Run argv to completion: seconds, exit code, peak RSS in MiB."""
        self.proc.stdin.write(json.dumps([argv, str(cwd), str(out), str(err)]) + "\n")
        self.proc.stdin.flush()
        seconds, code, rss_kib = json.loads(self.proc.stdout.readline())
        return seconds, code, rss_kib / 1024

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_engine(mods, alg: str, w):
    if alg == "amr":
        return mods["amr"].serve_amr(w)
    b, events, _ = mods["classic"].run_classic(alg, mods["costs"].FULL, w)
    return b, events


class Bench:
    def __init__(self, name: str, wl: Workload, seed: int, work: Path, pins: dict,
                 launcher: Launcher):
        self.name, self.wl, self.seed, self.work = name, wl, seed, work
        self.launcher = launcher
        self.chk = Checker()
        pin = pins.get(name, {})
        self.pin = pin if pin.get("seed") == seed and pin.get("workload") == wl.inputs() else None
        self.pin_skipped = pin.get("seed") == seed and self.pin is None
        self.digests: dict[str, str] = {}

    # -- set-up and reference results ---------------------------------------

    def setup(self) -> float:
        """Import the package afresh and generate and write the inputs; seconds taken."""
        t0 = perf_counter()
        mods = import_listlab()
        inp = Inputs(mods, self.wl, self.seed, self.work)
        seconds = perf_counter() - t0
        if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"error: listlab imported from {mods['cli'].__file__}, not {SRC}")
        self.mods, self.inp = mods, inp
        return seconds

    def reference(self) -> None:
        """Untimed pass: paper totals, full checks, pins; also warms up."""
        chk, mods, inp = self.chk, self.mods, self.inp
        checks.check_paper(chk, mods)
        self.refs = []
        for idx, w in enumerate(inp.instances):
            refs = {}
            for alg in ALGORITHMS:
                chk.begin(f"reference {alg} instance {idx}")
                b, events = run_engine(mods, alg, w)
                checks.check_engine_run(chk, alg, w, b, events)
                refs[alg] = as_dict(b)
            chk.begin(f"mtf bound instance {idx}")
            checks.check_mtf_bound(chk, refs, w.requests.n)
            self.refs.append(refs)
        cw = inp.cli_workload
        self.cli_refs = {}
        for alg in ALGORITHMS:
            chk.begin(f"reference {alg} cli workload")
            b, events = run_engine(mods, alg, cw)
            checks.check_engine_run(chk, alg, cw, b, events)
            self.cli_refs[alg] = as_dict(b)
        engines = "".join(
            f"{idx} {alg} {' '.join(str(refs[alg][f]) for f in checks.FIELDS)}\n"
            for idx, refs in enumerate(self.refs)
            for alg in ALGORITHMS
        )
        self.digests["engines"] = checks.sha256(engines.encode())
        if self.pin is not None:
            chk.begin("pinned breakdowns")
            chk.equal(self.digests["engines"], self.pin["engines"], "digest of instance breakdowns")
            chk.equal(self.cli_refs, self.pin["cli"], "cli workload breakdowns")

    # -- timed work -------------------------------------------------------------

    def engine_round(self) -> dict[str, float]:
        """All instances through all engines; returns seconds per engine."""
        chk, mods = self.chk, self.mods
        seconds = dict.fromkeys(ALGORITHMS, 0.0)
        for idx, w in enumerate(self.inp.instances):
            for alg in ALGORITHMS:
                chk.begin(f"{alg} instance {idx}")
                t0 = perf_counter()
                b, events = run_engine(mods, alg, w)
                seconds[alg] += perf_counter() - t0
                chk.equal(as_dict(b), self.refs[idx][alg], "breakdown vs reference")
                chk.equal(len(events), w.requests.n, "event count")
        return seconds

    def cli_child(self, argv: list[str]) -> tuple[float, int, float, str]:
        """One CLI call as a child process: seconds, exit code, peak RSS, stdout."""
        out = self.work / "stdout"
        seconds, code, rss = self.launcher.call(
            [sys.executable, "-m", "listlab.cli", *argv], self.work, out, self.work / "stderr")
        return seconds, code, rss, out.read_text(encoding="utf-8")

    def cli_in_process(self, argv: list[str], tr: Tracer | None) -> tuple[float, int, float, str]:
        """One CLI call through listlab.cli.main in this process."""
        out, err = io.StringIO(), io.StringIO()
        main = self.mods["cli"].main
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = tr.span("cli.main", main, argv) if tr else main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            seconds = perf_counter() - t0
        return seconds, code, 0.0, out.getvalue()

    def cli_cycle(self, call) -> dict[str, tuple[float, float]]:
        """The four CLI steps, each checked; returns seconds and RSS per step."""
        result = {}
        for step in CLI_STEPS:
            self.chk.begin(f"cli {step}")
            seconds, code, rss, stdout = call(self.inp.argv[step])
            if self.chk.equal(code, 0, "exit code"):
                self.check_cli(step, stdout)
            result[step] = (seconds, rss)
        return result

    def check_cli(self, step: str, stdout: str) -> None:
        chk, inp, refs, work = self.chk, self.inp, self.cli_refs, self.work
        w = inp.cli_workload
        n, l = w.requests.n, w.list.l
        if step == "gen":
            data = (work / "gen.workload").read_bytes()
            chk.equal(data.decode(), checks.workload_text(w.list.elements, w.requests.requests,
                                                          CLI_BUFFER), "generated workload file")
            self.check_digest(chk, "gen.workload", data)
        elif step == "run_trace":
            chk.equal(stdout, checks.run_stdout("amr", "amr", refs["amr"], n, l, CLI_BUFFER), "stdout")
            data = (work / "amr.csv").read_bytes()
            chk.equal(data.decode(), checks.csv_text([("amr", "amr", refs["amr"], n, l, CLI_BUFFER)]),
                      "csv")
            self.check_digest(chk, "amr.csv", data)
            data = (work / "amr.trace").read_bytes()
            checks.check_trace(chk, data.decode(), w.requests.requests, refs["amr"]["access"])
            self.check_digest(chk, "amr.trace", data)
        elif step == "run_mtf_trace":
            chk.equal(stdout, checks.run_stdout("mtf", "full", refs["mtf"], n, l, CLI_BUFFER), "stdout")
            data = (work / "mtf.trace").read_bytes()
            checks.check_trace(chk, data.decode(), w.requests.requests, refs["mtf"]["access"])
            self.check_digest(chk, "mtf.trace", data)
        else:
            rows = sorted((alg, "amr" if alg == "amr" else "full", refs[alg], n, l, CLI_BUFFER)
                          for alg in ALGORITHMS)
            chk.equal(stdout, checks.csv_text(rows), "compare table")
            self.check_digest(chk, "compare", stdout.encode())

    def check_digest(self, chk: Checker, key: str, data: bytes) -> None:
        """Same bytes as the pinned digest, or as the first call of this run."""
        digest = checks.sha256(data)
        expected = self.pin["files"][key] if self.pin else self.digests.setdefault(key, digest)
        self.digests[key] = digest
        chk.equal(digest, expected, f"sha256 of {key}")

    def pin_record(self) -> dict:
        """What pins.json holds for this workload and seed, as observed."""
        files = {key: value for key, value in self.digests.items() if key != "engines"}
        return {"seed": self.seed, "workload": self.wl.inputs(), "engines": self.digests["engines"],
                "cli": self.cli_refs, "files": files}

    # -- the two kinds of run ---------------------------------------------------

    def run_untraced(self, seconds: float, setups: list[float]) -> dict[str, float]:
        """Alternate engine rounds and CLI cycles, and set up again after each cycle."""
        rates = {alg: [] for alg in ALGORITHMS}
        calls = {step: [] for step in CLI_STEPS}
        child_rss = 0.0
        engine_s = cli_s = 0.0
        start = perf_counter()
        while perf_counter() - start < seconds or not rates["amr"] or not calls["gen"]:
            t0 = perf_counter()
            if engine_s <= self.wl.engine_share * (engine_s + cli_s) or not rates["amr"]:
                for alg, s in self.engine_round().items():
                    rates[alg].append(self.inp.requests / s)
                engine_s += perf_counter() - t0
            else:
                for step, (s, rss) in self.cli_cycle(self.cli_child).items():
                    calls[step].append(s)
                    child_rss = max(child_rss, rss)
                cli_s += perf_counter() - t0
                setups.append(self.setup())
        self.samples = calls
        # The host's speed swings by up to 2x for minutes at a time; p10 of
        # rates and p90 of latencies read its slow periods, which repeat.
        metrics = {f"{alg}.req_per_s": deciles(rates[alg])[0] for alg in ALGORITHMS}
        metrics.update({f"cli.{step}_s": deciles(calls[step])[-1] for step in CLI_STEPS})
        metrics["cli.peak_rss_mib"] = child_rss
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return metrics

    def traced_round(self, tr: Tracer | None) -> float:
        t0 = perf_counter()
        self.inp = Inputs(self.mods, self.wl, self.seed, self.work)
        self.engine_round()
        self.cli_cycle(lambda argv: self.cli_in_process(argv, tr))
        return perf_counter() - t0

    def run_traced(self, seconds: float) -> dict[str, float]:
        untraced = []
        start = perf_counter()
        while perf_counter() - start < seconds / 3 or not untraced:
            untraced.append(self.traced_round(None))
        traced = []
        trace_bytes = 0
        with Tracer(self.mods) as tr:
            # Rounds record equally many spans; stop before one would exceed the budget.
            while not traced or (perf_counter() - start < seconds
                                 and len(tr) * (len(traced) + 1) <= SPAN_BUDGET * len(traced)):
                traced.append(self.traced_round(tr))
                trace_bytes += sum((self.work / f).stat().st_size for f in ("amr.trace", "mtf.trace"))
        tr.write(WORK / "spans" / f"{self.name}-seed{self.seed}.tsv")
        return layer_metrics(tr, len(traced), statistics.median(untraced),
                             statistics.median(traced), trace_bytes, self.import_seconds())

    def import_seconds(self) -> float:
        """Interpreter start plus `import listlab.cli`, median of a few children."""
        times = []
        for _ in range(IMPORT_REPEATS):
            seconds, code, _ = self.launcher.call(
                [sys.executable, "-c", "import listlab.cli"], self.work,
                self.work / "stdout", self.work / "stderr")
            if code != 0:
                raise RuntimeError("`import listlab.cli` failed in a child process")
            times.append(seconds)
        return statistics.median(times)


def layer_metrics(tr: Tracer, rounds: int, untraced_s: float, traced_s: float,
                  trace_bytes: int, import_s: float) -> dict[str, float]:
    """Per-layer metrics per traced round, from the spans and counters."""
    total, own = tr.totals()
    c = tr.counts
    m = {
        "amr.serve_s": total["amr.serve"],
        "amr.self_s": own["amr.serve"],
    }
    for part in ("match_parallel", "set_flags", "position", "slot_of", "buffer_insert",
                 "lookahead_window"):
        m[f"amr.{part}_s"] = total[f"amr.{part}"]
    for key in ("comparisons", "list_accesses", "buffer_hits", "matches", "flag_scans",
                "flags_set", "evictions", "events"):
        m[f"amr.{key}"] = c[f"amr.{key}"]
    for alg in ALGORITHMS[1:]:
        m[f"classic.{alg}.run_s"] = total[f"classic.{alg}"]
        m[f"classic.{alg}.self_s"] = own[f"classic.{alg}"]
        m[f"classic.{alg}.scan_len"] = c[f"classic.{alg}.scan_len"]
        m[f"classic.{alg}.moves"] = c[f"classic.{alg}.moves"]
    m["costs.access_cost_s"] = total["costs.access_cost"]
    m["costs.exchange_cost_s"] = total["costs.exchange_cost"]
    m["costs.calls"] = c["costs.calls"]
    m["workloads.generate_s"] = total["workloads.generate"]
    m["core.parse_s"] = total["core.parse"]
    m["core.validate_s"] = total["core.validate"]
    m["core.validate_calls"] = c["core.validate_calls"]
    m["core.serialize_s"] = total["core.serialize"]
    m["cli.format_trace_s"] = total["cli.format_trace"]
    m["cli.trace_bytes"] = trace_bytes
    m["cli.rows_to_csv_s"] = total["cli.rows_to_csv"]
    m = {key: value / rounds for key, value in m.items()}
    m["cli.import_s"] = import_s
    m["amr.match_yield"] = c["amr.matches"] / c["amr.comparisons"]
    m["amr.flag_yield"] = c["amr.buffer_hits"] / c["amr.flags_set"]
    m["amr.buffer_hit_share"] = c["amr.buffer_hits"] / c["amr.events"]
    m["amr.match_flag_share"] = (total["amr.match_parallel"] + total["amr.set_flags"]) / total["amr.serve"]
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_frac"] = traced_s / untraced_s - 1
    m["trace.spans"] = len(tr) / rounds
    m["trace.rounds"] = rounds
    return m


PER_LAYER_UNITS = {
    "amr.comparisons": "count", "amr.list_accesses": "count", "amr.buffer_hits": "count",
    "amr.matches": "count", "amr.flag_scans": "count", "amr.flags_set": "count",
    "amr.evictions": "count", "amr.events": "count", "amr.match_yield": "ratio",
    "amr.flag_yield": "ratio", "amr.buffer_hit_share": "ratio", "amr.match_flag_share": "ratio",
    "costs.calls": "count", "core.validate_calls": "count", "cli.trace_bytes": "bytes",
    "trace.overhead_frac": "ratio", "trace.spans": "count", "trace.rounds": "count",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith(("scan_len", "moves")):
        return "count"
    return "s"


def deciles(samples: list[float]) -> list[float]:
    """p10, p20, ..., p90 of the samples, within their range."""
    if len(samples) == 1:
        return samples * 9
    return statistics.quantiles(samples, n=10, method="inclusive")


def tail(samples: list[float]) -> str:
    """Sample count, p10, median, p90 and the highest percentile with ten samples above it."""
    s = sorted(samples)
    d = deciles(s)
    text = f"{len(s)} calls, p10 {d[0]:.6f} s, median {d[4]:.6f} s, p90 {d[-1]:.6f} s"
    if len(s) < 20:
        return text + ", too few calls for a tail with 10 beyond it"
    k = len(s) - 11
    return text + f", p{100 * (k + 1) // len(s)} {s[k]:.6f} s"


def run(name: str, wl: Workload, seed: int, seconds: float, trace: bool,
        launcher: Launcher) -> tuple[dict, list[str], dict]:
    """One benchmark run: the result object, report lines and observed pins."""
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(name, wl, seed, work, checks.load_pins(), launcher)
        setups = [bench.setup()]
        bench.reference()
        if trace:
            metrics = bench.run_traced(seconds)
        else:
            metrics = bench.run_untraced(seconds, setups)
            metrics["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    chk = bench.chk
    lines = [f"{key} {value:.6g} {unit_of(key)}" for key, value in metrics.items()]
    if not trace:
        lines += [f"cli.{step}_s: {tail(bench.samples[step])}" for step in CLI_STEPS]
    if bench.pin_skipped:
        lines.append("pins.json not applied: this workload's inputs differ from the pinned ones")
    lines.append(f"failed_frac {chk.failed}/{chk.attempted} = {chk.failed / chk.attempted:g}")
    lines += [f"FAIL {msg}" for msg in chk.messages]
    result = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {key: {"value": value, "unit": unit_of(key)} for key, value in metrics.items()},
    }
    return result, lines, bench.pin_record()


def main(argv=None, workloads=WORKLOADS) -> int:
    ap = argparse.ArgumentParser(description="listlab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "listlab" / "__init__.py").is_file():
        print(f"error: no listlab package under {SRC}", file=sys.stderr)
        return 2
    launcher = Launcher()
    try:
        if sys.path[0] != str(SRC):
            sys.path.insert(0, str(SRC))
        result, lines, _ = run(args.workload, workloads[args.workload], args.seed, args.seconds,
                               bool(args.trace), launcher)
    finally:
        launcher.close()
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
