"""The benchmark still fits the package: its tracer and its calling shape.

perfbench/tracer.py wraps package functions by module attribute name and
by positional signature. A renamed helper, or one whose signature
changed, breaks the traced benchmark; the first test runs the CLI steps
the benchmark traces and checks that every wrapped function recorded a
span and that every patched attribute was put back.

perfbench/run.py imports the package afresh, reads its modules from
sys.modules and unpacks each engine's result; the second test runs that
shape once on a tiny workload, untimed and in process.
"""

import sys
import types
from pathlib import Path

from listlab import amr, classic, cli, core, costs, workloads

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"
MODULES = {"amr": amr, "classic": classic, "cli": cli, "core": core, "costs": costs,
           "workloads": workloads}
DEMO = "list: A B C D E F G H I\nbuffer: 3\nrequests: I E G D I E D B A I\n"


def load_source(module, path):
    # Executed from source, so the benchmark directory gains no bytecode cache.
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def load_tracer():
    return load_source(types.ModuleType("perfbench_tracer"), TRACER_PATH)


def attribute(path):
    module, *attrs = path.split(".")
    owner = MODULES[module]
    for attr in attrs:
        owner = getattr(owner, attr)
    return owner


def test_traced_cli_steps_record_every_wrapped_span(tmp_path):
    tracer = load_tracer()
    originals = {path: attribute(path) for path, _ in tracer.WRAPPED}
    demo = tmp_path / "demo.workload"
    demo.write_text(DEMO, encoding="utf-8")
    argvs = (
        ["gen", "--dist", "zipf:1.2", "--list-size", "9", "--length", "40", "--seed", "1",
         "-o", str(tmp_path / "gen.workload")],
        ["run", "--workload", str(demo), "--algorithm", "amr", "--trace", str(tmp_path / "t")],
        # Only a traced classical run evaluates access_cost, once per
        # distinct position; the benchmark's CLI cycle makes this call.
        ["run", "--workload", str(demo), "--algorithm", "mtf", "--model", "full",
         "--trace", str(tmp_path / "mtf.trace")],
        ["compare", "--workload", str(demo), "--algorithm", ",".join(cli.ALGORITHM_TOKENS)],
        ["paper-examples"],
    )
    with tracer.Tracer(MODULES) as tr:
        for argv in argvs:
            assert cli.main(argv) == 0, argv

    recorded = {tr.names[i] for i in tr.name_id}
    # The classic.run wrapper names its span after the algorithm it runs.
    expected = {name for _, name in tracer.WRAPPED} - {"classic.run"}
    expected |= {f"classic.{a}" for a in classic.CLASSIC_ALGORITHMS}
    assert expected <= recorded
    assert tr.counts["amr.buffer_hits"] > 0
    assert tr.counts["core.validate_calls"] > 0
    assert (tmp_path / "t").read_text(encoding="utf-8").count("\n") == 10
    for path, original in originals.items():
        assert attribute(path) is original, path


def test_benchmark_calling_shape_runs_in_process(tmp_path, monkeypatch):
    saved = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "listlab"}
    monkeypatch.setattr(sys, "path", [str(PERFBENCH.parent / "src"), *sys.path])
    # Entered in sys.modules as an import would: run.py imports checks and
    # tracer by name, and its dataclass looks up its own module.
    for name in ("checks", "tracer", "run"):
        monkeypatch.setitem(sys.modules, name, types.ModuleType(name))
        load_source(sys.modules[name], PERFBENCH / f"{name}.py")
    run, checks = sys.modules["run"], sys.modules["checks"]
    try:
        mods = run.import_listlab()
        wl = run.Workload(("uniform", "zipf:1.2"), 10, 60, (0, 3), 1, "burst:4", 80, 0.5)
        inp = run.Inputs(mods, wl, 1, tmp_path)
        chk = checks.Checker()
        checks.check_paper(chk, mods)
        for w in (*inp.instances, inp.cli_workload):
            for alg in checks.ALGORITHMS:
                chk.begin(f"{alg} {w.requests.n}")
                b, events = run.run_engine(mods, alg, w)
                checks.check_engine_run(chk, alg, w, b, events)
    finally:  # later tests keep the modules they imported
        for name in [name for name in sys.modules if name.split(".")[0] == "listlab"]:
            del sys.modules[name]
        sys.modules.update(saved)
    assert sys.modules["listlab.cli"] is cli
    assert all(module is not MODULES[name] for name, module in mods.items())  # imported afresh
    assert (chk.failed, chk.messages) == (0, [])
    assert chk.attempted == 3 + 5 * (len(inp.instances) + 1) == 28
