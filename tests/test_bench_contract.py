"""The benchmark's span tracer still fits the package.

perfbench/tracer.py wraps package functions by module attribute name and
by positional signature. A renamed helper, or one whose signature
changed, breaks the traced benchmark; this test runs the CLI steps the
benchmark traces and checks that every wrapped function recorded a span
and that every patched attribute was put back.
"""

import types
from pathlib import Path

from listlab import amr, classic, cli, core, costs, workloads

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = {"amr": amr, "classic": classic, "cli": cli, "core": core, "costs": costs,
           "workloads": workloads}
DEMO = "list: A B C D E F G H I\nbuffer: 3\nrequests: I E G D I E D B A I\n"


def load_tracer():
    # Executed from source, so the benchmark directory gains no bytecode cache.
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"),
         module.__dict__)
    return module


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
