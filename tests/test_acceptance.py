"""Acceptance suite. Each test prints one pass/fail line; run with
`pytest tests/test_acceptance.py -v -s` to see them as they execute.
"""

import functools
import time

from listlab.amr import serve_amr
from listlab.classic import run_classic
from listlab.cli import main
from listlab.core import make_workload
from listlab.costs import FULL, PARTIAL
from listlab.workloads import GeneratorSpec, generate, list_elements
from oracles import matchless, replay_amr_trace
from support import rows_from_csv

NINE = tuple("A B C D E F G H I".split())


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")

        return wrapper

    return deco


@criterion("1 illustration trace, total 34 = 31+3+0")
def test_criterion_1_illustration():
    w = make_workload(NINE, "I E G D I E D A B I".split(), 3)
    breakdown, steps = serve_amr(w)
    trace = list(steps)
    assert breakdown.total == 34
    assert (breakdown.access, breakdown.matching, breakdown.replacement) == (31, 3, 0)
    # every intermediate from the worked narrative
    assert [(ev.element, ev.source, ev.access_cost) for ev in trace] == [
        ("I", "list", 9), ("E", "buffer", 1), ("G", "list", 7), ("D", "buffer", 3),
        ("I", "buffer", 2), ("E", "buffer", 1), ("D", "buffer", 3), ("A", "list", 1),
        ("B", "list", 2), ("I", "buffer", 2)]
    assert [trace[k].matched for k in (0, 2, 7, 8)] == [((5, "E"), (9, "I")), ((4, "D"),), (), ()]
    assert trace[0].inserted == ((1, "E"), (2, "I"))
    best = min(
        _timed(lambda: serve_amr(w)) for _ in range(20)
    )
    assert best < 1e-3, f"run took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@criterion("2 demonstration trace, total 36 = 31+4+1")
def test_criterion_2_demonstration():
    w = make_workload(NINE, "I E G D I E D B A I".split(), 3)
    breakdown, steps = serve_amr(w)
    trace = list(steps)
    assert breakdown.total == 36
    assert (breakdown.access, breakdown.matching, breakdown.replacement) == (31, 4, 1)
    g_step = trace[2]
    assert g_step.element == "G" and g_step.flags_added == (4, 5, 6, 7, 10)
    b_step = trace[7]
    assert b_step.element == "B"
    assert b_step.evicted == ((1, "E"),) and b_step.inserted == ((1, "A"),)
    assert (trace[8].element, trace[8].source, trace[8].access_cost) == ("A", "buffer", 1)
    assert (trace[9].element, trace[9].source, trace[9].access_cost) == ("I", "buffer", 2)


@criterion("3 reverse-order workload under mtf/full costs 121")
def test_criterion_3_mtf_reverse():
    w = make_workload(list("ABCDEFGHIJK"), list("KJIHGFEDCBA"), 3)
    breakdown, _, _ = run_classic("mtf", FULL, w)
    assert breakdown.total == 121


@criterion("4 partial total = full total - n on 100 seeded workloads x 4 algorithms")
def test_criterion_4_partial_full_identity():
    for seed in range(100):
        spec = GeneratorSpec(
            "uniform", list_size=(seed % 10) + 1, length=5 + seed % 26, seed=seed
        )
        w = generate(spec)
        for algorithm in ("static", "mtf", "transpose", "fc"):
            full, _, _ = run_classic(algorithm, FULL, w)
            partial, _, _ = run_classic(algorithm, PARTIAL, w)
            assert partial.total == full.total - w.requests.n


@criterion("5 matchless workloads cost exactly the static/full total")
def test_criterion_5_no_match_degeneracy():
    found = 0
    for l in range(1, 6):
        elements = list_elements(l)
        for seq in _matchless_extensions(elements, (), 8):
            found += 1
            w = make_workload(elements, seq, 3)
            breakdown, _ = serve_amr(w)
            static, _, _ = run_classic("static", FULL, w)
            assert breakdown.total == static.total
    assert found >= 100, f"search found only {found} matchless workloads"


def _matchless_extensions(elements, seq, n):
    """Every matchless sequence of up to n requests that extends seq. An
    appended request only widens earlier windows, so a match survives in
    every extension, and extending only matchless sequences finds them all."""
    for x in elements:
        longer = (*seq, x)
        if matchless(elements, longer):
            yield longer
            if len(longer) < n:
                yield from _matchless_extensions(elements, longer, n)


@criterion("6 invariant suite over 1000 seeded workloads in under 10 s")
def test_criterion_6_property_suite():
    start = time.monotonic()
    for seed in range(1000):
        spec = GeneratorSpec(
            "uniform", list_size=(seed % 12) + 1, length=seed % 61, seed=seed
        )
        w = generate(spec, buffer_capacity=(0, 1, 2, 3, 5)[seed % 5])
        breakdown, trace = serve_amr(w)
        replay_amr_trace(w, breakdown, trace)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"suite took {elapsed:.1f} s"


@criterion("7 compare and gen are byte-identical across invocations")
def test_criterion_7_cli_determinism(tmp_path, capsys):
    workload_path = tmp_path / "w.workload"
    assert (
        main(
            ["gen", "--dist", "zipf:1.2", "--list-size", "9", "--length", "40",
             "--seed", "11", "-o", str(workload_path)]
        )
        == 0
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        csv_path = tmp_path / name
        code = main(
            ["compare", "--workload", str(workload_path), "--algorithm",
             "static,mtf,transpose,fc,amr", "--model", "full,partial,pd:2",
             "--csv", str(csv_path)]
        )
        assert code == 0
        outs.append(csv_path.read_bytes())
    assert outs[0] == outs[1]
    assert rows_from_csv(outs[0].decode("utf-8"))  # parses, non-empty

    gens = []
    for name in ("g1.workload", "g2.workload"):
        path = tmp_path / name
        assert (
            main(
                ["gen", "--dist", "uniform", "--list-size", "6", "--length", "64",
                 "--seed", "5", "-o", str(path)]
            )
            == 0
        )
        gens.append(path.read_bytes())
    assert gens[0] == gens[1]
    capsys.readouterr()


@criterion("8 paper-examples reports 3/3 and exits 0")
def test_criterion_8_reference_command(capsys):
    code = main(["paper-examples"])
    captured = capsys.readouterr()
    assert code == 0
    assert "3/3 pass" in captured.out
