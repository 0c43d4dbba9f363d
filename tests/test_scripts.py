from listlab.cli import guard
from pinned import script
from support import replays

# Both scripts' golden outputs and their input errors are rows of tests/pinned.py.
test_script_output_matches_golden_bytes = replays(
    {"buffer-sensitivity": "buffer-sensitivity", "sweep-compare": "sweep-compare"})
test_bad_input_is_one_error_line_and_exit_two = replays({
    "sweep-buffers": "sweep-bad-buffer",
    "sweep-negative-buffer": "sweep-negative-buffer",
    "sweep-list-size": "sweep-list-size",
    "sweep-output": "sweep-o-no-dir",
    "sensitivity-dist": "sensitivity-dist",
    "sweep-list-size-no-seeds": "sweep-list-size-no-seeds",
    "sweep-no-seeds": "sweep-no-seeds",
    "sweep-no-dists": "sweep-no-dists",
    "sweep-no-buffers": "sweep-no-buffers",
    "sensitivity-negative-max-buffer": "sensitivity-negative-max-buffer",
    "sweep-empty-output": "sweep-empty-o",
})


def test_sweep_checks_every_buffer_before_serving(monkeypatch, capsys):
    sweep = script("sweep_compare.py")

    def serve(*args, **kwargs):
        raise AssertionError("served before every capacity was checked")

    monkeypatch.setattr(sweep, "generate", serve)
    monkeypatch.setattr(sweep, "run_pair", serve)
    assert guard(sweep.main, ["--seeds", "1", "--buffers", "1,-1"]) == 2
    assert capsys.readouterr() == ("", "error: negative buffer capacity -1\n")
