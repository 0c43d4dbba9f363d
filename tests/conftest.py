import pytest
from hypothesis import HealthCheck, settings

from listlab.core import make_workload
from pinned import check, in_process

# 50 examples per property test, unless it needs more to kill its mutants.
settings.register_profile(
    "suite", max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

NINE = tuple("A B C D E F G H I".split())


@pytest.fixture
def illustration():
    return make_workload(NINE, "I E G D I E D A B I".split(), 3)


@pytest.fixture
def demonstration():
    return make_workload(NINE, "I E G D I E D B A I".split(), 3)


@pytest.fixture
def reverse_eleven():
    return make_workload(list("ABCDEFGHIJK"), list("KJIHGFEDCBA"), 3)


@pytest.fixture
def replay(tmp_path, monkeypatch):
    """replay(name) replays that row of tests/pinned.py in process, in tmp_path."""
    monkeypatch.chdir(tmp_path)
    return lambda name: check(name, in_process, tmp_path)
