import pytest
from hypothesis import HealthCheck, settings

from listlab.core import make_workload

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
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
