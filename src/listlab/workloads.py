"""Seeded workload generators.

All randomness comes from an in-package splitmix64 generator, so a given
spec yields byte-identical sequences on every platform and Python
version. Elements are named by list position: A..Z for the first 26,
then E27, E28, ...
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .core import ListConfig, RequestSequence, Workload

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64; the output stream depends only on the 64-bit seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection."""
        if n <= 0:
            raise ValueError(f"need n >= 1, got {n}")
        span = _MASK64 + 1
        limit = span - span % n
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def unit(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53


class InvalidSpec(ValueError):
    """Generator spec is malformed or internally inconsistent."""


DISTRIBUTIONS = ("uniform", "zipf", "burst", "reverse")


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate.

    length may be omitted for reverse (it is forced to list_size);
    zipf_skew is required for zipf, run_length for burst.
    """

    dist: str
    list_size: int
    length: int | None = None
    seed: int = 0
    zipf_skew: float | None = None
    run_length: int | None = None


def element_name(pos: int) -> str:
    if 1 <= pos <= 26:
        return chr(ord("A") + pos - 1)
    return f"E{pos}"


def list_elements(list_size: int) -> tuple[str, ...]:
    return tuple(element_name(p) for p in range(1, list_size + 1))


def _validated_length(spec: GeneratorSpec) -> int:
    if spec.dist not in DISTRIBUTIONS:
        raise InvalidSpec(f"unknown distribution {spec.dist!r}")
    if spec.list_size < 1:
        raise InvalidSpec(f"list size must be >= 1, got {spec.list_size}")
    if not 0 <= spec.seed <= _MASK64:
        raise InvalidSpec(f"seed must be in 0..{_MASK64}, got {spec.seed}")
    if spec.dist == "reverse":
        if spec.length is not None and spec.length != spec.list_size:
            raise InvalidSpec(
                f"reverse emits exactly one request per element; "
                f"length {spec.length} != list size {spec.list_size}"
            )
        return spec.list_size
    if spec.length is None:
        raise InvalidSpec(f"{spec.dist} needs a length")
    if spec.length < 0:
        raise InvalidSpec(f"length must be >= 0, got {spec.length}")
    if spec.dist == "zipf" and (spec.zipf_skew is None or not spec.zipf_skew > 0):
        raise InvalidSpec(f"zipf needs skew > 0, got {spec.zipf_skew}")
    if spec.dist == "burst" and (spec.run_length is None or spec.run_length < 1):
        raise InvalidSpec(f"burst needs run length >= 1, got {spec.run_length}")
    return spec.length


def generate(spec: GeneratorSpec, buffer_capacity: int = 3) -> Workload:
    """Deterministic workload for the spec; same seed, same sequence."""
    n = _validated_length(spec)
    if buffer_capacity < 0:
        raise InvalidSpec(f"buffer capacity must be >= 0, got {buffer_capacity}")
    elements = list_elements(spec.list_size)
    rng = SplitMix64(spec.seed)
    if spec.dist == "reverse":
        requests = tuple(reversed(elements))
    elif spec.dist == "uniform":
        requests = tuple(elements[rng.below(spec.list_size)] for _ in range(n))
    elif spec.dist == "zipf":
        # Inverse-CDF sampling over weights rank**(-skew).
        cumulative: list[float] = []
        total = 0.0
        for rank in range(1, spec.list_size + 1):
            total += rank ** -spec.zipf_skew
            cumulative.append(total)
        picks = []
        for _ in range(n):
            u = rng.unit() * total
            idx = min(bisect_right(cumulative, u), spec.list_size - 1)
            picks.append(elements[idx])
        requests = tuple(picks)
    else:  # burst
        out: list[str] = []
        while len(out) < n:
            e = elements[rng.below(spec.list_size)]
            out.extend([e] * spec.run_length)
        requests = tuple(out[:n])
    return Workload(ListConfig(elements), RequestSequence(requests), buffer_capacity)


def spec_from_dist_token(
    token: str, list_size: int, length: int | None, seed: int
) -> GeneratorSpec:
    """Build a spec from a CLI token: uniform, zipf:<s>, burst:<len>, reverse."""
    name, sep, arg = token.partition(":")
    zipf_skew = None
    run_length = None
    if name == "zipf":
        if not sep:
            raise InvalidSpec("zipf needs a skew, e.g. zipf:1.2")
        try:
            zipf_skew = float(arg)
        except ValueError:
            raise InvalidSpec(f"zipf skew must be a number, got {arg!r}") from None
    elif name == "burst":
        if not sep:
            raise InvalidSpec("burst needs a run length, e.g. burst:4")
        try:
            run_length = int(arg)
        except ValueError:
            raise InvalidSpec(f"burst run length must be an integer, got {arg!r}") from None
    elif name in ("uniform", "reverse"):
        if sep:
            raise InvalidSpec(f"distribution {name!r} takes no argument")
    else:
        raise InvalidSpec(f"unknown distribution {token!r}")
    spec = GeneratorSpec(
        dist=name,
        list_size=list_size,
        length=length,
        seed=seed,
        zipf_skew=zipf_skew,
        run_length=run_length,
    )
    _validated_length(spec)
    return spec
