"""Seeded workload generators.

All randomness comes from splitmix64 (Steele, Lea & Flood, OOPSLA 2014),
so a given spec yields byte-identical sequences on every platform and
Python version. Output k of the stream seeded with s is a fixed mix of
s + k * gamma mod 2**64 alone, so the outputs are made in blocks: up to
BLOCK of them sit in the 128-bit lanes of one Python int, and each step
of the mix is one whole-int operation (see _block). The distributions
read the blocks through C-level iterator passes, with no Python call
per request. Elements are named by list position: A..Z for the first
26, then E27, E28, ...
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from collections.abc import Iterator
from functools import partial
from itertools import accumulate, chain, islice, repeat

from .core import ListConfig, RequestSequence, Value, Workload, check_buffer

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# Outputs per block: the block's int is 16 * BLOCK bytes (64 KiB), and
# so is each temporary the mix makes.
BLOCK = 4096


def _lanes(m: int) -> tuple[int, int, int]:
    """(ones, masks, steps) over m 128-bit lanes, holding 1, 2**64 - 1 and
    (i + 1) * gamma in lane i. Built per stream, so that nothing outlives
    the generate call that needs it."""
    ones, iota, count = 1, 1, 1  # iota holds i + 1 in lane i
    while count < m:
        shift = 128 * count
        iota |= (iota + count * ones) << shift
        ones |= ones << shift
        count *= 2
    low = (1 << (128 * m)) - 1
    ones &= low
    return ones, ones * _MASK64, (iota & low) * _GAMMA


def _block(state: int, m: int, ones: int, masks: int, steps: int) -> array:
    """The m splitmix64 outputs that follow `state`, as array("Q"), from
    the constants _lanes(m).

    Lane i starts as state + (i + 1) * gamma mod 2**64. Each value stays
    in the low 64 bits of its lane with zeros above, so a product with a
    64-bit constant stays inside its lane; a right shift carries the
    next lane's low bits into the high half, which the mask clears.
    """
    z = (state * ones + steps) & masks
    z = ((z ^ (z >> 30)) & masks) * 0xBF58476D1CE4E5B9 & masks
    z = ((z ^ (z >> 27)) & masks) * 0x94D049BB133111EB & masks
    z = (z ^ (z >> 31)) & masks
    words = array("Q", z.to_bytes(16 * m, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words[::2]


def _blocks(seed: int, first: int) -> Iterator[array]:
    """The splitmix64 stream of `seed` as blocks, without end: the first
    holds min(first, BLOCK) outputs, so a short sequence pays for no
    more lanes than it draws, and every later one BLOCK."""
    state = seed
    m = min(first, BLOCK)
    lanes = _lanes(m)
    while True:
        yield _block(state, m, *lanes)
        state = (state + m * _GAMMA) & _MASK64
        if m < BLOCK:
            m = BLOCK
            lanes = _lanes(m)


def splitmix64(seed: int, first: int) -> Iterator[int]:
    """The splitmix64 outputs of `seed`, without end, made in blocks sized
    for `first` draws (see _blocks)."""
    return chain.from_iterable(_blocks(seed, first))


def below(draws: Iterator[int], n: int) -> Iterator[int]:
    """Uniform integers in [0, n) for n >= 1, bias-free: a draw at or above
    the largest multiple of n that fits in 64 bits is rejected and the
    next one read."""
    span = _MASK64 + 1
    return map(n.__rmod__, filter((span - span % n).__gt__, draws))


class InvalidSpec(ValueError):
    """Generator spec is malformed or internally inconsistent."""


DISTRIBUTIONS = ("uniform", "zipf", "burst", "reverse")


class GeneratorSpec(Value):
    """What to generate; a spec that names no workload raises InvalidSpec
    when it is built, GeneratorSpec.replace copies included.

    length may be omitted for reverse (it is forced to list_size);
    a finite zipf_skew is required for zipf, run_length for burst.
    """

    def __init__(self, dist: str, list_size: int, length: int | None = None, seed: int = 0,
                 zipf_skew: float | None = None, run_length: int | None = None):
        self.__dict__.update(dist=dist, list_size=list_size, length=length, seed=seed,
                             zipf_skew=zipf_skew, run_length=run_length)
        if self.dist not in DISTRIBUTIONS:
            raise InvalidSpec(f"unknown distribution {self.dist!r}")
        if self.list_size < 1:
            raise InvalidSpec(f"list size must be >= 1, got {self.list_size}")
        if not 0 <= self.seed <= _MASK64:
            raise InvalidSpec(f"seed must be in 0..{_MASK64}, got {self.seed}")
        if self.dist == "reverse":
            if self.length is not None and self.length != self.list_size:
                raise InvalidSpec(
                    f"reverse emits exactly one request per element; "
                    f"length {self.length} != list size {self.list_size}"
                )
            return
        if self.length is None:
            raise InvalidSpec(f"{self.dist} needs a length")
        if self.length < 0:
            raise InvalidSpec(f"length must be >= 0, got {self.length}")
        if self.dist == "zipf" and (self.zipf_skew is None or not 0 < self.zipf_skew < math.inf):
            raise InvalidSpec(f"zipf needs a finite skew > 0, got {self.zipf_skew}")
        if self.dist == "burst" and (self.run_length is None or self.run_length < 1):
            raise InvalidSpec(f"burst needs run length >= 1, got {self.run_length}")


def list_elements(list_size: int) -> tuple[str, ...]:
    """The first list_size element names, in list order."""
    return (tuple(map(chr, range(ord("A"), ord("A") + min(list_size, 26))))
            + tuple(f"E{p}" for p in range(27, list_size + 1)))


def generate(spec: GeneratorSpec, buffer_capacity: int = 3) -> Workload:
    """Deterministic workload for the spec; same seed, same sequence.
    A negative buffer capacity raises InvalidWorkload before any draw."""
    check_buffer(buffer_capacity)
    n = spec.list_size if spec.dist == "reverse" else spec.length
    elements = list_elements(spec.list_size)
    pick = elements.__getitem__
    if spec.dist == "reverse":
        requests = tuple(reversed(elements))
    elif spec.dist == "uniform":
        requests = tuple(islice(map(pick, below(splitmix64(spec.seed, n), spec.list_size)), n))
    elif spec.dist == "zipf":
        # Inverse-CDF sampling over weights rank**(-skew): a draw v picks
        # the first rank whose cumulative weight exceeds u = (v >> 11) *
        # 2**-53 * total, or the last rank. Scaling either factor by
        # 2**-53 is exact, so (v >> 11) * (total * 2**-53) rounds the
        # same product to the same u.
        cumulative = list(accumulate(map(pow, range(1, spec.list_size + 1),
                                         repeat(-spec.zipf_skew))))
        us = map((cumulative.pop() * 2.0**-53).__rmul__,
                 map((11).__rrshift__, splitmix64(spec.seed, n)))
        # cumulative lost its last entry, so a u past every bound picks
        # the last rank.
        requests = tuple(islice(map(pick, map(partial(bisect_right, cumulative), us)), n))
    else:  # burst
        # A run may be longer than the whole sequence; cap it at n.
        run = min(spec.run_length, n)
        runs = -(-n // run) if n else 0
        picks = map(pick, below(splitmix64(spec.seed, runs), spec.list_size))
        requests = tuple(islice(chain.from_iterable(map(repeat, picks, repeat(run))), n))
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
    return GeneratorSpec(
        dist=name,
        list_size=list_size,
        length=length,
        seed=seed,
        zipf_skew=zipf_skew,
        run_length=run_length,
    )
