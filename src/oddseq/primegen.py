"""Partition-based prime generation over the odd sequence.

Primes are discovered in partitions anchored by a pair of consecutive
primes (a, b).  A partition covers every odd number from just past the
previous partition's last discovery up to (but excluding) b*b, and the
accumulated moduli are exactly the odd primes up to a.  Any odd
composite below b*b has an odd prime factor at most a, so the partition
is one segment of a segmented sieve of Eratosthenes: each modulus clears
its odd multiples from a bool array over the segment, and the survivors
are the partition's primes.  At rollover b joins the moduli, the anchors
advance one prime, and the next partition starts where the last one left
off.

A run of consecutive partitions is sieved as one segment: from just past
the last discovery up to b*b - 2 for the run's end anchors (a, b), by the
odd primes up to a.  That is exact because every odd composite below b*b
has its least prime factor at most a, and because the end anchor is
chosen among the primes already discovered, every modulus lies below the
segment start, so no modulus clears itself.  A run ends on a partition
boundary, so the walk of the paper is unchanged: `step_partition` is a
run of one partition, and `first_n_primes` lets a run grow while the
segment fits in one sieve segment (2^20 odds) and has not yet passed an
upper bound for the last prime it needs.

The index cursor of the paper steps by a through the elements a*u of
the odd sequence, so a partition ends on the index of a*(b*b - 2), the
element whose quotient is the last odd below b*b.  b*b itself is never a
candidate: b only enters the moduli at rollover.  The loop guards
"strict" and "inclusive" of that walk differ only in how they step over
b*b, so they enumerate the same candidates; `guard` is accepted and
validated for compatibility but has no effect.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .oracle import _SEGMENT_ODDS, _sieve_segment
from .sequences import U64_MAX

DEFAULT_MAX_COUNT = 1_000_000

GUARDS = ("strict", "inclusive")


@dataclass(frozen=True)
class GeneratorState:
    """Snapshot between partitions.

    primes is strictly increasing; moduli after k completed partitions
    are the first k + 2 odd primes; prime_a < prime_b are the anchors
    for the next partition.  The initial prime_b = 7 is a bootstrap: it
    is discovered as the very first candidate (35 / 5).
    """

    primes: tuple[int, ...]
    moduli: tuple[int, ...]
    prime_a: int
    prime_b: int
    index: int
    partition: int
    last_element: int


def initial_state() -> GeneratorState:
    return GeneratorState(
        primes=(3, 5),
        moduli=(3, 5),
        prime_a=5,
        prime_b=7,
        index=(5 * 5 - 3) // 2,
        partition=1,
        last_element=1,
    )


def _check_guard(guard: str) -> None:
    if guard not in GUARDS:
        raise ValueError(f"guard must be one of {GUARDS}, got {guard!r}")


def _prime_bound(n: int) -> int:
    """An upper bound for the n-th prime (Rosser: n(ln n + ln ln n), n >= 6)."""
    if n < 6:
        return 13
    return math.ceil(n * (math.log(n) + math.log(math.log(n))))


def _run(
    primes: list[int],
    moduli: list[int],
    a: int,
    b: int,
    partition: int,
    last_element: int,
    reach: int,
) -> tuple[int, int, int, int, int]:
    """Run consecutive partitions as one segment; mutates primes and moduli.

    The run starts at the partition anchored by (a, b) and moves its end
    anchors one prime at a time while the next end anchor is already
    discovered (so every modulus lies below lo and none clears itself),
    the segment stays within _SEGMENT_ODDS odds, the segment end is below
    reach, and the anchors pass the 64-bit check.  reach = 0 runs exactly
    one partition.  moduli must be the prefix primes[:len(moduli)].
    """
    if a * b * b > U64_MAX:
        raise OverflowError("partition endpoint exceeds 64-bit range")
    lo = 7 if partition == 1 else last_element + 2
    k = len(moduli)
    j = k  # the end anchor b is primes[j] once discovered
    while j + 1 < len(primes) and b * b - 2 < reach:
        c = primes[j + 1]  # the next end anchor after b
        if (c * c - lo) // 2 > _SEGMENT_ODDS or b * c * c > U64_MAX:
            break
        a, b, j = b, c, j + 1
    # one segment over the odds lo..b*b - 2, sieved by the odd primes
    # <= a: every odd composite below b*b has its least prime factor <= a
    segment = np.empty((b * b - lo) // 2, dtype=bool)
    _sieve_segment(segment, (lo - 3) // 2, primes[:j])
    primes.extend((lo + 2 * np.flatnonzero(segment)).tolist())

    moduli.extend(primes[k : j + 1])
    index = ((b * b - 2) * a - 3) // 2
    return b, primes[j + 1], index, partition + j - k + 1, primes[-1]


def step_partition(state: GeneratorState, guard: str = "strict") -> GeneratorState:
    """Process one full partition and roll the anchors forward."""
    _check_guard(guard)
    primes = list(state.primes)
    moduli = list(state.moduli)
    a, b, index, partition, last = _run(
        primes,
        moduli,
        state.prime_a,
        state.prime_b,
        state.partition,
        state.last_element,
        reach=0,
    )
    return GeneratorState(
        tuple(primes), tuple(moduli), a, b, index, partition, last
    )


def first_n_primes(
    count: int,
    include_two: bool = True,
    guard: str = "strict",
    max_count: int = DEFAULT_MAX_COUNT,
) -> list[int]:
    """The first `count` primes, starting at 2 (or 3 without include_two).

    Runs whole runs of partitions until enough primes accumulate, then
    truncates.  A run stops extending once its segment passes an upper
    bound for the last prime needed, which only limits the overshoot.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > max_count:
        raise ResourceLimitError(f"count {count} exceeds cap {max_count}")
    _check_guard(guard)

    needed = count - 1 if include_two else count
    reach = _prime_bound(needed + 1)  # the needed-th odd prime is p_(needed+1)
    state = initial_state()
    primes = list(state.primes)
    moduli = list(state.moduli)
    a, b = state.prime_a, state.prime_b
    partition, last = state.partition, state.last_element
    while len(primes) < needed:
        a, b, _, partition, last = _run(
            primes, moduli, a, b, partition, last, reach
        )
    head = primes[:needed]
    return [2] + head if include_two else head
