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
candidate: b only enters the moduli at rollover.  The paper's two loop
guards, strict and inclusive, differ only in how they step over b*b, so
they enumerate the same candidates and need no option.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .oracle import _SEGMENT_ODDS, _sieve_segment
from .sequences import U64_MAX

DEFAULT_MAX_COUNT = 1_000_000


@dataclass(frozen=True)
class GeneratorState:
    """Snapshot between partitions: the odd primes found, and k moduli.

    primes is strictly increasing and the moduli are its prefix
    primes[:k], the first m + 2 odd primes after m partitions; the rest
    of the state follows from these two.  The initial prime_b = 7 is a
    bootstrap: it is discovered as the very first candidate (35 / 5).
    """

    primes: tuple[int, ...]
    k: int

    @property
    def moduli(self) -> tuple[int, ...]:
        return self.primes[: self.k]

    @property
    def prime_a(self) -> int:
        return self.primes[self.k - 1]

    @property
    def prime_b(self) -> int:
        return self.primes[self.k] if self.k < len(self.primes) else 7

    @property
    def partition(self) -> int:
        return self.k - 1

    @property
    def last_element(self) -> int:
        # before the first partition nothing is discovered past 1
        return self.primes[-1] if self.k > 2 else 1

    @property
    def index(self) -> int:
        """The index of a*(b*b - 2) for the last partition's anchors."""
        if self.k == 2:
            return (5 * 5 - 3) // 2  # the bootstrap: the index of 5*5
        a, b = self.primes[self.k - 2 : self.k]
        return ((b * b - 2) * a - 3) // 2


def initial_state() -> GeneratorState:
    return GeneratorState(primes=(3, 5), k=2)


def _prime_bound(n: int) -> int:
    """An upper bound for the n-th prime (Rosser: n(ln n + ln ln n), n >= 6)."""
    if n < 6:
        return 13
    return math.ceil(n * (math.log(n) + math.log(math.log(n))))


def _run(primes, k: int, reach: int) -> tuple[list[int], int]:
    """Run consecutive partitions as one segment from the state (primes, k).

    The run starts at the partition anchored by primes[k - 1] and the
    next prime, and moves its end anchors one prime at a time while the
    next end anchor is already discovered (so every modulus lies below
    lo and none clears itself), the segment stays within _SEGMENT_ODDS
    odds, the segment end is below reach, and the anchors pass the
    64-bit check.  reach = 0 runs exactly one partition.  Returns the
    primes found, leaving primes as it is, and the new modulus count.
    """
    a = primes[k - 1]
    b = primes[k] if k < len(primes) else 7  # the bootstrap anchor
    if a * b * b > U64_MAX:
        raise OverflowError("partition endpoint exceeds 64-bit range")
    lo = primes[-1] + 2
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
    return (lo + 2 * np.flatnonzero(segment)).tolist(), j + 1


def step_partition(state: GeneratorState) -> GeneratorState:
    """Process one full partition and roll the anchors forward."""
    found, k = _run(state.primes, state.k, reach=0)
    return GeneratorState(state.primes + tuple(found), k)


def first_n_primes(count: int, include_two: bool = True) -> list[int]:
    """The first `count` primes, starting at 2 (or 3 without include_two).

    Runs whole runs of partitions until enough primes accumulate, then
    truncates.  A run stops extending once its segment passes an upper
    bound for the last prime needed, which only limits the overshoot.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > DEFAULT_MAX_COUNT:
        raise ResourceLimitError(
            f"count {count} exceeds cap {DEFAULT_MAX_COUNT}"
        )

    needed = count - 1 if include_two else count
    reach = _prime_bound(needed + 1)  # the needed-th odd prime is p_(needed+1)
    start = initial_state()
    primes, k = list(start.primes), start.k
    while len(primes) < needed:
        found, k = _run(primes, k, reach)
        primes.extend(found)
    del primes[needed:]
    return [2] + primes if include_two else primes
