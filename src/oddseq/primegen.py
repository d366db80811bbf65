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

The index cursor of the paper steps by a through the elements a*u of
the odd sequence, so a partition ends on the index of a*(b*b - 2), the
element whose quotient is the last odd below b*b.  b*b itself is never a
candidate: b only enters the moduli at rollover.  The loop guards
"strict" and "inclusive" of that walk differ only in how they step over
b*b, so they enumerate the same candidates; `guard` is accepted and
validated for compatibility but has no effect.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
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


def _advance(
    primes: list[int],
    moduli: list[int],
    a: int,
    b: int,
    partition: int,
    last_element: int,
) -> tuple[int, int, int, int, int]:
    """Run one partition plus rollover; mutates primes and moduli.

    moduli must be the prefix primes[:len(moduli)], so the prime after b
    sits at primes[len(moduli)] once b has joined the moduli.
    """
    if a * b * b > U64_MAX:
        raise OverflowError("partition endpoint exceeds 64-bit range")
    lo = 7 if partition == 1 else last_element + 2
    hi = b * b - 2
    keep = np.ones((hi - lo) // 2 + 1, dtype=bool)
    # slot s holds lo + 2*s, so the first odd multiple of m at or above
    # lo sits at the least s >= 0 with 2*s = -lo (mod m); lo + m is even
    mods = np.asarray(moduli, dtype=np.int64)
    starts = (-((lo + mods) // 2)) % mods
    for s, m in zip(starts.tolist(), moduli):
        keep[s::m] = False
    primes.extend((lo + 2 * np.flatnonzero(keep)).tolist())

    moduli.append(b)
    index = ((b * b - 2) * a - 3) // 2
    return b, primes[len(moduli)], index, partition + 1, primes[-1]


def step_partition(state: GeneratorState, guard: str = "strict") -> GeneratorState:
    """Process one full partition and roll the anchors forward."""
    _check_guard(guard)
    primes = list(state.primes)
    moduli = list(state.moduli)
    a, b, index, partition, last = _advance(
        primes,
        moduli,
        state.prime_a,
        state.prime_b,
        state.partition,
        state.last_element,
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

    Runs whole partitions until enough primes accumulate, then truncates.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > max_count:
        raise ResourceLimitError(f"count {count} exceeds cap {max_count}")
    _check_guard(guard)

    needed = count - 1 if include_two else count
    state = initial_state()
    primes = list(state.primes)
    moduli = list(state.moduli)
    a, b = state.prime_a, state.prime_b
    partition, last = state.partition, state.last_element
    while len(primes) < needed:
        a, b, _, partition, last = _advance(
            primes, moduli, a, b, partition, last
        )
    head = primes[:needed]
    return [2] + head if include_two else head
