"""Closed-form counters for p-composites of the odd sequence.

A p-composite (p an odd prime >= 5) is p times an odd number m >= p with
3 not dividing m; for p = 3 it is any composite odd multiple of 3.  The
first p-composite is p*p, at index (p*p - 3) / 2, and further ones land
every p indices, with every third candidate dropped as a multiple of 3.

That structure gives the exact counter count_p_composites.  The classic
variants keep two earlier closed forms for comparison: for p = 7 and 11
they agree with enumeration everywhere, while the p = 5 form undercounts
(first at index 11, where 25 enters).  The `verify` CLI command tracks
the divergence.

Every counter takes an int index or an int64 index array: a term that
only exists from some threshold on is multiplied by (n >= threshold), so
one body of plain arithmetic serves a single index and a whole range.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .oracle import CompositePattern
from .sequences import check_index

CLASSIC_PRIMES = (5, 7, 11)


def threshold_index(p: int) -> int:
    """Index at which p*p enters the sequence: (p*p - 3) // 2."""
    return (p * p - 3) // 2


@dataclass(frozen=True)
class ZCounter:
    """Parameters of the exact closed form for one prime.

    The count up to index n is, for n past the threshold,

        1 + q - floor(q/3 + phase)      with q = (n - threshold) // p

    where the subtracted floor removes candidates divisible by 3.  The
    phase is 2/3 when p = 1 (mod 3) and 1/3 when p = 2 (mod 3).
    """

    prime: int
    threshold: int
    period: int
    phase: Fraction

    @classmethod
    def for_prime(cls, p: int) -> "ZCounter":
        CompositePattern("p", p)  # validates p: an odd prime >= 5
        phase = Fraction(2, 3) if p % 3 == 1 else Fraction(1, 3)
        return cls(p, threshold_index(p), p, phase)

    def count(self, n):
        q = (n - self.threshold) // self.period
        return (1 + q - (q + self.phase.numerator) // 3) * (n >= self.threshold)


def count_three_composites(n):
    """Composite odd multiples of 3 up to index n: 9, 15, 21, ...

    They sit at indices 3, 6, 9, ..., so the count is floor(n / 3).
    """
    check_index(n)
    return n // 3


@lru_cache(maxsize=None)
def _counter(p: int) -> ZCounter:
    return ZCounter.for_prime(p)


def count_p_composites(p: int, n):
    """Exact count of p-composites with value <= 3 + 2*n.

    Equals len(oracle.p_composite_values(p, n)) for every prime p >= 5.
    """
    check_index(n)
    return _counter(p).count(n)


def count_p_composites_classic(p: int, n):
    """The classic closed forms, kept verbatim for p in (5, 7, 11).

    For 7 and 11 these match count_p_composites; the 5-form lacks the
    leading 1 + q term and undercounts from index 11 on.
    """
    check_index(n)
    if p not in CLASSIC_PRIMES:
        raise ValueError(f"classic form exists only for {CLASSIC_PRIMES}")
    if p == 5:
        return ((n - 11) // 5 + 1) // 3 * (n >= 11)
    if p == 7:
        q = (n - 23) // 7
        return (1 + q - (q + 2) // 3) * (n >= 23)
    q = (n - 59) // 11
    return (1 + q - (q + 1) // 3) * (n >= 59)
