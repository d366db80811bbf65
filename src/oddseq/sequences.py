"""The main sequence of odd numbers 3, 5, 7, ... and its wheel subsequences.

Every prime except 2 lives in this sequence, so prime counting reduces to
counting its composite elements.  Elements and indices convert via

    element_at(n) = 3 + 2*n        index_of(u) = (u - 3) // 2

Indices may also be int64 numpy arrays: element_at and the closed-form
counters built on it then work elementwise, so a whole index range is
evaluated in one call.

A wheel is the subsequence of odds coprime to a fixed set of odd primes;
it repeats with period 2 * product(divisors) and still contains every
prime above the largest divisor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

U64_MAX = 2**64 - 1

# build_wheel enumerates period // 2 odd residues; above this it refuses
MAX_WHEEL_RESIDUES = 2**15
# wheel_elements lists about limit * len(offsets) / period elements; above
# this it refuses, as first_n_primes does above its DEFAULT_MAX_COUNT
MAX_WHEEL_ELEMENTS = 1_000_000


def check_index(n) -> None:
    """Raise unless index n, or each entry of an int64 array n, is in the domain.

    The domain is n >= 0 (ValueError) with an element 3 + 2*n that fits
    in 64 bits for an int and in int64 for an array (OverflowError).  Any
    other index is refused (ValueError): a float, a bool, a numpy scalar
    or an array of another dtype, since narrower ints and numpy scalars
    wrap and floats or bools give no exact count.
    """
    if isinstance(n, np.ndarray):
        if n.dtype != np.int64:
            raise ValueError(f"index array must be int64, got {n.dtype}")
        low, high = int(n.min(initial=0)), int(n.max(initial=0))
        top, bits = (2**63 - 1 - 3) // 2, "int64"
    elif type(n) is int:
        low = high = n
        top, bits = (U64_MAX - 3) // 2, "64-bit"
    else:
        raise ValueError("index must be an int or an int64 array,"
                         f" got {type(n).__name__}")
    if low < 0:
        raise ValueError(f"index must be >= 0, got {low}")
    if high > top:
        raise OverflowError(f"element at index {high} exceeds {bits} range")


def element_at(n):
    """Return the n-th odd number of the sequence, 3 + 2*n.

    An int64 index array gives the array of elements.
    """
    check_index(n)
    return 3 + 2 * n


def index_of(u: int) -> int:
    """Return the index of an element: the inverse of element_at."""
    if u < 3 or u % 2 == 0:
        raise ValueError(f"not a sequence element (odd, >= 3): {u}")
    return (u - 3) // 2


def floor_element(x: float | int) -> int:
    """Largest sequence element (odd number >= 3) that is <= x."""
    if x < 3:
        raise ValueError(f"no sequence element <= {x}")
    m = x if isinstance(x, int) else math.floor(x)
    return m if m % 2 else m - 1


def count_elements(x: float | int) -> int:
    """Number of sequence elements <= x, i.e. odd numbers in [3, x]."""
    return index_of(floor_element(x)) + 1


def _least_factor(u: int) -> int:
    """The least prime factor of u >= 2, by trial division: u when prime."""
    if u % 2 == 0:
        return 2
    for d in range(3, math.isqrt(u) + 1, 2):
        if u % d == 0:
            return d
    return u


def _is_odd_prime(p: int) -> bool:
    """Trial division, refused (OverflowError) when p*p leaves 64 bits."""
    if p < 3 or p % 2 == 0:
        return False
    if p * p > U64_MAX:
        raise OverflowError(f"p*p exceeds 64-bit range for p = {p}")
    return _least_factor(p) == p


@dataclass(frozen=True)
class WheelSpec:
    """A wheel: the odds coprime to `divisors`, periodic mod `period`.

    offsets are the residues the stream occupies within one period.
    seeds are the conventional starting values: for each residue class,
    the smallest prime above max(divisors).  For a single divisor 5 the
    seed list (7, 11, 13, 19) skips the composite 9, so seeds are not
    always the first stream elements; the stream itself is the plain
    coprime filter in increasing order.
    """

    divisors: tuple[int, ...]
    period: int
    offsets: tuple[int, ...]
    seeds: tuple[int, ...]


def build_wheel(divisors) -> WheelSpec:
    """Build the wheel for a set of distinct odd primes.

    Raises ValueError for an empty set, a repeated divisor, or any
    divisor that is not an odd prime, and ResourceLimitError when one
    period holds more than MAX_WHEEL_RESIDUES odd residues.
    """
    divs = tuple(sorted(divisors))
    if not divs:
        raise ValueError("divisor set must not be empty")
    if len(set(divs)) != len(divs):
        raise ValueError(f"repeated divisor in {divs}")
    # the cap goes first: it bounds the primality tests below as well
    period = 2 * math.prod(divs)
    if period // 2 > MAX_WHEEL_RESIDUES:
        raise ResourceLimitError(
            f"wheel of {divs} has {period // 2} odd residues per period,"
            f" above the cap {MAX_WHEEL_RESIDUES}"
        )
    for d in divs:
        if not _is_odd_prime(d):
            raise ValueError(f"divisor must be an odd prime, got {d}")

    offsets = tuple(
        r for r in range(1, period, 2) if all(r % d for d in divs)
    )

    top = max(divs)
    seeds = []
    for r in offsets:
        u = r
        while u <= top or not _is_odd_prime(u):
            u += period
        seeds.append(u)
    return WheelSpec(divs, period, offsets, tuple(sorted(seeds)))


def wheel_elements(spec: WheelSpec, limit: int) -> list[int]:
    """All wheel elements in [min(seeds), limit], strictly increasing.

    Returns an empty list when limit falls below the first seed, and
    raises ResourceLimitError, before enumerating, when the stream up to
    limit holds more than about MAX_WHEEL_ELEMENTS elements.
    """
    if limit * len(spec.offsets) > MAX_WHEEL_ELEMENTS * spec.period:
        raise ResourceLimitError(
            f"wheel stream up to {limit} has about"
            f" {limit * len(spec.offsets) // spec.period} elements,"
            f" above the cap {MAX_WHEEL_ELEMENTS}"
        )
    start = min(spec.seeds)
    out = []
    base = (start // spec.period) * spec.period
    while base <= limit:
        for r in spec.offsets:
            u = base + r
            if u > limit:
                break
            if u >= start:
                out.append(u)
        base += spec.period
    return out
