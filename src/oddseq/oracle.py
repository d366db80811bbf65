"""Ground truth for differential testing: sieve, enumerators, factorization.

Everything here is deliberately brute force and shares no arithmetic with
the closed-form counters it validates.  The sieve is bit-packed (one bit
per odd number) and built segment by segment, so the only full-size
array is the packed bitmap.  Prime-rank queries read a cumulative count
per 64-odd word and popcount that one word.
"""
from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ResourceLimitError
from .sequences import _is_odd_prime, _least_factor, element_at

MAGIC = b"ODSQ"
_HEADER = struct.Struct("<4sQ")  # magic, u64 limit
DEFAULT_MAX_LIMIT = 10**8

_SEGMENT_ODDS = 2**20  # odds sieved at a time: a 1 MB bool buffer
# the bits 0..b of a 64-odd word, as Python ints: a numpy index masks exactly
_LOW_BITS = tuple((2 << b) - 1 for b in range(64))


def _sieve_segment(segment: np.ndarray, lo: int, primes) -> np.ndarray:
    """Sieve segment, the odds from 3 + 2*lo on, by primes; return it.

    Each prime p clears its odd multiples from max(p*p, 3 + 2*lo) on.
    This is the one strike loop: the table, the small primes and the
    prime generator all sieve through it.
    """
    segment.fill(True)
    m = len(segment)
    for p in primes:
        # p*p and the odd multiples above it: odd indices (p*p - 3) / 2 + k*p
        i = (p * p - 3) // 2 - lo
        if i < 0:
            i %= p
        elif i >= m:
            break
        segment[i::p].fill(False)  # far cheaper than `= False`
    return segment


def _odd_primes_upto(limit: int) -> list[int]:
    """The odd primes <= limit, ascending."""
    if limit < 3:
        return []
    primes = _odd_primes_upto(math.isqrt(limit))
    segment = _sieve_segment(np.empty((limit - 1) // 2, bool), 0, primes)
    return (3 + 2 * np.flatnonzero(segment)).tolist()


class NotASieveFile(ValueError):
    """A file whose first bytes are neither the sieve magic nor a prefix of it."""


class SieveTable:
    """Primality over [2, limit], stored one bit per odd number.

    bit i of the packed map corresponds to the odd number 3 + 2*i
    (little-endian bit order within each byte).
    """

    def __init__(self, limit: int, packed: np.ndarray):
        self.limit = limit
        self.packed = packed
        self._rank = None  # built by the first rank query

    @classmethod
    def build(cls, limit: int) -> "SieveTable":
        """Segmented sieve of Eratosthenes over the odds up to limit."""
        if limit < 2:
            raise ValueError(f"limit must be >= 2, got {limit}")
        if limit > DEFAULT_MAX_LIMIT:
            raise ResourceLimitError(
                f"sieve limit {limit} exceeds cap {DEFAULT_MAX_LIMIT}"
            )
        n_odds = (limit - 1) // 2
        primes = _odd_primes_upto(math.isqrt(limit))
        packed = np.empty((n_odds + 7) // 8, dtype=np.uint8)
        buffer = np.empty(min(n_odds, _SEGMENT_ODDS), dtype=bool)
        for lo in range(0, n_odds, _SEGMENT_ODDS):
            segment = _sieve_segment(buffer[: n_odds - lo], lo, primes)
            bits = np.packbits(segment, bitorder="little")
            # lo is a multiple of 8, so each segment starts on a byte
            packed[lo // 8 : lo // 8 + len(bits)] = bits
        return cls(limit, packed)

    # -- queries ---------------------------------------------------------

    def _index(self, x: float | int, low: int) -> int:
        """Index (u - 3) // 2 of the largest odd u <= x, for x in [low, limit]."""
        # any real x: compared before it is floored, so nan and inf are refused
        if not low <= x < self.limit + 1:
            raise ValueError(f"{x} outside sieve range [{low}, {self.limit}]")
        return (math.floor(x) - 3) // 2

    def is_prime(self, u: float | int) -> bool:
        i = self._index(u, 2)
        if u != 3 + 2 * i:  # 2, or an even or fractional u
            return bool(u == 2)
        return bool((self.packed[i >> 3] >> (i & 7)) & 1)

    def _build_rank(self) -> None:
        """Odd primes before each word of 64 odds (8 packed bytes)."""
        n_words = len(self.packed) // 8
        words = self.packed[: 8 * n_words].view(np.uint64)
        # build and load both cap the limit, so every count fits in uint32
        rank = np.zeros(n_words + 1, np.uint32)
        rank[1:] = np.bitwise_count(words)
        np.cumsum(rank, out=rank)  # in place: no full-size temporary
        # a partial last word, read bytewise once
        self._last_word = int.from_bytes(self.packed[8 * n_words :], "little")
        # memoryviews index to Python ints
        self._words = memoryview(words)
        self._rank = memoryview(rank)

    def odd_prime_rank(self, i: int) -> int:
        """Number of odd primes among the odds 3 .. 3+2*i (i unchecked)."""
        if self._rank is None:
            self._build_rank()
        w = i >> 6
        try:
            word = self._words[w]
        except IndexError:  # i lies in the partial last word
            word = self._last_word
        return self._rank[w] + (word & _LOW_BITS[i & 63]).bit_count()

    def prime_count(self, x: float | int) -> int:
        """Exact number of primes <= x."""
        i = self._index(x, 2)
        return 1 + self.odd_prime_rank(i) if i >= 0 else 1

    def odd_composite_count(self, u: float | int) -> int:
        """Number of composite odd numbers in [3, u]."""
        i = self._index(u, 3)
        return (i + 1) - self.odd_prime_rank(i)

    def odd_composite_count_upto(self, n_max: int) -> np.ndarray:
        """odd_composite_count(3 + 2*n) for every index n in 0..n_max."""
        n = self._index(3 + 2 * n_max, 3)
        primes = np.unpackbits(self.packed, count=n + 1, bitorder="little")
        return np.cumsum(1 - primes, dtype=np.int64)

    def primes(self, upto: float | int | None = None) -> np.ndarray:
        """All primes <= upto (default: the sieve limit), ascending."""
        n = 1 + self._index(self.limit if upto is None else upto, 2)
        bits = np.unpackbits(self.packed, count=n, bitorder="little")
        odds = 3 + 2 * np.flatnonzero(bits).astype(np.int64)
        return np.concatenate([[2], odds])

    # -- persistence -----------------------------------------------------

    def dump(self, path: str | Path) -> None:
        """Write magic 'ODSQ', u64 little-endian limit, raw bitmap.

        The bytes go to a temporary file in the same directory, which
        then replaces path, so a reader never sees a partial file.
        """
        path = Path(path)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_HEADER.pack(MAGIC, self.limit))
                fh.write(self.packed.tobytes())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "SieveTable":
        """Read a file written by dump, its header first.

        Raises NotASieveFile when the file does not start with the magic
        (or, if shorter, a prefix of it), and ValueError when it is
        truncated or inconsistent or its limit lies outside [2,
        DEFAULT_MAX_LIMIT], before reading a refused file's body.  So a
        loaded table is one that build could have made.
        """
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if head[:4] != MAGIC[: len(head)]:
                raise NotASieveFile(f"bad sieve file magic: {head[:4]!r}")
            if len(head) < _HEADER.size:
                raise ValueError(
                    f"sieve file has {len(head)} bytes, shorter than its header"
                )
            _, limit = _HEADER.unpack(head)
            if not 2 <= limit <= DEFAULT_MAX_LIMIT:
                raise ValueError(f"sieve file limit {limit} outside"
                                 f" [2, {DEFAULT_MAX_LIMIT}]")
            n_bytes = ((limit - 1) // 2 + 7) // 8
            if os.fstat(fh.fileno()).st_size == _HEADER.size + n_bytes:
                packed = np.empty(n_bytes, dtype=np.uint8)
                # a file that shrank since its size was read reads short
                if fh.readinto(packed) == n_bytes:
                    return cls(limit, packed)
        raise ValueError("sieve file bitmap length does not match limit")


# each class kind, and whether its token carries a parameter
_KINDS = {"3": False, "kl": False, "kkl": False,
          "p": True, "kpow": True, "multi": True}


@dataclass(frozen=True)
class CompositePattern:
    """A composite class; parse is the one reader of its token: p:05 is p:5."""

    kind: str
    param: int | None = None

    def __post_init__(self):
        if _KINDS.get(self.kind) != (self.param is not None):
            raise ValueError(f"unknown class {str(self)!r}")
        if self.kind == "p":
            q = self.param
            if q < 5 or q % 2 == 0:
                raise ValueError(f"counter needs an odd prime >= 5, got {q}")
            # _is_odd_prime refuses a q whose square leaves 64 bits
            if not _is_odd_prime(q):
                d = _least_factor(q)
                raise ValueError(f"counter needs a prime, got {q} = {d}*{q // d}")
        elif self.kind == "kpow" and self.param < 1:
            raise ValueError(f"exponent must be >= 1, got {self.param}")
        elif self.kind == "multi" and self.param < 2:
            raise ValueError("multi needs a factor count >= 2")

    @classmethod
    def parse(cls, text: str) -> "CompositePattern":
        kind, colon, arg = text.partition(":")
        if _KINDS.get(kind) != bool(colon):
            raise ValueError(f"unknown class {text!r}")
        return cls(kind, int(arg) if colon else None)

    def __str__(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param}"


KL = CompositePattern("kl")
KKL = CompositePattern("kkl")


def kpow(j: int) -> CompositePattern:
    return CompositePattern("kpow", j)


def multi(r: int) -> CompositePattern:
    return CompositePattern("multi", r)


def _instances(pattern: CompositePattern,
               u_max: int) -> tuple[list[range], list[int]]:
    """The index (value - 3) // 2 of every pattern instance <= u_max.

    Returns (runs, points): 3, p:<q>, kl and kkl come as ascending index
    runs, kpow and multi as single indices.  An index comes once for each
    tuple with that value.  Refuses u_max above DEFAULT_MAX_LIMIT.

    kl and kkl have one run per k, and pattern 3 is the k = 3 run of kl,
    3*m for odd m >= 3.  p:<q> has one run per start m in q, q+2, q+4
    that 3 does not divide: q*m then steps by 6q, its index by 3q.
    """
    if u_max > DEFAULT_MAX_LIMIT:
        raise ResourceLimitError(
            f"enumeration bound {u_max} exceeds cap {DEFAULT_MAX_LIMIT}"
        )
    kind, param = pattern.kind, pattern.param
    stop = (u_max - 3) // 2 + 1
    runs, points = [], []
    if kind == "p":
        runs = [range((param * m - 3) // 2, stop, 3 * param)
                for m in (param, param + 2, param + 4) if m % 3]
    elif kind == "kpow":
        k = 3
        # 3**param > u once param reaches u's bit length: never build it
        while param < u_max.bit_length() and k**param <= u_max:
            points.append((k**param - 3) // 2)
            k += 2
    elif kind == "multi":
        # 3**param > u once param reaches u's bit length: no prime list
        primes = (_odd_primes_upto(u_max // 3 ** (param - 1) + 1)
                  if param < u_max.bit_length() else [])

        def descend(start: int, remaining: int, product: int) -> None:
            if remaining == 0:
                points.append((product - 3) // 2)
                return
            for i in range(start, len(primes)):
                p = primes[i]
                if product * p**remaining > u_max:
                    break
                descend(i + 1, remaining - 1, product * p)

        descend(0, param, 1)
    else:
        j = 2 if kind == "kkl" else 1
        k = 3
        while k**j * k <= u_max:
            # l = k, k + 2, ...: the value steps by 2 * k**j, its index by k**j
            runs.append(range((k**j * k - 3) // 2, stop, k**j))
            if kind == "3":
                break
            k += 2
    return runs, points


def count_class(pattern: CompositePattern, n: int) -> int:
    """Exhaustively count pattern instances with value <= 3 + 2*n.

    Counts ordered tuples, matching each class definition: 3*m for odd
    m >= 3; q*m for odd m >= q with 3 not dividing m; (k, l) with odd
    3 <= k <= l for kl and kkl; odd bases for kpow; ascending tuples of
    distinct odd primes for multi.
    """
    runs, points = _instances(pattern, element_at(n))
    return sum(map(len, runs)) + len(points)


def count_class_upto(pattern: CompositePattern, n_max: int) -> np.ndarray:
    """count_class for every index 0..n_max in one pass.

    Counts each instance once at the index where its value enters the
    sequence (a strided add per run), then accumulates.  Built for
    differential sweeps; the counts are the only array.
    """
    runs, points = _instances(pattern, element_at(n_max))
    counts = np.bincount(np.asarray(points, np.int64), minlength=n_max + 1)
    for run in runs:  # each run stops at n_max + 1, the end of counts
        counts[run.start :: run.step] += 1
    return np.cumsum(counts, out=counts)


def p_composite_values(p: int, n: int) -> list[int]:
    """The p-composites with value <= 3 + 2*n, increasing.

    Enumerated directly from the definition (p times odd m >= p with
    3 not dividing m); the closed-form counters are checked against it.
    """
    runs, _ = _instances(CompositePattern("p", p), element_at(n))
    # sorted meets the runs as two ascending stretches and merges them once
    return sorted(chain.from_iterable(
        range(3 + 2 * run.start, 3 + 2 * run.stop, 2 * run.step) for run in runs))


@dataclass(frozen=True)
class AscendingFactorization:
    """Prime factorization with strictly ascending primes."""

    factors: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        out = 1
        for p, m in self.factors:
            out *= p**m
        return out

    def __iter__(self):
        return iter(self.factors)


def factorize_ascending(u: int) -> AscendingFactorization:
    """Trial-division factorization, primes in ascending order."""
    if u < 2:
        raise ValueError(f"need an integer >= 2, got {u}")
    factors = []
    rest = u
    while rest > 1:
        d, m = _least_factor(rest), 0
        while rest % d == 0:
            rest //= d
            m += 1
        factors.append((d, m))
    return AscendingFactorization(tuple(factors))
