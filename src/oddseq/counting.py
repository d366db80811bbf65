"""Composite-class counters and the prime-counting assembly.

With M_n odd numbers in [3, U_n] and W_n of them composite,

    pi(x) = M_n - W_n + 1          U_n = largest odd <= x

since 2 is the only prime outside the odd sequence.  W_n comes either
from the sieve oracle (exact) or from an alternating combination of
closed-form class counts (the `formula` strategy).  The formula route
undercounts once products of three distinct primes appear (105 enters
at index 51) and its residual is surfaced by the `verify` command, never
hidden: class counts overlap and the combination does not fully resolve
the double counting.

Class counters follow the ascending-pair convention: a pair (k, l) is
counted when both are odd, l >= k, and the product fits.  That makes
9*5 a (3, 15) pair rather than a square pair, so permutations never
double count.

The counters and the formula route of assemble_w take an int index or
an int64 index array.  Their sums run over every term that fits the
largest element, and each term applies from its first value on: an int
sums the terms as exact Python ints, and an array adds each term to the
tail of the sorted elements that its first value reaches (_tail_sum).
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import FrozenInstanceError
from enum import Enum

import numpy as np

from .errors import ResourceLimitError
from .oracle import DEFAULT_MAX_LIMIT, SieveTable
from .sequences import element_at, floor_element

# the pair counters sum one Python term per odd k up to a root of u, at
# about 0.4 us a term for an int u: this many take about 1 s.  The root
# of an array lists one int64 power per base, under the same cap.
MAX_K_TERMS = 2_500_000


def _largest(v) -> int:
    """v itself for an int; the largest entry of an int array (0 if empty)."""
    return int(v.max(initial=0)) if isinstance(v, np.ndarray) else v


def _odd_ks(top: int) -> range:
    """The odd k in [3, top], refused above MAX_K_TERMS of them."""
    ks = range(3, top + 1, 2)
    if len(ks) > MAX_K_TERMS:
        raise ResourceLimitError(
            f"{len(ks)} terms in k exceed cap {MAX_K_TERMS}"
        )
    return ks


def _tail_sum(u, terms, plus: int):
    """Sum of (u - first) // step + plus over the (first, step) terms
    whose first value u has reached.

    An int u sums exact Python ints, so it holds above 2**63.  An array
    u is sorted if it is not ascending already, one searchsorted finds
    where each term starts, and each term is added to that tail alone.
    """
    if not isinstance(u, np.ndarray):
        return sum((u - first) // step + plus for first, step in terms
                   if u >= first)
    flat = u.ravel()
    order = None
    if (flat[1:] < flat[:-1]).any():
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
    terms = list(terms)
    starts = np.searchsorted(flat, [first for first, _ in terms]).tolist()
    total = np.zeros_like(flat)
    buffer = np.empty_like(flat)
    for (first, step), start in zip(terms, starts):
        tail = buffer[start:]
        # (u - first) // step + plus, with plus folded into the offset
        np.subtract(flat[start:], first - plus * step, out=tail)
        tail //= step
        total[start:] += tail
    if order is not None:
        total[order] = total.copy()
    return total.reshape(u.shape)


class Strategy(str, Enum):
    """How assemble_w / pi_of obtain the composite count."""

    ORACLE = "oracle"
    FORMULA = "formula"


def square_base_bound(n: int) -> int:
    """Largest odd s >= 3 whose square still fits below 3 + 2*n."""
    if n < 3:
        raise ValueError(f"no odd square <= {3 + 2 * n}; need index >= 3")
    s = math.isqrt(element_at(n))
    return s if s % 2 else s - 1


def nth_root_floor(value, j: int):
    """Exact floor(value ** (1/j)) by binary search on integers.

    Floating-point roots misround at perfect-power boundaries, which is
    precisely where the power counters need exactness.  For an int64
    array the roots are ranks among the exact powers 1**j, 2**j, ...,
    refused (ResourceLimitError) above MAX_K_TERMS bases.
    """
    low = int(value.min(initial=0)) if isinstance(value, np.ndarray) else value
    if low < 0 or j < 1:
        raise ValueError(f"need value >= 0 and j >= 1, got {low}, {j}")
    if j == 1:
        return value
    if isinstance(value, np.ndarray):
        top = nth_root_floor(_largest(value), j)
        if top > MAX_K_TERMS:
            raise ResourceLimitError(f"{top} bases exceed cap {MAX_K_TERMS}")
        bases = np.arange(1, top + 1)
        # a base above 1 means 2**j fits in int64; [1] ** j is [1] for any j
        powers = bases ** j if len(bases) > 1 else bases
        return np.searchsorted(powers, value, "right")
    if value < 2:
        return value
    if value.bit_length() <= j:  # 2**j > value
        return 1
    lo, hi = 1, 1 << (value.bit_length() // j + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**j <= value:
            lo = mid
        else:
            hi = mid - 1
    return lo


def count_kl(n):
    """Pairs (k, l), odd l >= k >= 3, with k*l <= 3 + 2*n.

    Counts with multiplicity: 45 contributes as (3, 15) and (5, 9).
    """
    return _count_power_pairs(1, element_at(n))


def count_kkl(n):
    """Pairs (k, l), odd l >= k >= 3, with k*k*l <= 3 + 2*n."""
    return _count_power_pairs(2, element_at(n))


def count_kkl_classic(n):
    """The classic square-pair form, kept for comparison.

    Its per-k term lets the cofactor range over every element l >= 3
    instead of l >= k, so it drifts above count_kkl once 75 = 5*5*3
    enters at index 36.  `verify` reports the divergence.
    """
    u = element_at(n)
    ks = _odd_ks(math.isqrt(_largest(u)))
    return _tail_sum(u, ((k * k, 2 * k * k) for k in ks), 0)


def count_kpow(j: int, n):
    """Odd bases k >= 3 with k**j <= 3 + 2*n."""
    # the odd bases up to root are 1, 3, ..., and 1 is not counted
    return (nth_root_floor(element_at(n), j) - 1) // 2


# -- formula-strategy helper terms ---------------------------------------


def _count_power_pairs(j: int, u):
    """Pairs (k, l), odd l >= k >= 3, with k**j * l <= u."""
    ks = _odd_ks(nth_root_floor(_largest(u), j + 1))
    # l = k, k + 2, ...: the first product is k**(j+1), then every 2 * k**j
    return _tail_sum(u, ((k ** (j + 1), 2 * k**j) for k in ks), 1)


def _prime_prefixes(
    primes: list[int], size: int, top: int
) -> list[tuple[int, int]]:
    """(product, i) for each ascending run of size primes, ending at
    primes[i], that a factor >= primes[i] can still follow within top.

    Each level grows the runs by one prime and stops at the first prime
    whose power, standing in for the primes still to come, passes top.
    """
    runs = [(1, -1)]
    for left in range(size + 1, 1, -1):
        grown = []
        for product, last in runs:
            for i in range(last + 1, len(primes)):
                if product * primes[i] ** left > top:
                    break
                grown.append((product * primes[i], i))
        runs = grown
    return runs


def _count_distinct_prime_products(u, runs, table: SieveTable):
    """Squarefree products of r distinct odd primes <= u.

    runs are the (product, i) runs of r - 1 primes that _prime_prefixes
    walked to the largest u.  Each takes a larger last prime up to
    max(u) // product: an int u counts these off table's rank, an array
    u reads its counts off the sorted products.  table reaches max(u)
    over the product of the r - 1 smallest odd primes.
    """
    top = _largest(u)
    if not isinstance(u, np.ndarray):  # primes[i] is odd prime number i + 1
        return sum(table.odd_prime_rank((top // product - 3) // 2) - i - 1
                   for product, i in runs)
    last = table.primes()[1:]
    ends = np.searchsorted(last, [top // p for p, _ in runs], "right")
    products = [np.empty(0, dtype=np.int64)]
    products += [p * last[i + 1 : end] for (p, i), end in zip(runs, ends)]
    return np.searchsorted(np.sort(np.concatenate(products)), u, "right")


def _w_formula_terms(n):
    """The alternating class combination, one (name, count, weight) at a time.

    W_n is the sum of weight * count.  Term mapping: the pair count, then
    for each power j >= 2 a subtracted k**j-pair count and an added
    (j+1)-power count, then the two-prime-cofactor triples, then (r - 1)
    times each squarefree r-prime product count.  Overlap between classes
    is why the total is approximate; the exact route is Strategy.ORACLE.
    For an index array every term is evaluated once over the whole range;
    a class that has no member yet at some index contributes zero there.
    """
    u = element_at(n)
    top = _largest(u)
    if top > DEFAULT_MAX_LIMIT:
        # the table below grows with top / 15, so keep the sieve's cap
        raise ResourceLimitError(
            f"formula element {top} exceeds cap {DEFAULT_MAX_LIMIT}"
        )
    # the one prime source: multi:3's last primes reach top // 15, the
    # prefix walks' isqrt(top // 3) + 1; 64 holds the first r primes
    table = SieveTable.build(max(top // 15, 64))
    primes = table.primes(max(math.isqrt(top // 3) + 1, 64))[1:].tolist()
    yield "kl", count_kl(n), 1

    j = 2
    while 3 ** (j + 1) <= top:
        if j == 2:
            yield "kkl", count_kkl(n), -1
        else:
            yield f"kjl:{j}", _count_power_pairs(j, u), -1
        yield f"kpow:{j + 1}", count_kpow(j + 1, n), 1
        j += 1

    # the 2-prime runs, walked once: k1*k2 takes l = k2, k2 + 2, ..., so
    # its products start at k1*k2*k2 and step by 2*k1*k2; multi:3 reads them
    runs = _prime_prefixes(primes, 2, top)
    yield "two_prime_l", _tail_sum(
        u, [(p * primes[i], 2 * p) for p, i in runs], 1), -1

    r = 3
    # under the cap the first 9 odd primes, all below 64, multiply past top
    while math.prod(primes[:r]) <= top:
        if r > 3:
            runs = _prime_prefixes(primes, r - 1, top)
        yield f"multi:{r}", _count_distinct_prime_products(u, runs, table), 1 - r
        r += 1


def assemble_w(
    n, strategy: Strategy = Strategy.ORACLE, table: SieveTable | None = None
):
    """Number of distinct composites among the odds 3 .. 3 + 2*n.

    Strategy.ORACLE is the w_n of pi_of at element 3 + 2*n (exact);
    Strategy.FORMULA evaluates the closed-form class combination, whose
    deviation is reported by `verify` rather than patched over.  Under
    Strategy.FORMULA n may be an int64 index array, giving every W_n of
    the range in one pass.
    """
    if type(strategy) is not Strategy:
        strategy = Strategy(strategy)
    if strategy is Strategy.FORMULA:
        # one term array at a time: the terms are not kept
        return sum(weight * count for _, count, weight in _w_formula_terms(n))
    if isinstance(n, np.ndarray):
        raise ValueError("Strategy.ORACLE takes one index; for a range use"
                         " SieveTable.odd_composite_count_upto")
    return pi_of(element_at(n), strategy, table).w_n


class PiBreakdown(namedtuple(
        "PiBreakdown", "x strategy n m_n w_n m_corr pi class_counts")):
    """pi(x) with the quantities it was assembled from.

    Satisfies pi = m_n - w_n + m_corr; m_corr is always 1, standing for
    the prime 2 which the odd sequence omits.  n is None below 3, where
    the sequence is empty and pi counts only the prime 2.

    An immutable record backed by a tuple, so that making one costs one
    tuple rather than a setattr per field.  Every way of making one (the
    constructor, _make, _replace, pickle and copy) checks the balance;
    _balanced, for pi_of, computes pi from it instead.  Assigning or
    deleting an attribute raises FrozenInstanceError.  class_counts
    defaults to a fresh empty dict.  dataclasses.replace and asdict do
    not apply; to_dict() gives a plain dict.
    """

    __slots__ = ()

    def __new__(cls, x, strategy, n, m_n, w_n, m_corr, pi, class_counts=None):
        if pi != m_n - w_n + m_corr:
            raise ValueError("breakdown arithmetic does not balance")
        if class_counts is None:
            class_counts = {}
        return tuple.__new__(
            cls, (x, strategy, n, m_n, w_n, m_corr, pi, class_counts)
        )

    @classmethod
    def _balanced(cls, x, strategy, n, m_n, w_n, class_counts):
        """The record with pi = m_n - w_n + 1: it balances by construction."""
        return tuple.__new__(
            cls, (x, strategy, n, m_n, w_n, 1, m_n - w_n + 1, class_counts)
        )

    # namedtuple's _make calls tuple.__new__ directly; _replace calls _make
    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "strategy": self.strategy,
            "n": self.n,
            "m_n": self.m_n,
            "w_n": self.w_n,
            "m": self.m_corr,
            "pi": self.pi,
            "class_counts": dict(self.class_counts),
        }


def pi_of(
    x: float | int,
    strategy: Strategy = Strategy.ORACLE,
    table: SieveTable | None = None,
) -> PiBreakdown:
    """Count primes <= x through the odd-sequence decomposition.

    Exact under Strategy.ORACLE: x is floored once to its element u, and
    W_n is read off table, or off a table built to u when none is given
    or it does not cover u.  A prebuilt table makes each call O(1).
    """
    if x < 2:
        raise ValueError(f"pi is defined for x >= 2, got {x}")
    if type(strategy) is not Strategy:
        strategy = Strategy(strategy)
    name = strategy._value_  # the plain str; .value is a slower property
    if x < 3:
        return PiBreakdown._balanced(x, name, None, 0, 0, {})

    u = floor_element(x)  # odd and >= 3: its index needs no check
    n = (u - 3) // 2
    m_n = n + 1
    if name == "oracle":
        if table is None or table.limit < u:
            # element_at refuses a u past 64 bits before the sieve cap does
            table = SieveTable.build(element_at(n))
        # 3 <= u <= limit here, so the rank of index n needs no check
        w_n = m_n - table.odd_prime_rank(n)
        counts = {}
    else:
        terms = list(_w_formula_terms(n))
        counts = {term: count for term, count, _ in terms}
        w_n = sum(weight * count for _, count, weight in terms)
    return PiBreakdown._balanced(x, name, n, m_n, w_n, counts)
