import math

import numpy as np
import pytest

from oddseq import (
    U64_MAX,
    build_wheel,
    count_elements,
    element_at,
    floor_element,
    index_of,
    wheel_elements,
)
from oddseq.errors import ResourceLimitError
from oddseq.sequences import MAX_WHEEL_ELEMENTS, _is_odd_prime


def test_element_at_values():
    assert element_at(0) == 3
    assert element_at(11) == 25
    assert element_at(59) == 121


def test_element_at_rejects_negative_index():
    with pytest.raises(ValueError, match=r"^index must be >= 0, got -1$"):
        element_at(-1)


def test_element_at_rejects_past_64_bit():
    top = (U64_MAX - 3) // 2
    assert element_at(top) == U64_MAX
    with pytest.raises(OverflowError, match=(
            rf"^element at index {top + 1} exceeds 64-bit range$")):
        element_at(top + 1)


def test_index_of_values():
    assert index_of(3) == 0
    assert index_of(25) == 11
    assert index_of(49) == 23


@pytest.mark.parametrize("bad", [2, 1, 0, -5, 4, 10, 9.0, np.int64(9)])
def test_index_of_rejects_non_elements(bad):
    with pytest.raises(ValueError):
        index_of(bad)


def test_floor_element_values():
    assert floor_element(10) == 9
    assert floor_element(12.5) == 11
    assert floor_element(3) == 3
    assert floor_element(4) == 3
    assert floor_element(1_000_001) == 1_000_001


def test_floor_element_rejects_below_three():
    with pytest.raises(ValueError):
        floor_element(2.999)


def test_count_elements_values():
    assert count_elements(10) == 4  # 3, 5, 7, 9
    assert count_elements(3) == 1
    assert count_elements(100) == 49


def test_count_elements_matches_enumeration():
    for x in range(3, 3000):
        brute = sum(1 for u in range(3, x + 1) if u % 2)
        assert count_elements(x) == brute, x


def test_round_trip_spot():
    for n in (0, 1, 17, 999, 10**6):
        assert index_of(element_at(n)) == n


WHEEL_CASES = [
    ((3,), 6, (5, 7)),
    ((5,), 10, (7, 11, 13, 19)),
    ((3, 5), 30, (7, 11, 13, 17, 19, 23, 29, 31)),
]


@pytest.mark.parametrize("divisors,period,seeds", WHEEL_CASES)
def test_build_wheel_pinned_specs(divisors, period, seeds):
    spec = build_wheel(divisors)
    assert spec.period == period
    assert spec.seeds == seeds
    assert len(spec.offsets) == len(seeds)


def test_build_wheel_offsets_cover_coprime_residues():
    spec = build_wheel([3, 5])
    assert spec.offsets == tuple(
        r for r in range(1, 30, 2) if r % 3 and r % 5
    )


@pytest.mark.parametrize("bad", [[], [3, 3], [2], [9], [3, 15]])
def test_build_wheel_rejects_bad_divisors(bad):
    with pytest.raises(ValueError):
        build_wheel(bad)


def test_wheel_elements_examples():
    assert wheel_elements(build_wheel([3]), 20) == [5, 7, 11, 13, 17, 19]
    assert wheel_elements(build_wheel([3, 5]), 31) == [
        7, 11, 13, 17, 19, 23, 29, 31,
    ]
    assert wheel_elements(build_wheel([5]), 7) == [7]


def test_wheel_elements_below_first_seed_is_empty():
    assert wheel_elements(build_wheel([3]), 4) == []
    assert wheel_elements(build_wheel([3]), 0) == []
    assert wheel_elements(build_wheel([3]), -10**30) == []


@pytest.mark.parametrize("divisors", [(3,), (5,), (3, 5), (3, 7), (5, 11)])
def test_wheel_elements_equal_coprime_filter(divisors):
    spec = build_wheel(divisors)
    limit = 5000
    got = wheel_elements(spec, limit)
    start = min(spec.seeds)
    want = [
        u for u in range(start, limit + 1, 2)
        if all(u % d for d in divisors)
    ]
    assert got == want


def test_wheel_stream_contains_all_primes_above_divisors(table):
    for divisors in [(3,), (5,), (3, 5)]:
        spec = build_wheel(divisors)
        stream = set(wheel_elements(spec, 10_000))
        for p in table.primes(10_000):
            if p > max(divisors) and p != 2:
                assert p in stream, (divisors, p)


def test_wheel_offset_pattern_repeats_with_period():
    spec = build_wheel([3, 5])
    stream = wheel_elements(spec, 3 * spec.period + 31)
    gaps = [b - a for a, b in zip(stream, stream[1:])]
    k = len(spec.offsets)
    assert gaps[:k] == gaps[k : 2 * k]
    assert sum(gaps[:k]) == spec.period


def test_wheel_seed_values_are_prime():
    for divisors in [(3,), (5,), (3, 5), (7,), (3, 5, 7)]:
        spec = build_wheel(divisors)
        for s in spec.seeds:
            assert s > max(divisors)
            assert all(s % d for d in range(2, math.isqrt(s) + 1)), s


def test_element_at_on_an_index_array():
    n = np.arange(6, dtype=np.int64)
    assert element_at(n).tolist() == [3, 5, 7, 9, 11, 13]
    with pytest.raises(ValueError):
        element_at(np.array([2, -4], dtype=np.int64))


def test_build_wheel_refuses_more_residues_than_the_cap():
    assert build_wheel([3, 5, 7, 11, 13]).period == 30030
    with pytest.raises(ResourceLimitError):
        build_wheel([3, 5, 7, 11, 13, 17])
    with pytest.raises(ResourceLimitError):
        build_wheel([3, 5, 7, 11, 13, 17, 19, 23])


def test_wheel_elements_refuses_more_elements_than_the_cap():
    three = build_wheel([3])  # 2 odd residues in each period of 6
    top = 3 * MAX_WHEEL_ELEMENTS  # about MAX_WHEEL_ELEMENTS elements
    assert len(wheel_elements(three, top)) == MAX_WHEEL_ELEMENTS - 1
    with pytest.raises(ResourceLimitError):
        wheel_elements(three, top + 3)
    # refused before enumerating: this stream would not fit in memory
    with pytest.raises(ResourceLimitError):
        wheel_elements(build_wheel([3, 5]), 10**30)


def test_build_wheel_refuses_a_huge_divisor_before_testing_it():
    with pytest.raises(ResourceLimitError):
        build_wheel([1000000000000000000000007])
    with pytest.raises(ResourceLimitError):
        build_wheel([3, 1000000000000000000000007])


def test_primality_test_refuses_squares_past_64_bits():
    assert _is_odd_prime(4294967291)  # the largest prime below 2**32
    assert not _is_odd_prime(4294967293)
    with pytest.raises(OverflowError, match="p\\*p exceeds 64-bit range"):
        _is_odd_prime(2**32 + 15)
