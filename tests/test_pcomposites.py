from fractions import Fraction

import numpy as np
import pytest

from oddseq import (
    CompositePattern,
    ZCounter,
    count_p_composites,
    count_p_composites_classic,
    count_class_upto,
    count_three_composites,
    element_at,
    p_composite_values,
    threshold_index,
)


def test_count_three_examples():
    assert count_three_composites(2) == 0  # largest element 7 < 9
    assert count_three_composites(3) == 1  # 9
    assert count_three_composites(9) == 3  # 9, 15, 21


def test_count_three_matches_enumeration():
    for n in range(0, 2000):
        u = element_at(n)
        brute = sum(1 for m in range(3, u // 3 + 1, 2) if 3 * m <= u)
        assert count_three_composites(n) == brute, n


def test_count_three_full_sweep_to_a_million():
    import numpy as np

    n_max = 10**6
    u_max = 3 + 2 * n_max
    hits = np.arange(9, u_max + 1, 6)  # composite odd multiples of 3
    counts = np.bincount((hits - 3) // 2, minlength=n_max + 1)
    want = np.cumsum(counts[: n_max + 1])
    got = np.asarray([count_three_composites(n) for n in range(n_max + 1)])
    assert np.array_equal(got, want)


def test_count_three_rejects_negative():
    with pytest.raises(ValueError):
        count_three_composites(-1)


def test_exact_counter_examples():
    assert count_p_composites(5, 26) == 3  # 25, 35, 55
    assert count_p_composites(7, 44) == 3  # 49, 77, 91
    assert count_p_composites(11, 103) == 4  # 121, 143, 187, 209


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29])
def test_exact_counter_matches_enumeration(p):
    values = p_composite_values(p, 2000)
    for n in range(0, 2001):
        u = element_at(n)
        want = sum(1 for v in values if v <= u)
        assert count_p_composites(p, n) == want, (p, n)


def test_classic_examples():
    assert count_p_composites_classic(7, 23) == 1
    assert count_p_composites_classic(11, 58) == 0
    assert count_p_composites_classic(5, 26) == 1  # undercount, kept as is


@pytest.mark.parametrize("p", [7, 11])
def test_classic_agrees_with_exact_for_7_and_11(p):
    for n in range(0, 3000):
        assert count_p_composites_classic(p, n) == count_p_composites(p, n)


def test_classic_5_first_deviation_at_index_11():
    for n in range(0, 11):
        assert count_p_composites_classic(5, n) == count_p_composites(5, n) == 0
    assert count_p_composites_classic(5, 11) == 0
    assert count_p_composites(5, 11) == 1  # 25 enters here


def test_classic_rejects_other_primes():
    with pytest.raises(ValueError):
        count_p_composites_classic(13, 100)


def test_counter_prime_messages_come_from_the_class_pattern():
    for p, message in [(25, "counter needs a prime, got 25 = 5*5"),
                       (4, "counter needs an odd prime >= 5, got 4")]:
        with pytest.raises(ValueError) as exc:
            ZCounter.for_prime(p)
        assert str(exc.value) == message


@pytest.mark.parametrize("bad_p", [4, 9, 3, 1, 15, -5])
def test_counters_reject_non_counter_primes(bad_p):
    with pytest.raises(ValueError):
        count_p_composites(bad_p, 10)
    with pytest.raises(ValueError):
        p_composite_values(bad_p, 10)


def test_enumeration_examples():
    assert p_composite_values(5, 41) == [25, 35, 55, 65, 85]
    assert p_composite_values(7, 23) == [49]
    assert p_composite_values(11, 58) == []


def test_enumeration_is_increasing_and_in_range():
    values = p_composite_values(13, 5000)
    assert values == sorted(values)
    assert all(v <= element_at(5000) for v in values)
    assert all(v % 13 == 0 and (v // 13) % 3 != 0 for v in values)


def test_zcounter_pinned_parameters():
    for p, t in [(5, 11), (7, 23), (11, 59)]:
        c = ZCounter.for_prime(p)
        assert c.threshold == t == threshold_index(p)
        assert c.period == p
    assert ZCounter.for_prime(5).phase == Fraction(1, 3)
    assert ZCounter.for_prime(7).phase == Fraction(2, 3)
    assert ZCounter.for_prime(11).phase == Fraction(1, 3)


def test_threshold_transition(odd_primes_97):
    for p in odd_primes_97:
        t = threshold_index(p)
        assert count_p_composites(p, t - 1) == 0
        assert count_p_composites(p, t) == 1


def test_monotone_steps_of_exact_counter():
    for p in (5, 7, 11, 13):
        prev = 0
        for n in range(0, 2000):
            cur = count_p_composites(p, n)
            assert cur - prev in (0, 1)
            prev = cur


def _index_jumps(p, count):
    values = p_composite_values(p, 100_000)[:count]
    idx = [(v - 3) // 2 for v in values]
    return [b - a for a, b in zip(idx, idx[1:])]


def test_seven_composite_index_jumps_alternate():
    jumps = _index_jumps(7, 40)
    assert jumps == [14, 7] * (len(jumps) // 2) + [14] * (len(jumps) % 2)


def test_eleven_composite_index_jumps_alternate():
    jumps = _index_jumps(11, 40)
    assert jumps == [11, 22] * (len(jumps) // 2) + [11] * (len(jumps) % 2)


def test_five_composite_index_jumps_alternate():
    # value jumps +10, +20; index jumps +5, +10
    jumps = _index_jumps(5, 40)
    assert jumps == [5, 10] * (len(jumps) // 2) + [5] * (len(jumps) % 2)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 97])
def test_counters_match_the_oracle_patterns(p):
    n = np.arange(3001, dtype=np.int64)
    if p == 3:
        want = count_class_upto(CompositePattern("3"), 3000)
        assert (count_three_composites(n) == want).all()
    else:
        want = count_class_upto(CompositePattern("p", p), 3000)
        assert (count_p_composites(p, n) == want).all()
