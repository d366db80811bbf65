"""Invariant checks, hypothesis-driven where randomization earns its keep."""
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddseq import (
    PiBreakdown,
    Strategy,
    build_wheel,
    count_elements,
    count_kpow,
    count_p_composites,
    element_at,
    factorize_ascending,
    floor_element,
    index_of,
    nth_root_floor,
    pi_of,
    wheel_elements,
)

COUNTER_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                  47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


@given(st.integers(min_value=0, max_value=10**6))
def test_index_round_trip(n):
    assert index_of(element_at(n)) == n


@given(st.one_of(
    st.integers(min_value=3, max_value=10**12),
    st.floats(min_value=3.0, max_value=1e12, allow_nan=False),
))
def test_floor_element_is_idempotent(x):
    u = floor_element(x)
    assert u % 2 == 1 and u >= 3 and u <= x
    assert floor_element(u) == u


@given(st.integers(min_value=3, max_value=10**5))
def test_count_elements_matches_filter(x):
    assert count_elements(x) == len(range(3, x + 1, 2))


@given(
    st.sampled_from(COUNTER_PRIMES),
    st.integers(min_value=0, max_value=50_000),
)
def test_p_counter_steps_by_zero_or_one(p, n):
    assert count_p_composites(p, n + 1) - count_p_composites(p, n) in (0, 1)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10_000),
)
def test_kpow_monotone_in_index_and_antitone_in_exponent(j, n):
    assert count_kpow(j, n + 1) >= count_kpow(j, n)
    assert count_kpow(j + 1, n) <= count_kpow(j, n)


@given(
    st.integers(min_value=0, max_value=2**80),
    st.integers(min_value=1, max_value=12),
)
def test_nth_root_floor_brackets_value(v, j):
    r = nth_root_floor(v, j)
    assert r**j <= v < (r + 1) ** j


@settings(deadline=None)
@given(
    st.sets(st.sampled_from([3, 5, 7, 11, 13]), min_size=1, max_size=3),
    st.integers(min_value=20, max_value=4000),
)
def test_wheel_stream_is_the_coprime_filter(divisors, limit):
    spec = build_wheel(divisors)
    start = min(spec.seeds)
    want = [
        u for u in range(start, limit + 1, 2)
        if all(u % d for d in divisors)
    ]
    assert wheel_elements(spec, limit) == want


@given(st.integers(min_value=2, max_value=10**9))
def test_factorization_recomposes_ascending(u):
    f = factorize_ascending(u)
    assert f.value == u
    primes = [p for p, _ in f.factors]
    assert primes == sorted(set(primes))
    for p, m in f.factors:
        assert m >= 1
        assert all(p % d for d in range(2, math.isqrt(p) + 1))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=2, max_value=50_000))
@example(2)
@example(10**4)
def test_pi_breakdown_balances(table, x):
    # pi_of makes its records without the constructor's balance check
    records = [pi_of(x, Strategy.ORACLE), pi_of(x, Strategy.ORACLE, table)]
    if x <= 10**4:
        records.append(pi_of(x, Strategy.FORMULA))
    for b in records:
        assert type(b) is PiBreakdown
        assert PiBreakdown(*b) == b
        assert b.pi == b.m_n - b.w_n + b.m_corr
        assert b.m_corr == 1


def test_prime_plus_six_stays_in_odd_coprime_span(table):
    """For any prime p >= 5, p + 6 is prime or a product of odds that are
    neither even nor multiples of 3 (factors may repeat)."""
    for p in table.primes(10_000):
        p = int(p)
        if p < 5:
            continue
        q = p + 6
        if table.is_prime(q):
            continue
        for f, _ in factorize_ascending(q):
            assert f >= 5 and f % 2 == 1 and f % 3 != 0, (p, q, f)
