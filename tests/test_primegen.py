import pytest

from oddseq import first_n_primes, initial_state, step_partition
from oddseq.errors import ResourceLimitError
from oddseq.oracle import SieveTable
from oddseq.primegen import DEFAULT_MAX_COUNT


def test_first_primes_without_two():
    assert first_n_primes(5, include_two=False) == [3, 5, 7, 11, 13]


def test_first_prime_with_two():
    assert first_n_primes(1) == [2]
    assert first_n_primes(1, include_two=False) == [3]


def test_thousandth_prime():
    assert first_n_primes(1000)[-1] == 7919


def test_matches_oracle_prefix(table):
    want = [int(p) for p in table.primes()[:2000]]
    assert first_n_primes(2000) == want


def test_guards_agree():
    strict = first_n_primes(3000, guard="strict")
    inclusive = first_n_primes(3000, guard="inclusive")
    assert strict == inclusive


def test_guards_give_the_same_state_per_partition():
    state = initial_state()
    for _ in range(50):
        strict = step_partition(state, "strict")
        assert step_partition(state, "inclusive") == strict
        state = strict


def test_matches_oracle_at_the_cap():
    # the DEFAULT_MAX_COUNT-th prime is 15,485,863
    want = [int(p) for p in SieveTable.build(15_485_863).primes()]
    assert len(want) == DEFAULT_MAX_COUNT
    assert first_n_primes(DEFAULT_MAX_COUNT) == want


def test_counts_at_partition_boundaries(table):
    """Counts that end exactly on a partition's last prime, and one either side."""
    all_primes = [int(p) for p in table.primes()]
    state = initial_state()
    for _ in range(40):
        state = step_partition(state)
        odd_count = len(state.primes)
        assert list(state.primes) == all_primes[1 : odd_count + 1]
        for count in (odd_count - 1, odd_count, odd_count + 1):
            assert first_n_primes(count, include_two=False) == (
                all_primes[1 : count + 1]
            )
            assert first_n_primes(count + 1) == all_primes[: count + 1]


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        first_n_primes(0)
    with pytest.raises(ValueError):
        first_n_primes(10, guard="loose")
    with pytest.raises(ResourceLimitError):
        first_n_primes(10**7)


def test_resource_cap_is_configurable():
    assert first_n_primes(50, max_count=50)[-1] == 229
    with pytest.raises(ResourceLimitError):
        first_n_primes(51, max_count=50)


def test_first_partition():
    state = step_partition(initial_state())
    # candidates 7, 9, ..., 47: every prime below 7*7 appears
    assert state.primes == (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    assert state.moduli == (3, 5, 7)
    assert state.prime_a == 7 and state.prime_b == 11
    assert state.partition == 2
    assert state.last_element == 47


def test_step_partition_does_not_mutate_input():
    s0 = initial_state()
    step_partition(s0)
    assert s0 == initial_state()


def test_partitions_grow_monotonically():
    state = initial_state()
    for _ in range(6):
        nxt = step_partition(state)
        assert set(nxt.primes) > set(state.primes)
        assert nxt.primes[: len(state.primes)] == state.primes
        state = nxt


def test_moduli_after_k_partitions(table):
    odd_primes = [int(p) for p in table.primes()[1:]]
    state = initial_state()
    for k in range(1, 21):
        state = step_partition(state)
        assert list(state.moduli) == odd_primes[: k + 2]


def test_partition_completeness_against_oracle(table):
    """Each partition contributes exactly the primes in (last, b*b)."""
    all_primes = sorted(set(int(p) for p in table.primes()))
    state = initial_state()
    for _ in range(50):
        before = state.primes
        upper = state.prime_b**2
        state = step_partition(state)
        added = state.primes[len(before) :]
        lo = before[-1]
        want = [p for p in all_primes if lo < p < upper]
        assert list(added) == want


def test_appended_values_are_prime():
    state = initial_state()
    for _ in range(10):
        state = step_partition(state)
    for p in state.primes:
        assert p >= 3 and p % 2 == 1
        assert all(p % d for d in range(3, int(p**0.5) + 1, 2)), p
