import pytest

from oddseq import first_n_primes, initial_state, primegen, step_partition
from oddseq.errors import ResourceLimitError
from oddseq.oracle import _SEGMENT_ODDS, SieveTable
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
    with pytest.raises(ResourceLimitError):
        first_n_primes(10**7)


def test_resource_cap_is_configurable(monkeypatch):
    monkeypatch.setattr(primegen, "DEFAULT_MAX_COUNT", 50)
    assert first_n_primes(50)[-1] == 229
    with pytest.raises(ResourceLimitError):
        first_n_primes(51)


def test_first_partition():
    state = step_partition(initial_state())
    # candidates 7, 9, ..., 47: every prime below 7*7 appears
    assert state.primes == (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    assert state.moduli == (3, 5, 7)
    assert state.prime_a == 7 and state.prime_b == 11
    assert state.partition == 2
    assert state.last_element == 47


# the odd primes below 13*13, the last anchor square of the states below
_ODD_PRIMES_TO_167 = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167,
)


def test_derived_fields_of_the_first_states():
    """All seven fields of initial_state() and the next three states,
    recorded from the generator that stored each field."""
    want = [
        # (prime count, moduli, prime_a, prime_b, index, partition, last)
        (2, (3, 5), 5, 7, 11, 1, 1),
        (14, (3, 5, 7), 7, 11, 116, 2, 47),
        (29, (3, 5, 7, 11), 11, 13, 415, 3, 113),
        (38, (3, 5, 7, 11, 13), 13, 17, 917, 4, 167),
    ]
    state = initial_state()
    for count, moduli, a, b, index, partition, last in want:
        assert state.primes == _ODD_PRIMES_TO_167[:count]
        assert state.moduli == moduli
        assert (state.prime_a, state.prime_b) == (a, b)
        assert state.index == index
        assert state.partition == partition
        assert state.last_element == last
        state = step_partition(state)


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


# -- runs of partitions sieved as one segment --------------------------------


def _record_runs(monkeypatch):
    """Spy on primegen._run; each call appends (lo, hi, next b, primes)."""
    runs = []
    real = primegen._run

    def spy(primes, k, reach):
        lo = primes[-1] + 2
        found, k_end = real(primes, k, reach)
        b, next_b = (*primes, *found)[k_end - 1 : k_end + 1]
        runs.append((lo, b**2 - 2, next_b, len(primes) + len(found)))
        return found, k_end

    monkeypatch.setattr(primegen, "_run", spy)
    return runs


def test_step_partition_states_are_prefixes_of_first_n_primes():
    state = initial_state()
    for _ in range(150):
        state = step_partition(state)
        count = len(state.primes)
        assert list(state.primes) == first_n_primes(count, include_two=False)


def test_a_run_equals_its_partitions_one_by_one():
    """_run over several partitions ends in the state single steps reach."""
    state = initial_state()
    for _ in range(8):
        found, k = primegen._run(state.primes, state.k, reach=10**6)
        run_end = primegen.GeneratorState(state.primes + tuple(found), k)
        stepped = state
        while stepped.partition < run_end.partition:
            stepped = step_partition(stepped)
        assert stepped == run_end
        state = run_end
    assert state.partition > 9  # some runs held more than one partition


def test_runs_of_a_gen_sized_request(monkeypatch):
    runs = _record_runs(monkeypatch)
    first_n_primes(5477)
    # 5477 primes need p_5477 = 53,453 < 58,950 (Rosser's bound); the
    # second run ends at 47*47 - 2, the largest end whose anchor 47 was
    # already discovered when the run began at 49
    assert [(lo, hi) for lo, hi, _, _ in runs] == [
        (7, 47), (49, 47 * 47 - 2), (2209, 251 * 251 - 2),
    ]


def test_runs_stay_within_one_sieve_segment(monkeypatch):
    runs = _record_runs(monkeypatch)
    first_n_primes(300_000)
    capped = 0
    for lo, hi, next_b, _ in runs:
        assert (hi - lo) // 2 + 1 <= _SEGMENT_ODDS
        capped += (next_b**2 - lo) // 2 > _SEGMENT_ODDS
    assert capped >= 2


def _run_edges(monkeypatch, count):
    """Odd-prime counts at the first three run ends of first_n_primes(count),
    and at the first run that the segment size stopped, if any."""
    runs = _record_runs(monkeypatch)
    first_n_primes(count)
    monkeypatch.undo()
    capped = [n for lo, _, b, n in runs if (b * b - lo) // 2 > _SEGMENT_ODDS]
    return [n for _, _, _, n in runs[:3]] + capped[:1]


def test_counts_at_run_edges(monkeypatch):
    gen_sized = _run_edges(monkeypatch, 5477)
    large = _run_edges(monkeypatch, 300_000)
    assert len(gen_sized) == 3 and len(large) == 4
    edges = sorted(set(gen_sized + large))
    all_primes = [int(p) for p in SieveTable.build(4_300_000).primes()]
    for edge in edges:
        for count in (edge - 1, edge, edge + 1):
            assert first_n_primes(count, include_two=False) == (
                all_primes[1 : count + 1]
            )
            assert first_n_primes(count) == all_primes[:count]


def test_prime_bound_holds_above_its_threshold():
    primes = [int(p) for p in SieveTable.build(1_000_000).primes()]
    for n in range(1, len(primes) + 1, 97):
        assert primes[n - 1] < primegen._prime_bound(n)
    assert primegen._prime_bound(5) > 11


def test_step_partition_reports_the_overflow_partition():
    # anchors a = 2**21 - 9 and b = 2**22 - 3, both prime: a*b*b > 2**64
    state = primegen.GeneratorState((3, 5, 2**21 - 9, 2**22 - 3), 3)
    assert (state.prime_a, state.prime_b) == (2**21 - 9, 2**22 - 3)
    with pytest.raises(OverflowError):
        step_partition(state)
