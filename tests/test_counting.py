import copy
import dataclasses
import pickle

import numpy as np
import pytest

from oddseq import counting

from oddseq import (
    PiBreakdown,
    Strategy,
    assemble_w,
    ResourceLimitError,
    count_class,
    count_class_upto,
    count_kl,
    count_kkl,
    count_kkl_classic,
    count_kpow,
    element_at,
    index_of,
    nth_root_floor,
    pi_of,
    square_base_bound,
)
from oddseq.oracle import KKL, KL, SieveTable, _odd_primes_upto, kpow, multi


def test_square_base_bound_values():
    assert square_base_bound(11) == 5  # sqrt(25)
    assert square_base_bound(48) == 9  # sqrt(99) ~ 9.95
    assert square_base_bound(3) == 3


def test_square_base_bound_rejects_small_index():
    with pytest.raises(ValueError):
        square_base_bound(2)


def test_nth_root_floor_exact_at_perfect_powers():
    for base in (3, 5, 7, 10, 999):
        assert nth_root_floor(base, 1) == base
        for j in (2, 3, 5, 7):
            v = base**j
            assert nth_root_floor(v, j) == base
            assert nth_root_floor(v - 1, j) == base - 1
            assert nth_root_floor(v + 1, j) == base


def test_nth_root_floor_rejects_bad_input():
    with pytest.raises(ValueError):
        nth_root_floor(-1, 2)
    with pytest.raises(ValueError):
        nth_root_floor(10, 0)


def test_count_kl_examples():
    assert count_kl(3) == 1  # 3*3
    assert count_kl(9) == 3  # (3,3) (3,5) (3,7)
    assert count_kl(12) == 5  # + (3,9) (5,5)


def test_count_kkl_examples():
    assert count_kkl(12) == 1  # 27 = 9*3
    assert count_kkl(21) == 2  # 27, 45
    assert count_kkl(11) == 0


def test_count_kpow_examples():
    assert count_kpow(2, 11) == 2  # 9, 25
    assert count_kpow(3, 12) == 1  # 27
    assert count_kpow(1, 3) == 4  # every element


def test_count_kpow_empty_class():
    # 3**4 = 81 exceeds element_at(12) = 27, so no base fits
    assert count_kpow(4, 12) == 0
    assert count_kpow(4, 39) == 1  # 81 = element_at(39)


def test_counters_match_oracle_sweep():
    n_max = 3000
    kl = count_class_upto(KL, n_max)
    kkl = count_class_upto(KKL, n_max)
    for n in range(0, n_max + 1):
        assert count_kl(n) == kl[n], n
        assert count_kkl(n) == kkl[n], n
    for j in (2, 3, 4):
        pw = count_class_upto(kpow(j), n_max)
        for n in range(0, n_max + 1, 7):
            assert count_kpow(j, n) == pw[n], (j, n)


def test_count_kkl_classic_divergence():
    want = count_class_upto(KKL, 200)
    for n in range(0, 36):
        assert count_kkl_classic(n) == want[n], n
    # 75 = 5*5*3 enters at index 36: the classic form counts it as a
    # square pair even though the cofactor 3 is below the base 5
    assert count_kkl_classic(36) == want[36] + 1
    assert count_kkl(36) == want[36]


def test_assemble_w_oracle_values(table):
    assert assemble_w(3, Strategy.ORACLE, table) == 1  # 9
    assert assemble_w(9, Strategy.ORACLE, table) == 3  # 9, 15, 21
    # 25 odd composites up to 99, counted off the sieve bitmap
    assert assemble_w(48, Strategy.ORACLE, table) == 25


def test_assemble_w_formula_exact_until_first_triple(table):
    for n in range(0, 51):
        assert assemble_w(n, Strategy.FORMULA) == assemble_w(
            n, Strategy.ORACLE, table
        ), n
    # 105 = 3*5*7 enters at index 51 and the class combination
    # over-corrects products of three distinct primes by one
    assert assemble_w(51, Strategy.FORMULA) == 25
    assert assemble_w(51, Strategy.ORACLE, table) == 26


def test_assemble_w_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        assemble_w(10, "both")


def test_pi_of_spot_values(table):
    assert pi_of(10, Strategy.ORACLE, table).pi == 4
    assert pi_of(100, Strategy.ORACLE, table).pi == 25
    assert pi_of(1000, Strategy.ORACLE, table).pi == 168


def test_pi_of_below_three():
    b = pi_of(2)
    assert b.pi == 1 and b.n is None and b.m_n == 0 and b.w_n == 0
    assert pi_of(2.5).pi == 1


def test_pi_of_rejects_below_two():
    with pytest.raises(ValueError):
        pi_of(1.99)


def test_pi_breakdown_identity(table):
    for x in (2, 3, 10, 99, 100, 101, 12345.6):
        b = pi_of(x, Strategy.ORACLE, table)
        assert b.pi == b.m_n - b.w_n + b.m_corr
        assert b.m_corr == 1


def test_pi_breakdown_rejects_unbalanced(table):
    with pytest.raises(ValueError):
        PiBreakdown(10, "oracle", 3, 4, 1, 1, 7)
    b = pi_of(100, Strategy.ORACLE, table)
    unbalanced = (100, "oracle", 48, 49, 25, 1, 26, {})
    forged = tuple.__new__(PiBreakdown, unbalanced)
    for make in (lambda: b._replace(pi=26),
                 lambda: PiBreakdown._make(unbalanced),
                 lambda: pickle.loads(pickle.dumps(forged)),
                 lambda: copy.copy(forged)):
        with pytest.raises(ValueError, match="does not balance"):
            make()
    assert b._replace(x=100.5) == pi_of(100.5, Strategy.ORACLE, table)


def test_pi_breakdown_is_frozen(table):
    b = pi_of(100, Strategy.ORACLE, table)
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.pi = 26
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.w_n = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del b.pi
    assert b.pi == 25 and b.w_n == 25


# (x, n, m_n, w_n, pi) of pi_of(x, ORACLE, table) on the 2e6 table,
# recorded from the dataclass breakdown
PI_OF_PINS = [
    (2, None, 0, 0, 1),
    (2.5, None, 0, 0, 1),
    (3, 0, 1, 0, 2),
    (3.9, 0, 1, 0, 2),
    (np.int64(999), 498, 499, 332, 168),
    (1000.5, 498, 499, 332, 168),
    (2_000_000, 999_998, 999_999, 851_067, 148_933),
    (2_000_001, 999_999, 1_000_000, 851_068, 148_933),
]


def test_pi_of_pinned_breakdowns(table, monkeypatch):
    builds = []
    build = SieveTable.build
    monkeypatch.setattr(SieveTable, "build", classmethod(
        lambda cls, limit: builds.append(limit) or build(limit)))
    assert table.limit == 2_000_000
    for x, n, m_n, w_n, pi in PI_OF_PINS:
        b = pi_of(x, Strategy.ORACLE, table)
        assert tuple(b.to_dict().values()) == (x, "oracle", n, m_n, w_n, 1, pi, {})
        assert type(b.strategy) is str and b.class_counts == {}
    # only x above the table's limit builds a new table
    assert builds == [2_000_001]


def test_pi_of_rejects_bad_x(table):
    for x, error in ((True, ValueError), (float("nan"), ValueError),
                     (float("inf"), OverflowError)):
        with pytest.raises(error):
            pi_of(x, Strategy.ORACLE, table)


def test_pi_breakdown_repr(table):
    assert repr(pi_of(1000.5, Strategy.ORACLE, table)) == (
        "PiBreakdown(x=1000.5, strategy='oracle', n=498, m_n=499, w_n=332,"
        " m_corr=1, pi=168, class_counts={})")
    assert repr(pi_of(2, "oracle", table)) == (
        "PiBreakdown(x=2, strategy='oracle', n=None, m_n=0, w_n=0,"
        " m_corr=1, pi=1, class_counts={})")
    assert repr(pi_of(100, Strategy.FORMULA)) == (
        "PiBreakdown(x=100, strategy='formula', n=48, m_n=49, w_n=25,"
        " m_corr=1, pi=25, class_counts={'kl': 30, 'kkl': 5, 'kpow:3': 1,"
        " 'kjl:3': 1, 'kpow:4': 1, 'two_prime_l': 1})")


def test_pi_breakdown_round_trips(table):
    for b in (pi_of(1000.5, Strategy.ORACLE, table), pi_of(100, "formula")):
        for copied in (pickle.loads(pickle.dumps(b)), copy.copy(b),
                       copy.deepcopy(b)):
            assert type(copied) is PiBreakdown
            assert copied == b and repr(copied) == repr(b)
        assert copy.deepcopy(b).class_counts is not b.class_counts
    assert pi_of(10, Strategy.ORACLE, table) != pi_of(11, Strategy.ORACLE, table)


def test_pi_breakdown_class_counts_are_not_shared():
    a = PiBreakdown(10, "oracle", 3, 4, 1, 1, 4)
    b = PiBreakdown(10, "oracle", 3, 4, 1, 1, 4)
    assert a == b and a.class_counts == {}
    assert a.class_counts is not b.class_counts
    a.to_dict()["class_counts"]["kl"] = 1
    assert a.class_counts == {}
    counts = {"kl": 2}
    c = PiBreakdown(10, "formula", 3, 4, 1, 1, 4, counts)
    assert c.class_counts is counts
    assert c.to_dict()["class_counts"] == counts
    assert c.to_dict()["class_counts"] is not counts


def test_strategy_given_as_a_string(table):
    for x in (2, 3, 1000, 999_999.5):
        assert pi_of(x, "oracle", table) == pi_of(x, Strategy.ORACLE, table)
    assert pi_of(1000, "oracle", table).strategy == "oracle"
    assert pi_of(1000, "formula") == pi_of(1000, Strategy.FORMULA)
    assert assemble_w(500, "oracle", table) == assemble_w(500, Strategy.ORACLE, table)
    with pytest.raises(ValueError):
        pi_of(1000, "sieve", table)


def test_pi_formula_strategy_reports_terms():
    b = pi_of(1000, Strategy.FORMULA)
    assert set(b.class_counts) >= {"kl", "kkl", "two_prime_l", "multi:3"}
    assert b.pi == b.m_n - b.w_n + 1


def test_pi_of_even_and_odd_arguments_agree(table):
    # no even number above 2 is prime, so pi(2k) == pi(2k - 1)
    for x in (10, 100, 1000, 65536):
        assert (
            pi_of(x, Strategy.ORACLE, table).pi
            == pi_of(x - 1, Strategy.ORACLE, table).pi
        )


def test_class_multiplicity_at_least_distinct(table):
    kl = count_class_upto(KL, 400)
    for n in range(3, 401, 13):
        assert kl[n] >= assemble_w(n, Strategy.ORACLE, table)


def test_formula_strategy_is_capped_at_the_sieve_limit():
    capped = pi_of(10**8, Strategy.FORMULA)
    assert capped.n == index_of(10**8 - 1)
    # the int path of every term at the cap, multi:3..7 included
    assert (capped.pi, capped.w_n) == (-14_680_025, 64_680_025)
    assert capped.class_counts == {
        "kl": 199520057, "kkl": 11604353, "kjl:3": 2587514, "kjl:4": 733584,
        "kjl:5": 226106, "kjl:6": 72323, "kjl:7": 23563, "kjl:8": 7752,
        "kjl:9": 2563, "kjl:10": 849, "kjl:11": 281, "kjl:12": 93,
        "kjl:13": 30, "kjl:14": 9, "kjl:15": 2,
        "kpow:3": 231, "kpow:4": 49, "kpow:5": 19, "kpow:6": 10, "kpow:7": 6,
        "kpow:8": 4, "kpow:9": 3, "kpow:10": 2, "kpow:11": 2, "kpow:12": 1,
        "kpow:13": 1, "kpow:14": 1, "kpow:15": 1, "kpow:16": 1,
        "two_prime_l": 70532388, "multi:3": 13337070, "multi:4": 5744524,
        "multi:5": 1163251, "multi:6": 95347, "multi:7": 1917,
    }
    with pytest.raises(ResourceLimitError, match="exceeds cap"):
        pi_of(10**8 + 1, Strategy.FORMULA)
    with pytest.raises(ResourceLimitError, match="exceeds cap"):
        assemble_w(np.array([0, index_of(10**8 + 1)]), Strategy.FORMULA)


def test_pair_counters_cap_their_k_terms(monkeypatch):
    # 10 odd k = 3..21: k*l and k*k*l reach up to 22**2, k*k*k up to 22**3
    monkeypatch.setattr(counting, "MAX_K_TERMS", 10)
    for counter, pattern, top in (
        (count_kl, KL, 23**2), (count_kkl, KKL, 23**3),
    ):
        n = index_of(top - 2)
        assert counter(n) == count_class(pattern, n)
        with pytest.raises(ResourceLimitError):
            counter(n + 1)
    assert count_kkl_classic(index_of(23**2 - 2)) >= 0
    with pytest.raises(ResourceLimitError):
        count_kkl_classic(index_of(23**2))


def test_warm_oracle_query_reads_the_table_directly(table, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a warm pi_of converts x once")

    for name in ("assemble_w", "index_of", "element_at"):
        monkeypatch.setattr(counting, name, refuse, raising=False)
    for x in (3, 1000, 1000.5, 1_999_999, 2_000_000):
        assert pi_of(x, Strategy.ORACLE, table).pi == table.prime_count(x)


@pytest.mark.parametrize("limit", [3, 4, 129, 130, 131, 257, 10**4 + 1])
def test_pi_of_reads_every_rank_up_to_the_table_edge(limit, monkeypatch):
    # 129, 130 and 257 end on a full 64-odd word, the rest in a partial one
    table = SieveTable.build(limit)

    def refuse(*args, **kwargs):
        raise AssertionError("a covering table is never rebuilt")

    monkeypatch.setattr(SieveTable, "build", refuse)
    for k in range(2, limit + 1):
        for x in (k, k + 0.5):
            b = pi_of(x, Strategy.ORACLE, table)
            assert b.pi == table.prime_count(x), x
            if x >= 3:
                assert b.w_n == table.odd_composite_count(3 + 2 * b.n), x
            assert PiBreakdown._make(b) == b, x
    # each record gets its own empty class_counts
    b = pi_of(limit, Strategy.ORACLE, table)
    assert b.class_counts == {}
    assert b.class_counts is not pi_of(limit, Strategy.ORACLE, table).class_counts


# (x, error, its message under oracle, under formula) above the sieve cap:
# an element past 64 bits overflows before either cap applies
CAPPED = "18446744073709551615 exceeds cap 100000000"
WIDE = "element at index {} exceeds 64-bit range"
RANGE_ERRORS = [
    (2**64 - 1, ResourceLimitError, "sieve limit " + CAPPED,
     "formula element " + CAPPED),
    (2**64, ResourceLimitError, "sieve limit " + CAPPED,
     "formula element " + CAPPED),
    (2**64 + 1, OverflowError, WIDE.format(2**63 - 1), WIDE.format(2**63 - 1)),
    (10**30, OverflowError, WIDE.format(10**30 // 2 - 2),
     WIDE.format(10**30 // 2 - 2)),
]


def test_pi_of_range_errors_above_the_cap(table):
    for x, error, oracle_message, formula_message in RANGE_ERRORS:
        for strategy, message in (("oracle", oracle_message),
                                  ("formula", formula_message)):
            for given in (None, table):
                with pytest.raises(error) as exc:
                    pi_of(x, strategy, given)
                assert type(exc.value) is error
                assert str(exc.value) == message, (x, strategy, given)


def test_assemble_w_oracle_is_the_w_n_of_pi_of(table):
    for n in range(5001):
        u = 3 + 2 * n
        w = assemble_w(n, Strategy.ORACLE, table)
        assert w == table.odd_composite_count(u) == pi_of(
            u, Strategy.ORACLE, table).w_n, n


SWEEP_N = 10**5
SAMPLED_N = (0, 51, 52, 498, 4_999, 31_337, SWEEP_N)


def test_distinct_prime_products_match_the_multi_enumerator():
    u = element_at(np.arange(SWEEP_N + 1))
    primes = _odd_primes_upto(int(u[-1]) // 3 + 1)
    # the last primes are counted off a table, the runs walk the list
    table = SieveTable.build(int(u[-1]) // 3 + 1)
    for r in range(2, 7):
        # each count reads the runs of r - 1 primes walked to its largest u
        runs = counting._prime_prefixes(primes, r - 1, int(u[-1]))
        counts = counting._count_distinct_prime_products(u, runs, table)
        assert counts.tolist() == count_class_upto(multi(r), SWEEP_N).tolist()
        for n in SAMPLED_N:
            runs = counting._prime_prefixes(primes, r - 1, int(u[n]))
            one = counting._count_distinct_prime_products(
                int(u[n]), runs, table)
            assert one == counts[n], (r, n)


def test_two_prime_cofactor_matches_its_triples():
    u = element_at(np.arange(SWEEP_N + 1))
    top = int(u[-1])
    primes = _odd_primes_upto(top // 9 + 1)
    # every triple k1 < k2 odd primes, odd l >= k2, by the index of its product
    hits = []
    for a, k1 in enumerate(primes):
        for k2 in primes[a + 1:]:
            if k1 * k2 * k2 > top:
                break
            hits += [(k1 * k2 * l - 3) // 2
                     for l in range(k2, top // (k1 * k2) + 1, 2)]
    assert len(hits) == 73_609
    want = np.cumsum(np.bincount(hits, minlength=SWEEP_N + 1))
    counts = _two_prime_l(np.arange(SWEEP_N + 1))
    assert counts.tolist() == want.tolist()
    for n in SAMPLED_N:
        assert _two_prime_l(n) == want[n]


def _two_prime_l(n):
    """The two_prime_l term of the formula at index n."""
    terms = {name: count for name, count, _ in counting._w_formula_terms(n)}
    return terms["two_prime_l"]


def test_each_run_length_is_walked_once(monkeypatch):
    walked = []
    walk = counting._prime_prefixes

    def spy(primes, size, top):
        walked.append(size)
        return walk(primes, size, top)

    monkeypatch.setattr(counting, "_prime_prefixes", spy)
    for n in (10**6 - 1, np.arange(3001)):
        walked.clear()
        list(counting._w_formula_terms(n))
        assert 2 in walked
        assert len(walked) == len(set(walked)), (n, walked)
