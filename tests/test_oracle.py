import ast
import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oddseq import Strategy, oracle, pi_of
from oddseq.errors import ResourceLimitError
from oddseq.oracle import (
    KKL,
    KL,
    CompositePattern,
    NotASieveFile,
    SieveTable,
    count_class,
    count_class_upto,
    factorize_ascending,
    kpow,
    multi,
)


def test_small_prime_lists():
    assert list(SieveTable.build(10).primes()) == [2, 3, 5, 7]
    assert list(SieveTable.build(2).primes()) == [2]
    assert len(SieveTable.build(100).primes()) == 25


def test_prime_count_examples(table):
    assert table.prime_count(10) == 4
    assert table.prime_count(2) == 1
    assert table.prime_count(1000) == 168
    assert table.prime_count(10**6) == 78498


def test_prime_count_rejects_out_of_range(table):
    with pytest.raises(ValueError):
        table.prime_count(1)
    with pytest.raises(ValueError):
        table.prime_count(table.limit + 1)


def test_is_prime_spot(table):
    for p in (2, 3, 5, 7919, 1299709):
        assert table.is_prime(p)
    for c in (4, 9, 121, 1299711):
        assert not table.is_prime(c)


def test_is_prime_matches_trial_division(table):
    for u in range(2, 2000):
        want = all(u % d for d in range(2, math.isqrt(u) + 1))
        assert table.is_prime(u) == want, u


def test_odd_composite_count(table):
    assert table.odd_composite_count(99) == 25
    assert table.odd_composite_count(9) == 1
    assert table.odd_composite_count(3) == 0
    # a float u is floored, as in the sibling queries
    assert table.odd_composite_count(99.5) == table.odd_composite_count(99)
    for u in range(3, 500, 2):
        brute = sum(
            1 for c in range(3, u + 1, 2)
            if any(c % d == 0 for d in range(3, math.isqrt(c) + 1, 2))
        )
        assert table.odd_composite_count(u) == brute, u


def test_prime_count_matches_trial_division_at_random_points(table):
    rng = np.random.default_rng(11)
    xs = sorted(int(x) for x in rng.integers(2, 20_001, size=1000))
    count, next_u = 0, 2
    for x in xs:
        while next_u <= x:
            if all(next_u % d for d in range(2, math.isqrt(next_u) + 1)):
                count += 1
            next_u += 1
        assert table.prime_count(x) == count, x


def test_block_rank_path_agrees_with_dense():
    # a table of many sieve segments and rank words against a one-segment one
    big = SieveTable.build(17_000_000)
    assert big.prime_count(10**6) == 78498
    assert big.prime_count(10**7) == 664579
    assert big.prime_count(16_777_213) == 1_077_871
    dense = SieveTable.build(1000)
    for x in range(2, 1001):
        assert big.prime_count(x) == dense.prime_count(x), x


def test_build_rejects_bad_limits(monkeypatch):
    with pytest.raises(ValueError):
        SieveTable.build(1)
    with pytest.raises(ResourceLimitError):
        SieveTable.build(10**9)
    monkeypatch.setattr(oracle, "DEFAULT_MAX_LIMIT", 100)
    with pytest.raises(ResourceLimitError):
        SieveTable.build(101)


def test_dump_load_round_trip(tmp_path, table):
    small = SieveTable.build(100_000)
    path = tmp_path / "cache.odsq"
    small.dump(path)
    loaded = SieveTable.load(path)
    assert loaded.limit == small.limit
    assert np.array_equal(loaded.packed, small.packed)
    assert loaded.prime_count(100_000) == small.prime_count(100_000)
    assert path.read_bytes()[:4] == b"ODSQ"


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.odsq"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        SieveTable.load(path)


def test_load_rejects_files_shorter_than_the_header(tmp_path):
    path = tmp_path / "short.odsq"
    SieveTable.build(1000).dump(path)
    blob = path.read_bytes()
    for size in range(12):
        path.write_bytes(blob[:size])
        with pytest.raises(ValueError) as exc:
            SieveTable.load(path)
        assert not isinstance(exc.value, NotASieveFile)


def test_load_flags_a_foreign_file(tmp_path):
    path = tmp_path / "foreign"
    for blob in (b"x", b"PK\x03\x04" + b"\x00" * 40):
        path.write_bytes(blob)
        with pytest.raises(NotASieveFile):
            SieveTable.load(path)


def test_load_refuses_a_large_file_without_reading_its_body(tmp_path):
    foreign = tmp_path / "foreign"
    foreign.write_bytes(b"PK\x03\x04")
    too_long = tmp_path / "long.odsq"
    SieveTable.build(1000).dump(too_long)
    for path, error, message in (
            (foreign, NotASieveFile, "magic"),
            (too_long, ValueError, "bitmap length does not match limit")):
        with open(path, "r+b") as fh:
            fh.truncate(64 * 2**20)  # sparse: no disk blocks
        tracemalloc.start()
        try:
            with pytest.raises(error, match=message):
                SieveTable.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def sparse_sieve_file(path, limit):
    """A file with a valid header for limit and a sparse, all-zero bitmap."""
    path.write_bytes(struct.pack("<4sQ", b"ODSQ", limit))
    with open(path, "r+b") as fh:
        fh.truncate(12 + ((limit - 1) // 2 + 7) // 8)  # sparse: no disk blocks
    return path


@pytest.mark.parametrize("limit", [0, 1, 2 * 10**8])
def test_load_refuses_a_limit_build_could_not_make(tmp_path, limit):
    path = sparse_sieve_file(tmp_path / "cache.odsq", limit)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                f"sieve file limit {limit} outside [2, 100000000]")):
            SieveTable.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_load_takes_the_limits_build_can_make(tmp_path):
    for limit in (2, 3, oracle.DEFAULT_MAX_LIMIT):
        path = sparse_sieve_file(tmp_path / f"{limit}.odsq", limit)
        assert SieveTable.load(path).limit == limit


def test_dump_replaces_the_file_through_a_sibling(tmp_path, monkeypatch):
    path = tmp_path / "cache.odsq"
    path.write_bytes(b"ODSQ old")
    moves = []
    real_replace = oracle.os.replace

    def spy(src, dst):
        moves.append((src, dst))
        assert path.read_bytes() == b"ODSQ old"  # untouched until the swap
        real_replace(src, dst)

    monkeypatch.setattr(oracle.os, "replace", spy)
    SieveTable.build(1000).dump(path)
    [(src, dst)] = moves
    assert Path(src).parent == tmp_path and Path(dst) == path
    assert SieveTable.load(path).prime_count(1000) == 168
    assert list(tmp_path.iterdir()) == [path]


def test_failed_dump_keeps_the_old_file(tmp_path):
    path = tmp_path / "cache.odsq"
    SieveTable.build(1000).dump(path)
    before = path.read_bytes()
    broken = SieveTable.build(1000)
    broken.packed = None  # tobytes() fails mid-write
    with pytest.raises(AttributeError):
        broken.dump(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_load_rejects_truncated_bitmap(tmp_path):
    path = tmp_path / "trunc.odsq"
    good = SieveTable.build(10_000)
    good.dump(path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(ValueError):
        SieveTable.load(path)


def test_count_class_examples():
    assert count_class(KL, 9) == 3  # (3,3) (3,5) (3,7)
    assert count_class(kpow(2), 11) == 2  # 9, 25
    assert count_class(multi(3), 51) == 1  # 105 = 3*5*7
    assert count_class(KKL, 12) == 1  # 27


def test_count_class_upto_matches_scalar():
    for pattern in (KL, KKL, kpow(2), kpow(5), multi(2), multi(3),
                    CompositePattern("3"), CompositePattern("p", 5),
                    CompositePattern("p", 13)):
        sweep = count_class_upto(pattern, 600)
        for n in range(0, 601, 23):
            assert sweep[n] == count_class(pattern, n), (pattern, n)


# p:97 starts past most ranges below: both of its runs are empty there
ALL_KINDS = (CompositePattern("3"), CompositePattern("p", 5),
             CompositePattern("p", 13), CompositePattern("p", 97), KL, KKL,
             kpow(2), kpow(5), multi(2), multi(3))


def test_count_class_counts_the_hits():
    for pattern in ALL_KINDS:
        for n in (0, 3, 12, 36, 51, 1000, 99_999):
            swept = count_class_upto(pattern, n)[-1]
            assert count_class(pattern, n) == swept, (pattern, n)


def test_count_class_holds_no_hit_array():
    # recorded from the enumerators that held every hit (166 and 17 MB peak)
    p5 = CompositePattern("p", 5)
    for pattern, count in ((KL, 17_074_331), (p5, 666_666)):
        tracemalloc.start()
        try:
            assert count_class(pattern, 5_000_000) == count
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, pattern


def test_count_class_upto_holds_only_its_counts():
    # the enumerator that built every hit peaked at 30.6 MiB here
    n_max = 10**6
    tracemalloc.start()
    try:
        assert count_class_upto(KL, n_max)[-1] == count_class(KL, n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 8 * (n_max + 1)


def test_counts_refuse_a_negative_index():
    for count in (count_class, count_class_upto):
        with pytest.raises(ValueError, match="index must be >= 0, got -1"):
            count(KL, -1)


def test_power_enumerators_skip_powers_above_the_range():
    # 3**5 = 243 is the last odd fifth power at index 120; a huge exponent
    # counts nothing without building 3**j
    assert count_class(kpow(5), 120) == 1 and count_class(kpow(5), 119) == 0
    assert count_class(kpow(10**20), 10**6) == 0
    assert not count_class_upto(kpow(10**20), 100).any()


def test_multi_enumerator_skips_factor_counts_above_the_range():
    # 10**6 distinct odd primes multiply past 13 = 3 + 2*5; computing
    # 3**(10**6 - 1) before comparing peaked near 950 KB
    tracemalloc.start()
    try:
        assert count_class(multi(10**6), 5) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10
    assert not count_class_upto(multi(10**6), 5).any()


def test_pattern_parse_and_validation():
    assert CompositePattern.parse("kpow:3") == kpow(3)
    assert CompositePattern.parse("kl") == KL
    assert str(multi(4)) == "multi:4"
    with pytest.raises(ValueError):
        CompositePattern("kl", 2)
    with pytest.raises(ValueError):
        CompositePattern("kpow")
    with pytest.raises(ValueError):
        CompositePattern("multi", 1)
    with pytest.raises(ValueError):
        CompositePattern("weird")


def test_pattern_messages_name_the_token():
    for args, message in [
        (("kl", 3), "unknown class 'kl:3'"),
        (("weird",), "unknown class 'weird'"),
        (("p",), "unknown class 'p'"),
        (("p", 4), "counter needs an odd prime >= 5, got 4"),
        (("p", 25), "counter needs a prime, got 25 = 5*5"),
        (("kpow", 0), "exponent must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError) as exc:
            CompositePattern(*args)
        assert str(exc.value) == message
    # parse echoes the token as written, even where int() would read it
    for text in ("kl:05", "kl:abc", "3:", "kpow", ":", ""):
        with pytest.raises(ValueError) as exc:
            CompositePattern.parse(text)
        assert str(exc.value) == f"unknown class {text!r}"
    assert CompositePattern.parse("p:05") == CompositePattern.parse("p:+5")
    assert CompositePattern.parse("p:05") == CompositePattern("p", 5)


def test_three_and_p_patterns():
    assert CompositePattern.parse("3") == CompositePattern("3")
    assert CompositePattern.parse("p:7") == CompositePattern("p", 7)
    assert str(CompositePattern("p", 7)) == "p:7"
    assert count_class(CompositePattern("3"), 6) == 2  # 9, 15
    assert count_class(CompositePattern("p", 5), 41) == 5  # 25 35 55 65 85
    for bad in (("3", 3), ("p", None), ("p", 3), ("p", 9), ("p", 4)):
        with pytest.raises(ValueError):
            CompositePattern(*bad)
    with pytest.raises(OverflowError, match="p\\*p exceeds 64-bit range"):
        CompositePattern("p", 10**21 + 7)


def test_odd_primes_upto_matches_trial_division():
    def is_odd_prime(u):
        return u % 2 and all(u % d for d in range(3, math.isqrt(u) + 1, 2))

    expected = [u for u in range(3, 3000) if is_odd_prime(u)]
    for limit in range(-1, 3000):
        got = oracle._odd_primes_upto(limit)
        assert got == [u for u in expected if u <= limit]
    assert len(oracle._odd_primes_upto(10**6)) == 78498 - 1


def test_oracle_imports_no_closed_form_module():
    """The oracle stays independent of the counters it checks."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    names = {part for name in imported for part in name.split(".")}
    assert not names & {"counting", "pcomposites"}, imported


def test_factorize_examples():
    assert list(factorize_ascending(105)) == [(3, 1), (5, 1), (7, 1)]
    assert list(factorize_ascending(45)) == [(3, 2), (5, 1)]
    assert list(factorize_ascending(7919)) == [(7919, 1)]


def test_factorize_recomposes(table):
    for u in range(2, 100_000):
        f = factorize_ascending(u)
        assert f.value == u
    rng = np.random.default_rng(7)
    for u in rng.integers(100_000, 1_000_001, size=1000):
        u = int(u)
        f = factorize_ascending(u)
        assert f.value == u
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes)
        assert all(table.is_prime(p) for p in primes)


def test_factorize_rejects_below_two():
    with pytest.raises(ValueError):
        factorize_ascending(1)


# -- segmented sieve and word rank against a plain sieve --------------------


def plain_odd_sieve(limit):
    """Primality of the odds 3, 5, ..., limit from one unsegmented sieve."""
    bits = np.ones((limit - 1) // 2 if limit >= 3 else 0, dtype=bool)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if bits[(p - 3) // 2]:
            bits[(p * p - 3) // 2 :: p] = False
    return bits


def plain_packed(limit):
    return np.packbits(plain_odd_sieve(limit), bitorder="little")


SEGMENT = oracle._SEGMENT_ODDS
# limits whose last odd is one before, at and one after a segment edge
SEGMENT_EDGE_LIMITS = [
    2 * n_odds + extra
    for edge in (SEGMENT, 2 * SEGMENT)
    for n_odds in (edge - 1, edge, edge + 1)
    for extra in (1, 2)
]


def test_packed_matches_plain_sieve_up_to_3000():
    for limit in range(2, 3001):
        packed = SieveTable.build(limit).packed
        assert packed.dtype == np.uint8
        assert packed.tobytes() == plain_packed(limit).tobytes(), limit


@pytest.mark.parametrize("limit", [10**k for k in range(1, 9)] + SEGMENT_EDGE_LIMITS)
def test_packed_matches_plain_sieve(limit):
    assert SieveTable.build(limit).packed.tobytes() == plain_packed(limit).tobytes()


@pytest.fixture(scope="module")
def multi_segment():
    limit = 3_000_001  # 1.5e6 odds: more than one segment
    assert (limit - 1) // 2 > SEGMENT
    return SieveTable.build(limit), np.cumsum(plain_odd_sieve(limit))


def check_ranks(table, rank, indices):
    """Compare both rank queries and pi_of at odd indices with a cumulative count."""
    for i in indices:
        u = 3 + 2 * i
        assert table.prime_count(u) == 1 + rank[i], u
        assert table.odd_composite_count(u) == i + 1 - rank[i], u
        assert pi_of(u, Strategy.ORACLE, table).pi == 1 + rank[i], u
        if u < table.limit:
            assert table.prime_count(u + 1) == 1 + rank[i], u + 1
            assert pi_of(u + 1, Strategy.ORACLE, table).pi == 1 + rank[i], u + 1


# limits whose bitmap is 16 whole words (128 bytes) or 1-7 bytes past them,
# ending on a byte edge or 3 odds short of one
WORD_EDGE_LIMITS = [
    2 * (64 * 16 + 8 * extra - short) + 1
    for extra in range(8)
    for short in (0, 3)
]


def test_odd_composite_count_upto_matches_the_scalar(multi_segment, tmp_path):
    table, rank = multi_segment
    n_max = len(rank) - 1
    counts = table.odd_composite_count_upto(n_max)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.arange(1, n_max + 2) - rank)
    # across the word edge at 512 odds and the segment edge, and sampled
    sampled = np.random.default_rng(11).integers(0, n_max + 1, 200).tolist()
    for n in [510, 511, 512, 513, SEGMENT - 1, SEGMENT, n_max, *sampled]:
        assert counts[n] == table.odd_composite_count(3 + 2 * n), n
    assert np.array_equal(table.odd_composite_count_upto(600), counts[:601])
    # the bitmap ends inside a byte, or on or past a word edge
    for limit in (3, 10, 1030, 1031, *WORD_EDGE_LIMITS):
        small = SieveTable.build(limit)
        top = (limit - 3) // 2
        assert small.odd_composite_count_upto(top).tolist() == [
            small.odd_composite_count(3 + 2 * n) for n in range(top + 1)]
        with pytest.raises(ValueError, match="outside sieve range"):
            small.odd_composite_count_upto(top + 1)
        if limit in WORD_EDGE_LIMITS:
            assert 128 <= len(small.packed) < 136
            path = tmp_path / f"{limit}.odsq"
            path.write_bytes(struct.pack("<4sQ", b"ODSQ", limit)
                             + plain_packed(limit).tobytes())
            last_two_words = range(64 * (top // 64 - 1), top + 1)
            plain_rank = np.cumsum(plain_odd_sieve(limit))
            for t in (small, SieveTable.load(path)):
                check_ranks(t, plain_rank, last_two_words)
    with pytest.raises(ValueError, match="outside sieve range"):
        table.odd_composite_count_upto(-1)


def test_ranks_at_every_block_edge(multi_segment):
    table, rank = multi_segment
    n_odds = len(rank)
    edges = {
        i for e in range(0, n_odds + 64, 64)
        for i in (e - 1, e, e + 1) if 0 <= i < n_odds
    }
    check_ranks(table, rank, sorted(edges | {n_odds - 1}))  # and the last odd


def test_ranks_at_each_bit_of_one_block(multi_segment):
    table, rank = multi_segment
    first = SEGMENT + 3 * 512  # a block inside the second segment
    check_ranks(table, rank, range(first - 1, first + 513))


def test_loaded_table_answers_as_built(multi_segment, tmp_path):
    built, rank = multi_segment
    path = tmp_path / "cache.odsq"
    # written byte by byte from the format, not by SieveTable.dump
    header = struct.pack("<4sQ", b"ODSQ", built.limit)
    path.write_bytes(header + plain_packed(built.limit).tobytes())
    loaded = SieveTable.load(path)
    assert loaded.limit == built.limit
    assert loaded.packed.tobytes() == built.packed.tobytes()
    rng = np.random.default_rng(3)
    indices = sorted(int(i) for i in rng.integers(0, len(rank), size=2000))
    check_ranks(loaded, rank, indices + [0, len(rank) - 1])


# a bitmap of one whole 64-odd word, one odd past it, two past, and 7.8 words
QUERY_LIMITS = (129, 131, 133, 1000)


def built_and_loaded(limit, tmp_path):
    path = tmp_path / f"{limit}.odsq"
    built = SieveTable.build(limit)
    built.dump(path)
    return built, SieveTable.load(path)


@pytest.mark.parametrize("limit", QUERY_LIMITS)
def test_every_query_matches_a_plain_sieve(limit, tmp_path):
    bits = plain_odd_sieve(limit)
    plain = np.concatenate([[2], 3 + 2 * np.flatnonzero(bits)])
    integers = range(2, limit + 1)
    plain_set = set(plain.tolist())
    for table in built_and_loaded(limit, tmp_path):
        is_prime = [table.is_prime(k) for k in integers]
        assert is_prime == [k in plain_set for k in integers]
        primes_upto = np.cumsum(is_prime)  # primes <= k, from is_prime alone
        # a half-step grid; limit + 0.5 floors into range
        for x in np.arange(2, limit + 1, 0.5).tolist():
            want = int(np.searchsorted(plain, x, side="right"))
            assert table.prime_count(x) == want, x
            assert table.primes(x).tolist() == plain[:want].tolist(), x
            assert primes_upto[math.floor(x) - 2] == want, x
            if x % 1:
                assert table.is_prime(x) is False, x
        for u in range(3, limit + 1):
            odd_primes = int(np.searchsorted(plain, u, side="right")) - 1
            # (u - 1) // 2 odd numbers in [3, u]
            assert table.odd_composite_count(u) == (u - 1) // 2 - odd_primes, u
        top = (limit - 3) // 2
        assert (table.odd_composite_count_upto(top).tolist()
                == (np.arange(1, top + 2) - np.cumsum(bits)).tolist())


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.float64])
def test_queries_read_numpy_values_as_python_values(kind, tmp_path):
    for table in built_and_loaded(1000, tmp_path):
        for x in (2, 3, 4, 129, 131, 997, 999, 1000):
            count = table.prime_count(kind(x))
            assert type(count) is int and count == table.prime_count(x)
            prime = table.is_prime(kind(x))
            assert type(prime) is bool and prime == table.is_prime(x)
            assert table.primes(kind(x)).tolist() == table.primes(x).tolist()
        for n in (0, 63, 64, 498):
            assert (table.odd_composite_count_upto(kind(n)).tolist()
                    == table.odd_composite_count_upto(n).tolist())


def test_odd_composite_count_reads_numpy_integers_exactly():
    # the word mask must stay a Python int for a numpy index: a numpy int
    # cannot hold a word of 2**63 or more (the first is u = 131's word)
    table = SieveTable.build(10**5)
    for u in range(3, 10**5 + 1, 2):
        want = table.odd_composite_count(u)
        for value in (np.int64(u), np.int32(u)):
            got = table.odd_composite_count(value)
            assert type(got) is int and got == want, u


@pytest.mark.parametrize("limit", QUERY_LIMITS)
def test_every_query_refuses_values_outside_its_range(limit, tmp_path):
    def refuses(query, value, shown, low):
        message = f"{shown} outside sieve range [{low}, {limit}]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            query(value)

    top = (limit - 3) // 2
    for table in built_and_loaded(limit, tmp_path):
        for query in (table.is_prime, table.prime_count, table.primes):
            for x in (1, limit + 1, math.nan, math.inf, -math.inf):
                refuses(query, x, x, 2)
        for u in (2, limit + 1, math.nan, math.inf, -math.inf):
            refuses(table.odd_composite_count, u, u, 3)
        # the index's element is checked: 3 + 2*n for n = -1 and top + 1
        for n in (-1, top + 1, math.nan, math.inf):
            refuses(table.odd_composite_count_upto, n, 3 + 2 * n, 3)


def _tuples_by_divisors(pattern, v, divisors, is_prime):
    """Tuples of the pattern with value v, counted by loops over divisors."""
    kind, q = pattern.kind, pattern.param
    if kind == "3":
        return sum(1 for m in divisors[v] if 3 * m == v and m >= 3)
    if kind == "p":
        return sum(1 for m in divisors[v] if q * m == v and m >= q and m % 3)
    if kind == "kl":
        return sum(1 for k in divisors[v] for l in divisors[v]
                   if k * l == v and 3 <= k <= l)
    if kind == "kkl":
        return sum(1 for k in divisors[v] for l in divisors[v]
                   if k * k * l == v and 3 <= k <= l)
    if kind == "kpow":
        return sum(1 for k in divisors[v] if k >= 3 and k**q == v)

    def ascending(rest, r, low):
        # ascending tuples of r distinct odd primes above low, product rest
        if r == 0:
            return rest == 1
        return sum(ascending(rest // p, r - 1, p) for p in divisors[rest]
                   if p > low and is_prime(p))

    return ascending(v, q, 2)


def test_class_hits_match_tuples_counted_by_divisors():
    u_max = 3001
    divisors = {v: [d for d in range(3, v + 1, 2) if v % d == 0]
                for v in range(1, u_max + 1, 2)}

    def is_prime(p):
        return all(p % d for d in range(3, math.isqrt(p) + 1, 2))

    for pattern in ALL_KINDS:
        counts = count_class_upto(pattern, (u_max - 3) // 2)
        assert counts.dtype == np.int64
        got = np.diff(counts, prepend=0)
        want = [_tuples_by_divisors(pattern, v, divisors, is_prime)
                for v in range(3, u_max + 1, 2)]
        assert got.tolist() == want, pattern


def test_enumerators_refuse_values_above_the_cap(monkeypatch):
    cap = oracle.DEFAULT_MAX_LIMIT
    # at the cap itself: index (cap - 3) // 2 holds the largest odd <= cap
    at, past = (cap - 3) // 2, (cap - 3) // 2 + 1
    assert count_class(kpow(2), at) == (math.isqrt(cap) - 1) // 2
    assert oracle.p_composite_values(9973, at)[-1] <= cap
    for call in (lambda: count_class(kpow(2), past),
                 lambda: count_class(KL, past),
                 lambda: count_class_upto(KL, past),
                 lambda: oracle.p_composite_values(9973, past)):
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            call()
    # count_class_upto on both sides of a lowered cap
    monkeypatch.setattr(oracle, "DEFAULT_MAX_LIMIT", 1001)
    assert count_class_upto(KL, 499)[-1] == count_class(KL, 499)
    with pytest.raises(ResourceLimitError, match="exceeds cap 1001"):
        count_class_upto(KL, 500)
