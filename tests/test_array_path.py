"""Closed forms over an index array agree with the same forms at one index."""
import numpy as np
import pytest

from oddseq import (
    Strategy,
    assemble_w,
    count_kl,
    count_kkl,
    count_kkl_classic,
    count_kpow,
    count_p_composites,
    count_p_composites_classic,
    count_three_composites,
    counting,
    element_at,
    nth_root_floor,
    pi_of,
)
from oddseq.errors import ResourceLimitError
from oddseq.oracle import SieveTable

N_MAX = 3000

# every default verify class, and the classic variants verify can show
CLOSED_FORMS = {
    "3": count_three_composites,
    "p:5": lambda n: count_p_composites(5, n),
    "p:7": lambda n: count_p_composites(7, n),
    "p:11": lambda n: count_p_composites(11, n),
    "kl": count_kl,
    "kkl": count_kkl,
    "kpow:2": lambda n: count_kpow(2, n),
    "kpow:3": lambda n: count_kpow(3, n),
    "p:5[classic]": lambda n: count_p_composites_classic(5, n),
    "p:7[classic]": lambda n: count_p_composites_classic(7, n),
    "p:11[classic]": lambda n: count_p_composites_classic(11, n),
    "kkl[classic]": count_kkl_classic,
    "kpow:1": lambda n: count_kpow(1, n),
    "kpow:7": lambda n: count_kpow(7, n),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_array_matches_scalar_for_every_index(name):
    fn = CLOSED_FORMS[name]
    got = fn(np.arange(N_MAX + 1, dtype=np.int64))
    assert isinstance(got, np.ndarray) and got.shape == (N_MAX + 1,)
    want = [fn(n) for n in range(N_MAX + 1)]
    assert all(type(v) is int for v in want)
    assert got.tolist() == want


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_array_keeps_its_shape_below_every_threshold(name):
    got = CLOSED_FORMS[name](np.arange(2, dtype=np.int64))
    assert got.shape == (2,)


def test_w_formula_over_a_range_matches_each_index():
    got = assemble_w(np.arange(N_MAX + 1), Strategy.FORMULA)
    want = [assemble_w(n, Strategy.FORMULA) for n in range(N_MAX + 1)]
    assert got.tolist() == want


def test_w_formula_at_sampled_indices_up_to_1e5():
    n_max = 10**5
    got = assemble_w(np.arange(n_max + 1), Strategy.FORMULA)
    rng = np.random.default_rng(3)
    samples = {n_max, 51, 52, 1154, 1155, 15014, 15015}
    samples.update(int(n) for n in rng.integers(3000, n_max, size=25))
    for n in sorted(samples):
        assert got[n] == assemble_w(n, Strategy.FORMULA), n


def test_w_formula_on_an_unordered_index_array():
    n = np.array([900, 0, 51, 4000, 52, 3], dtype=np.int64)
    got = assemble_w(n, Strategy.FORMULA)
    assert got.tolist() == [assemble_w(int(i), Strategy.FORMULA) for i in n]


def test_nth_root_floor_on_arrays():
    values = np.concatenate([np.arange(0, 5000), [3**20 - 1, 3**20, 7**9]])
    for j in (1, 2, 3, 5, 9, 63, 64, 10**20):
        got = nth_root_floor(values, j)
        assert got.tolist() == [nth_root_floor(int(v), j) for v in values]


def test_scalar_callers_keep_python_ints():
    # the largest index whose element fits in 64 bits, beyond int64 products
    n = (2**64 - 1 - 3) // 2
    big = count_p_composites(5, n)
    q = (n - 11) // 5
    assert type(big) is int and big == 1 + q - (q + 1) // 3
    assert type(count_three_composites(10)) is int
    assert type(count_kl(100)) is int
    assert type(count_kpow(2, 100)) is int
    assert type(assemble_w(500, Strategy.FORMULA)) is int
    breakdown = pi_of(10**5, Strategy.FORMULA)
    assert all(type(v) is int for v in breakdown.class_counts.values())


def test_arrays_reject_negative_indices():
    bad = np.array([3, -1, 5], dtype=np.int64)
    for fn in CLOSED_FORMS.values():
        with pytest.raises(ValueError):
            fn(bad)
    with pytest.raises(ValueError):
        assemble_w(bad, Strategy.FORMULA)


# the first index whose element 3 + 2*n no longer fits in 64 bits
PAST_U64 = (2**64 - 1 - 3) // 2 + 1


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_int_indices_share_element_at_domain(name):
    fn = CLOSED_FORMS[name]
    for n in (PAST_U64, 10**23):
        with pytest.raises(OverflowError, match="exceeds 64-bit range"):
            fn(n)
    with pytest.raises(ValueError):
        fn(-1)


# the largest array index whose element 3 + 2*n fits in int64
ARRAY_TOP = 2**62 - 2
ARRAY_DOMAIN_FORMS = {
    **CLOSED_FORMS,
    "w[formula]": lambda n: assemble_w(n, Strategy.FORMULA),
    "element_at": element_at,
}


@pytest.mark.parametrize("name", sorted(ARRAY_DOMAIN_FORMS))
def test_arrays_share_the_int64_element_domain(name, monkeypatch):
    fn = ARRAY_DOMAIN_FORMS[name]
    with pytest.raises(OverflowError, match="exceeds int64 range"):
        fn(np.array([0, ARRAY_TOP + 1], dtype=np.int64))
    # kkl would sum about 1e6 terms at the top (seconds): a lower cap
    # refuses it at once, after the index check has passed
    monkeypatch.setattr(counting, "MAX_K_TERMS", 10**6)
    try:
        got = fn(np.array([0, ARRAY_TOP], dtype=np.int64))
    except ResourceLimitError:
        return
    assert got.tolist() == [fn(0), fn(ARRAY_TOP)]


@pytest.mark.parametrize("name", sorted(ARRAY_DOMAIN_FORMS))
def test_arrays_of_another_dtype_are_refused(name):
    # int8 and int32 elements wrap, float and bool give no exact count
    for dtype in (np.int8, np.int32, np.uint64, np.float64, bool):
        index = np.array([0, 100], dtype=dtype)
        with pytest.raises(ValueError,
                           match=f"must be int64, got {index.dtype}$"):
            ARRAY_DOMAIN_FORMS[name](index)
    # so do scalars: numpy ints wrap (np.int64(2**62) gave a negative
    # element), 10.5 gave a float and True a count
    for index in (10.5, True, np.int64(5), np.int32(5)):
        with pytest.raises(ValueError, match="must be an int or an int64 array,"
                           f" got {type(index).__name__}$"):
            ARRAY_DOMAIN_FORMS[name](index)


def test_kpow_refuses_an_exponent_below_one():
    for n in (10, np.arange(3)):
        with pytest.raises(ValueError):
            count_kpow(0, n)


def test_oracle_strategy_refuses_an_index_array():
    table = SieveTable.build(1000)
    with pytest.raises(ValueError, match=r"Strategy\.ORACLE .* for a range use"
                       r" SieveTable\.odd_composite_count_upto"):
        assemble_w(np.arange(5), Strategy.ORACLE, table)


TAIL_SUM_FORMS = {
    "kl": count_kl,
    "kkl": count_kkl,
    "kkl[classic]": count_kkl_classic,
    "w[formula]": lambda n: assemble_w(n, Strategy.FORMULA),
}


@pytest.mark.parametrize("name", sorted(TAIL_SUM_FORMS))
@pytest.mark.parametrize("indices", [
    [2999, 0, 51, 1154, 36, 3, 12],  # unordered
    [51, 51, 4, 4, 4, 2999, 51, 0, 0],  # duplicated, unordered
    [7, 7, 7],  # duplicated, ascending
    [1154],  # one element
    [],  # empty
])
def test_tail_sums_on_odd_index_arrays(name, indices):
    fn = TAIL_SUM_FORMS[name]
    got = fn(np.array(indices, dtype=np.int64))
    assert isinstance(got, np.ndarray) and got.shape == (len(indices),)
    assert got.tolist() == [fn(n) for n in indices]


def test_tail_sums_keep_a_two_dimensional_shape():
    n = np.array([[900, 0, 51], [4000, 52, 3]], dtype=np.int64)
    got = count_kl(n)
    assert got.shape == (2, 3)
    assert got.tolist() == [[count_kl(int(i)) for i in row] for row in n]


def test_pair_counts_above_two_to_the_63():
    # element 2**63 + 1, past int64: the int path sums exact Python ints;
    # the literal was recorded before the counters shared _tail_sum
    n = 2**62 - 1
    assert count_kkl(n) == 1077751910294845400
    # count_kl would need about 1.5e9 odd k there and is refused
    with pytest.raises(ResourceLimitError, match="exceed cap"):
        count_kl(n)
