"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
All comparisons are exact; the two long sweeps carry their stated
runtime budgets (60 s for the pi sweep, 30 s for generation).
"""
import json
import time

import numpy as np

from oddseq import (
    Strategy,
    build_wheel,
    cli,
    count_kl,
    count_kkl,
    count_kpow,
    count_p_composites,
    count_p_composites_classic,
    first_n_primes,
    p_composite_values,
    pi_of,
    threshold_index,
    wheel_elements,
)
from oddseq.oracle import KKL, KL, count_class_upto, kpow

PI_SWEEP_MAX = 10**6
Z_SWEEP_MAX = 10**5
CLASS_SWEEP_MAX = 10**4
GEN_COUNT = 10**5


def _report(cid: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {cid}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)


def _enumeration_sweep(p: int, n_max: int) -> np.ndarray:
    """Cumulative p-composite counts for n = 0..n_max, from the values."""
    hits = [(v - 3) // 2 for v in p_composite_values(p, n_max)]
    counts = (
        np.bincount(np.asarray(hits, dtype=np.int64), minlength=n_max + 1)
        if hits
        else np.zeros(n_max + 1, dtype=np.int64)
    )
    return np.cumsum(counts[: n_max + 1])


def test_criterion_1_pi_exact_over_desk_range(table):
    primes = table.primes(PI_SWEEP_MAX)
    expected = np.zeros(PI_SWEEP_MAX + 1, dtype=np.int64)
    expected[primes] = 1
    expected = np.cumsum(expected)

    start = time.perf_counter()
    bad = []
    for x in range(2, PI_SWEEP_MAX + 1):
        got = pi_of(x, Strategy.ORACLE, table).pi
        if got != expected[x]:
            bad.append((x, got, int(expected[x])))
            if len(bad) > 5:
                break
    elapsed = time.perf_counter() - start

    spots = {
        10: pi_of(10, Strategy.ORACLE, table).pi,
        100: pi_of(100, Strategy.ORACLE, table).pi,
        1000: pi_of(1000, Strategy.ORACLE, table).pi,
        10**6: pi_of(10**6, Strategy.ORACLE, table).pi,
    }
    ok = (
        not bad
        and spots == {10: 4, 100: 25, 1000: 168, 10**6: 78498}
        and elapsed < 60.0
    )
    _report(1, ok, f"x in [2, 1e6], {elapsed:.1f}s")
    assert not bad, f"pi mismatches: {bad}"
    assert spots == {10: 4, 100: 25, 1000: 168, 10**6: 78498}
    assert elapsed < 60.0, f"pi sweep took {elapsed:.1f}s"


def test_criterion_2_classic_z_forms(table, capsys):
    results = {}
    for p in (7, 11):
        got = np.asarray(
            [count_p_composites_classic(p, n) for n in range(Z_SWEEP_MAX + 1)],
            dtype=np.int64,
        )
        want = _enumeration_sweep(p, Z_SWEEP_MAX)
        results[p] = np.array_equal(got, want)

    got5 = np.asarray(
        [count_p_composites_classic(5, n) for n in range(Z_SWEEP_MAX + 1)],
        dtype=np.int64,
    )
    want5 = _enumeration_sweep(5, Z_SWEEP_MAX)
    diff5 = np.flatnonzero(got5 != want5)
    first_dev_ok = (
        diff5.size > 0
        and diff5[0] == 11
        and got5[11] == 0
        and want5[11] == 1
    )

    # the verify report documents the divergence without failing the run
    code = cli.main([
        "verify", "--classes", "p:5", "--variant", "classic",
        "--max-n", "100", "--format", "json",
    ])
    report = json.loads(capsys.readouterr().out)
    summary = report["summaries"][0]
    report_ok = (
        code == 0
        and report["ok"] is True
        and summary["first_mismatch"] == 11
        and summary["informational"] is True
    )

    ok = results[7] and results[11] and first_dev_ok and report_ok
    with capsys.disabled():
        _report(2, ok, "7/11 exact; 5-form deviates first at n=11, reported")
    assert results[7] and results[11]
    assert first_dev_ok, f"first deviations: {diff5[:3]}"
    assert report_ok


def test_criterion_3_general_counter_matches_enumeration(odd_primes_97):
    bad = []
    for p in odd_primes_97:
        got = np.asarray(
            [count_p_composites(p, n) for n in range(Z_SWEEP_MAX + 1)],
            dtype=np.int64,
        )
        want = _enumeration_sweep(p, Z_SWEEP_MAX)
        if not np.array_equal(got, want):
            bad.append((p, int(np.flatnonzero(got != want)[0])))
    _report(3, not bad, f"primes 5..97, n <= 1e5")
    assert not bad, f"counter mismatches at: {bad}"


def test_criterion_4_class_counters_match_brute_force():
    kl_want = count_class_upto(KL, CLASS_SWEEP_MAX)
    kkl_want = count_class_upto(KKL, CLASS_SWEEP_MAX)
    bad = []
    for n in range(CLASS_SWEEP_MAX + 1):
        if count_kl(n) != kl_want[n]:
            bad.append(("kl", n))
            break
    for n in range(CLASS_SWEEP_MAX + 1):
        if count_kkl(n) != kkl_want[n]:
            bad.append(("kkl", n))
            break
    for j in range(1, 7):
        pw_want = count_class_upto(kpow(j), CLASS_SWEEP_MAX)
        for n in range(CLASS_SWEEP_MAX + 1):
            if count_kpow(j, n) != pw_want[n]:
                bad.append((f"kpow:{j}", n))
                break
    _report(4, not bad, "kl, kkl, kpow j<=6, n <= 1e4")
    assert not bad, f"class counter mismatches: {bad}"


def test_criterion_5_generator_matches_oracle(table):
    start = time.perf_counter()
    got = first_n_primes(GEN_COUNT)
    elapsed = time.perf_counter() - start
    want = [int(p) for p in table.primes()[:GEN_COUNT]]
    ok = got == want and elapsed < 30.0
    _report(5, ok, f"first 1e5 primes, {elapsed:.1f}s")
    assert got == want
    assert elapsed < 30.0, f"generation took {elapsed:.1f}s"


def test_criterion_6_threshold_transitions(odd_primes_97):
    bad = []
    for p in odd_primes_97:
        t = threshold_index(p)
        if t != (p * p - 3) // 2:
            bad.append(p)
        if count_p_composites(p, t - 1) != 0 or count_p_composites(p, t) != 1:
            bad.append(p)
    pinned = (threshold_index(5), threshold_index(7), threshold_index(11))
    ok = not bad and pinned == (11, 23, 59)
    _report(6, ok, "0->1 exactly at (p*p - 3)/2; 11/23/59 pinned")
    assert not bad and pinned == (11, 23, 59)


def test_criterion_7_wheel_completeness(table):
    limit = 10**5
    prime_list = [int(p) for p in table.primes(limit)]
    bad = []
    for divisors in [(3,), (5,), (3, 5)]:
        spec = build_wheel(divisors)
        stream = wheel_elements(spec, limit)
        members = set(stream)
        for p in prime_list:
            if p > max(divisors) and p != 2 and p not in members:
                bad.append((divisors, p))
        for u in stream:
            if any(u % d == 0 for d in divisors):
                bad.append((divisors, u))
    _report(7, not bad, "divisor sets {3}, {5}, {3,5} up to 1e5")
    assert not bad, f"wheel failures: {bad[:5]}"


def test_criterion_8_bench_is_informational(capsys):
    # the complexity claim is out of scope; bench only has to run
    code = cli.main(["bench", "--x-max", "1000", "--repeats", "1",
                     "--format", "json"])
    out = capsys.readouterr().out
    rows = json.loads(out)["rows"]
    names = [r["name"] for r in rows]
    ok = code == 0 and len(rows) == 7
    ok = ok and names[4:] == ["sieve build", "rank build", "rank query"]
    with capsys.disabled():
        _report(8, ok, "complexity claim out of scope; bench runs")
    assert ok
