import contextlib
import csv
import io
import json
import os
import stat
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddseq import cli, counting, oracle


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


def test_pi_text(capsys):
    code, out, _ = run(capsys, "pi", "100", "--strategy", "oracle")
    assert code == 0
    assert "pi = 25" in out
    assert "M_n = 49" in out and "W_n = 25" in out and "m = 1" in out


def test_pi_json_round_trips(capsys):
    code, out, _ = run(capsys, "pi", "1000", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "x": 1000,
        "strategy": "oracle",
        "n": 498,
        "m_n": 499,
        "w_n": 332,
        "m": 1,
        "pi": 168,
        "class_counts": {},
    }


def test_pi_two(capsys):
    code, out, _ = run(capsys, "pi", "2")
    assert code == 0
    assert "pi = 1" in out


def test_pi_formula_strategy(capsys):
    code, out, _ = run(capsys, "pi", "100", "--strategy", "formula")
    assert code == 0
    assert "pi = 25" in out and "class counts:" in out


def test_pi_csv(capsys):
    code, out, _ = run(capsys, "pi", "100", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "strategy", "n", "m_n", "w_n", "m", "pi"]
    assert rows[1] == ["100", "oracle", "48", "49", "25", "1", "25"]


def test_pi_domain_error(capsys):
    code, _, err = run(capsys, "pi", "1")
    assert code == 2
    assert "error:" in err


def test_count_exact_at_x(capsys):
    code, out, _ = run(capsys, "count", "p:5", "--at-x", "55")
    assert code == 0
    assert out == "3"


def test_count_three_at_n(capsys):
    code, out, _ = run(capsys, "count", "3", "--at-n", "9")
    assert code == 0
    assert out == "3"


def test_count_kpow_at_x(capsys):
    code, out, _ = run(capsys, "count", "kpow:2", "--at-x", "25")
    assert code == 0
    assert out == "2"


def test_count_both_variants(capsys):
    code, out, _ = run(
        capsys, "count", "p:5", "--at-x", "55", "--variant", "both",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"class": "p:5", "n": 26, "exact": 3, "classic": 1, "delta": -2}


def test_count_classic_needs_known_class(capsys):
    code, _, err = run(capsys, "count", "kl", "--at-n", "10", "--variant", "classic")
    assert code == 2
    assert "classic" in err


def test_count_unknown_class(capsys):
    code, _, err = run(capsys, "count", "blob", "--at-n", "10")
    assert code == 2


# one fault per token: the message each prints, pinned across refactors
_SINGLE_FAULT_TOKENS = [
    ("blob", "unknown class 'blob'"),
    ("P:5", "unknown class 'P:5'"),
    ("kl:3", "unknown class 'kl:3'"),
    ("3:1", "unknown class '3:1'"),
    ("kkl:2", "unknown class 'kkl:2'"),
    ("multi:3", "unknown class 'multi:3'"),
    ("p:3", "counter needs an odd prime >= 5, got 3"),
    ("p:4", "counter needs an odd prime >= 5, got 4"),
    ("p:9", "counter needs a prime, got 9 = 3*3"),
    ("p:25", "counter needs a prime, got 25 = 5*5"),
    ("p:abc", "invalid literal for int() with base 10: 'abc'"),
    ("kpow:0", "exponent must be >= 1, got 0"),
    ("kpow:-1", "exponent must be >= 1, got -1"),
    ("kpow:x", "invalid literal for int() with base 10: 'x'"),
]


@pytest.mark.parametrize("argv, message", [
    *[(["count", token, "--at-n", "5"], message)
      for token, message in _SINGLE_FAULT_TOKENS],
    (["count", " p:5", "--at-n", "5"], "unknown class ' p:5'"),
    *[(["verify", "--classes", token, "--max-n", "5"], message)
      for token, message in _SINGLE_FAULT_TOKENS],
    (["count", "kl", "--at-n", "5", "--variant", "classic"],
     "class 'kl' has no classic variant"),
    (["count", "kl", "--at-n", "-1"], "index must be >= 0, got -1"),
    # multi:<r> has no closed form, though w's terms hold multi:3 at 200
    *[(["verify", "--classes", classes, "--max-n", n_max],
       "unknown class 'multi:3'")
      for classes in ("w,multi:3", "multi:3,w") for n_max in ("10", "200")],
    # a request that checks nothing is refused, not reported OK
    *[(["verify", "--classes", classes],
       f"--classes {classes!r} with --variant exact checks nothing")
      for classes in ("", ",")],
    *[(["verify", "--classes", classes, "--variant", "classic"],
       f"--classes {classes!r} with --variant classic checks nothing")
      for classes in ("w", "kl,w")],
])
def test_single_fault_class_tokens_keep_their_message(
        capsys, monkeypatch, tmp_path, argv, message):
    # a token is refused before any sieve is built or the cache touched
    path = tmp_path / "sieve.odsq"
    monkeypatch.setenv("ODSQ_SIEVE_CACHE", str(path))

    def no_sieve(limit):
        raise AssertionError(f"sieve built to {limit}")

    monkeypatch.setattr(oracle.SieveTable, "build", no_sieve)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize("variant", ["exact", "classic", "both"])
@pytest.mark.parametrize("token", ["p:05", "p:+5"])
def test_a_class_token_means_what_it_parses_to(capsys, token, variant):
    flags = ["--variant", variant, "--format", "json"]
    code, out, _ = run(capsys, "count", token, "--at-n", "100", *flags)
    _, want, _ = run(capsys, "count", "p:5", "--at-n", "100", *flags)
    assert code == 0
    assert json.loads(out) == {**json.loads(want), "class": token}

    flags = ["--max-n", "300", *flags]
    code, out, _ = run(capsys, "verify", "--classes", token, *flags)
    want_code, want, _ = run(capsys, "verify", "--classes", "p:5", *flags)
    labels = ["p:5[classic]"] if variant == "classic" else ["p:5[exact]"]
    if variant == "both":
        labels.append("p:5[classic]")
    assert [s["class"] for s in json.loads(want)["summaries"]] == labels
    assert code == want_code
    assert out == want.replace('"p:5[', f'"{token}[')


def test_verify_refuses_a_malformed_class_under_every_variant(capsys):
    # a token is read before its forms are chosen, so classic skips none
    for variant in ("exact", "classic", "both"):
        code, out, err = run(capsys, "verify", "--classes", "3,blob",
                             "--variant", variant)
        assert (code, out, err) == (2, "", "error: unknown class 'blob'\n")


def test_bench_times_a_loop_of_calls_per_sample():
    calls = []
    ns = cli._medians_ns([lambda: calls.append(None)], 3)[0]
    # at least 1 ms per sample of a sub-microsecond call: many calls each
    assert len(calls) > 3000 and 0 < ns < 100_000
    calls.clear()
    cli._medians_ns([lambda: calls.append(time.sleep(0.002))], 3)
    assert len(calls) == 4  # the first timing, then one call per sample


def test_bench_interleaves_the_samples_of_its_rows(monkeypatch, capsys):
    calls = []

    def spy(module, name):
        fn = getattr(module, name)

        def call(*args, **kwargs):
            calls.append(name)
            time.sleep(0.001)  # one call fills a sample
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    spy(counting, "pi_of")  # the pi(oracle) and pi(formula) rows
    spy(cli.primegen, "first_n_primes")
    spy(cli, "_verify")
    code, _, _ = run(capsys, "bench", "--x-max", "1000", "--repeats", "3")
    assert code == 0
    # each row sized once, then three rounds of one sample per row
    row_calls = ["pi_of", "pi_of", "first_n_primes", "_verify"]
    assert calls == row_calls * 4


def test_count_requires_position(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "p:5"])
    assert exc.value.code == 2


def test_gen_default_includes_two(capsys):
    code, out, _ = run(capsys, "gen", "5")
    assert code == 0
    assert out == "2 3 5 7 11"


def test_gen_without_two(capsys):
    code, out, _ = run(capsys, "gen", "1", "--no-include-two")
    assert code == 0
    assert out == "3"


def test_gen_csv_1000(capsys):
    code, out, _ = run(capsys, "gen", "1000", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "prime"]
    assert len(rows) == 1001
    assert rows[-1] == ["1000", "7919"]


def test_gen_over_cap_exits_two(capsys):
    code, _, err = run(capsys, "gen", "2000000")
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_pi_over_sieve_cap_exits_two(capsys):
    code, _, err = run(capsys, "pi", "1e9")
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_tseries_examples(capsys):
    code, out, _ = run(capsys, "tseries", "3,5", "--limit", "31")
    assert code == 0
    assert out == "7 11 13 17 19 23 29 31"
    code, out, _ = run(capsys, "tseries", "3", "--limit", "13")
    assert out == "5 7 11 13"
    code, out, _ = run(capsys, "tseries", "5", "--limit", "7")
    assert out == "7"


def test_tseries_json(capsys):
    code, out, _ = run(capsys, "tseries", "3", "--limit", "13", "--format", "json")
    data = json.loads(out)
    assert data["period"] == 6
    assert data["seeds"] == [5, 7]
    assert data["elements"] == [5, 7, 11, 13]


def test_tseries_rejects_bad_divisors(capsys):
    code, _, err = run(capsys, "tseries", "4", "--limit", "10")
    assert code == 2


def test_verify_exact_classes_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "500", "--classes", "p:7,p:11",
    )
    assert code == 0
    assert "mismatches 0" in out
    assert "result: OK" in out


def test_verify_classic_five_is_informational(capsys):
    code, out, _ = run(
        capsys, "verify", "--classes", "p:5", "--variant", "classic",
        "--max-n", "100",
    )
    assert code == 0
    assert "WARN" in out
    assert "first at n = 11" in out


def test_verify_json_reports_first_mismatch(capsys):
    code, out, _ = run(
        capsys, "verify", "--classes", "p:5,w", "--variant", "both",
        "--max-n", "80", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    by_class = {s["class"]: s for s in data["summaries"]}
    assert by_class["p:5[classic]"]["first_mismatch"] == 11
    assert by_class["p:5[classic]"]["informational"] is True
    assert by_class["p:5[exact]"]["mismatches"] == 0
    assert by_class["w[formula]"]["first_mismatch"] == 51
    row = data["rows"][0]
    assert set(row) == {"quantity", "formula", "oracle", "delta", "n"}


def test_verify_empty_report(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "0", "--classes", "3,kl")
    assert code == 0
    assert "result: OK" in out


def test_verify_exit_one_on_exact_mismatch(capsys, monkeypatch):
    real = counting.count_kl
    monkeypatch.setattr(counting, "count_kl", lambda n: real(n) + 1)
    code, out, _ = run(capsys, "verify", "--classes", "kl", "--max-n", "50")
    assert code == 1
    assert "FAIL" in out and "result: MISMATCH" in out


def _verify_json(capsys, classes, n_max="2000"):
    code, out, _ = run(
        capsys, "verify", "--classes", classes, "--max-n", n_max,
        "--format", "json",
    )
    return code, json.loads(out)


@pytest.mark.parametrize("skew", [False, True])
def test_verify_reuses_w_terms_with_the_same_reports(capsys, monkeypatch, skew):
    if skew:
        # a kl formula off by one from n = 700 on, read by kl and by w alike
        real = counting.count_kl
        monkeypatch.setattr(counting, "count_kl", lambda n: real(n) + (n >= 700))
    code, alone = _verify_json(capsys, "kl,kkl,kpow:3")
    code_w, with_w = _verify_json(capsys, "kl,w,kkl,kpow:3")
    assert code == code_w == (1 if skew else 0)
    labels = ["kl[exact]", "kkl[exact]", "kpow:3[exact]"]
    assert [s["class"] for s in with_w["summaries"]] == [
        "kl[exact]", "w[formula]", "kkl[exact]", "kpow:3[exact]"
    ]
    assert [s for s in with_w["summaries"] if s["class"] in labels] == (
        alone["summaries"]
    )
    assert [r for r in with_w["rows"] if r["quantity"] in labels] == (
        alone["rows"]
    )
    assert alone["summaries"][0]["mismatches"] == (1301 if skew else 0)


def test_verify_reports_a_repeated_class_each_time(capsys):
    code, data = _verify_json(capsys, "w,kl,w,kl", "300")
    assert code == 0
    first, second = data["summaries"][:2], data["summaries"][2:]
    assert [s["class"] for s in first] == ["w[formula]", "kl[exact]"]
    assert first == second
    assert data["rows"][:10] == data["rows"][10:]


def test_verify_without_w_reads_no_sieve(capsys, monkeypatch, tmp_path):
    path = tmp_path / "sieve.odsq"
    monkeypatch.setenv("ODSQ_SIEVE_CACHE", str(path))
    code, out, err = run(capsys, "verify", "--classes", "3,kl", "--max-n", "100")
    assert code == 0 and "result: OK" in out and err == ""
    assert not path.exists()
    code, out, _ = run(capsys, "verify", "--classes", "w", "--max-n", "100")
    assert code == 0 and not path.exists()


@pytest.mark.parametrize("state", ["missing", "covering", "foreign"])
def test_verify_and_bench_leave_the_sieve_cache_alone(
        capsys, monkeypatch, tmp_path, state):
    # only pi reads or writes the cache; verify and bench build their sieve
    verify = ["verify", "--classes", "w", "--max-n", "300", "--format", "json"]
    bench = ["bench", "--x-max", "100", "--repeats", "1", "--format", "json"]
    monkeypatch.delenv("ODSQ_SIEVE_CACHE", raising=False)
    _, want, _ = run(capsys, *verify)
    path = tmp_path / "sieve.odsq"
    if state == "covering":
        oracle.SieveTable.build(10**5).dump(path)
    elif state == "foreign":
        path.write_bytes(b"not a sieve cache\n")
    before = path.read_bytes() if path.exists() else None
    monkeypatch.setenv("ODSQ_SIEVE_CACHE", str(path))

    def no_load(source):
        raise AssertionError(f"sieve cache {source} read")

    monkeypatch.setattr(oracle.SieveTable, "load", no_load)
    assert run(capsys, *verify) == (0, want, "")
    code, _, err = run(capsys, *bench)
    assert (code, err) == (0, "")
    assert (path.read_bytes() if path.exists() else None) == before


def test_verify_csv_rows(capsys):
    code, out, _ = run(
        capsys, "verify", "--classes", "p:5", "--variant", "classic",
        "--max-n", "20", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["quantity", "formula", "oracle", "delta", "n"]
    assert rows[1] == ["p:5[classic]", "0", "1", "-1", "11"]


def test_bench_single_repeat(capsys):
    code, out, _ = run(
        capsys, "bench", "--x-max", "100", "--repeats", "1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    names = [r["name"] for r in data["rows"]]
    assert names[0] == "pi(oracle)" and names[1] == "pi(formula)"
    assert names[2].startswith("gen(")
    assert names[3] == "verify(48)"  # the index of 99, the largest odd <= 100
    assert names[4:] == ["sieve build", "rank build", "rank query"]
    assert all(r["median_ns"] > 0 for r in data["rows"])
    assert {"python", "numpy", "machine"} <= set(data)


@pytest.mark.parametrize("value", ["0", "-3"])
def test_bench_rejects_non_positive_repeats(capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--repeats", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --repeats: must be >= 1" in err
    assert "median" not in err


@pytest.mark.parametrize("command, flag", [
    ("verify", "--max-n"), ("verify", "--max-rows"), ("bench", "--repeats")])
@pytest.mark.parametrize("text", ["abc", "1.5"])
def test_int_options_refuse_a_non_int(capsys, command, flag, text):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid int value: '{text}'" in err


def test_sieve_cache_env(capsys, monkeypatch, tmp_path):
    path = tmp_path / "sieve.odsq"
    monkeypatch.setenv("ODSQ_SIEVE_CACHE", str(path))
    code, out, _ = run(capsys, "pi", "1000")
    assert code == 0 and "pi = 168" in out
    assert path.exists()
    blob = path.read_bytes()
    assert blob[:4] == b"ODSQ"
    # second run reuses the dump without rebuilding a larger one
    before = path.stat().st_mtime_ns
    code, out, _ = run(capsys, "pi", "500")
    assert code == 0 and "pi = 95" in out
    assert path.stat().st_mtime_ns == before


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--max-n", "--max-rows"])
def test_verify_rejects_negative_sizes(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--classes", "w", flag, "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument {flag}: must be >= 0, got -1" in err


def test_verify_refuses_max_n_above_its_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--classes", "3", "--max-n", "1000001"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "argument --max-n: must be <= 1000000, got 1000001" in err


def test_verify_runs_a_cheap_class_at_the_cap(capsys):
    code, out, _ = run(
        capsys, "verify", "--classes", "3", "--max-n", str(cli.MAX_VERIFY_N),
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["summaries"][0]["checked"] == cli.MAX_VERIFY_N + 1


def test_verify_max_rows_zero_keeps_summaries(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "60", "--classes", "w",
        "--max-rows", "0", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == []
    assert data["summaries"][0]["mismatches"] == 10


def test_verify_w_over_a_hundred_thousand_indices(capsys):
    code, out, _ = run(
        capsys, "verify", "--classes", "w", "--max-n", "100000",
        "--format", "json",
    )
    assert code == 0
    summary = json.loads(out)["summaries"][0]
    assert summary["class"] == "w[formula]"
    assert summary["checked"] == 100001
    assert summary["mismatches"] == 100000 - 50
    assert summary["first_mismatch"] == 51


def test_sieve_cache_shorter_than_header_is_rebuilt(capsys, monkeypatch, tmp_path):
    path = tmp_path / "sieve.odsq"
    path.write_bytes(b"ODSQ")
    monkeypatch.setenv("ODSQ_SIEVE_CACHE", str(path))
    code, out, err = run(capsys, "pi", "100")
    assert code == 0 and "pi = 25" in out
    assert "Traceback" not in err
    blob = path.read_bytes()
    assert blob[:4] == b"ODSQ" and len(blob) > 12


def test_sieve_cache_leaves_a_foreign_file_alone(capsys, monkeypatch, tmp_path):
    path = tmp_path / "notes.txt"
    path.write_bytes(b"not a sieve cache\n")
    monkeypatch.setenv("ODSQ_SIEVE_CACHE", str(path))
    code, out, err = run(capsys, "pi", "100")
    assert code == 0 and "pi = 25" in out
    assert path.read_bytes() == b"not a sieve cache\n"
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning:")
    assert list(tmp_path.iterdir()) == [path]


def test_sieve_cache_above_the_cap_is_not_a_table(capsys, monkeypatch, tmp_path):
    # a valid header for 2e8 and a sparse body of the matching 12.5 MB
    path = tmp_path / "sieve.odsq"
    path.write_bytes(struct.pack("<4sQ", b"ODSQ", 2 * 10**8))
    with open(path, "r+b") as fh:
        fh.truncate(12 + 12_500_000)
    before = path.read_bytes()
    monkeypatch.setenv("ODSQ_SIEVE_CACHE", str(path))
    code, out, err = run(capsys, "pi", "1.5e8")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: sieve limit 150000000 exceeds cap 100000000"]
    assert path.read_bytes() == before
    code, out, err = run(capsys, "pi", "1000")
    assert code == 0 and "pi = 168" in out.splitlines() and err == ""
    assert oracle.SieveTable.load(path).limit == 1000


def test_tseries_wheel_over_cap_exits_two(capsys):
    code, _, err = run(capsys, "tseries", "3,5,7,11,13,17,19,23", "--limit", "10")
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_tseries_limit_over_cap_exits_two(capsys):
    code, out, err = run(capsys, "tseries", "3", "--limit", "10000000")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "above the cap" in err


def test_sieve_cache_in_a_missing_directory_warns(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("ODSQ_SIEVE_CACHE", str(tmp_path / "gone" / "sieve.odsq"))
    code, out, err = run(capsys, "pi", "100")
    assert code == 0 and "pi = 25" in out
    assert err.startswith("warning:") and "Traceback" not in err


def test_count_at_x_is_parsed_exactly(capsys):
    # as a float, 9007199254740993.0 rounds to 2**53 and loses the last odd
    _, as_int, _ = run(capsys, "count", "3", "--at-x", "9007199254740993")
    assert as_int == "1501199875790165"
    for text in ("9007199254740993.0", "9007199254740993.75", "9.007199254740993e15"):
        code, out, _ = run(capsys, "count", "3", "--at-x", text)
        assert code == 0 and out == as_int


def test_pi_floors_decimal_and_exponent_text(capsys):
    code, out, _ = run(capsys, "pi", "1e3", "--format", "json")
    assert code == 0 and json.loads(out)["x"] == 1000
    assert json.loads(out)["pi"] == 168
    code, out, _ = run(capsys, "pi", "100.999")
    assert code == 0 and "x = 100\n" in out and "pi = 25" in out


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999999999", "3/4", "x"])
def test_pi_rejects_non_finite_and_malformed_numbers(capsys, text):
    with pytest.raises(SystemExit) as exc:
        cli.main(["pi", "--", text])
    assert exc.value.code == 2
    assert "argument x:" in capsys.readouterr().err


def test_count_at_n_past_the_index_domain_exits_two(capsys):
    for cls in ("3", "p:5", "kl", "kpow:2"):
        code, _, err = run(capsys, "count", cls, "--at-n", str(10**23))
        assert code == 2 and "exceeds 64-bit range" in err


def test_count_huge_class_parameters_exit_at_once(capsys):
    code, out, _ = run(capsys, "count", "kpow:100000000000000000000", "--at-n", "5")
    assert code == 0 and out == "0"
    code, _, err = run(capsys, "count", "p:1000000000000000000000007", "--at-n", "5")
    assert code == 2 and "p*p exceeds 64-bit range" in err


def test_tseries_huge_divisor_exits_at_once(capsys):
    code, out, err = run(capsys, "tseries", "1000000000000000000000007",
                         "--limit", "10")
    assert code == 2 and out == "" and err.startswith("error:")


def test_pair_counts_past_their_term_cap_exit_two(capsys):
    for argv in (["kl"], ["kkl", "--variant", "classic"]):
        code, out, err = run(capsys, "count", *argv, "--at-x", "9007199254740993")
        assert code == 2 and out == "" and "exceed cap" in err


def test_pi_formula_past_the_sieve_cap_exits_two(capsys):
    code, out, err = run(capsys, "pi", "1e10", "--strategy", "formula")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exceeds cap" in err


def test_bench_rejects_more_than_a_hundred_repeats(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--repeats", str(10**30)])
    assert exc.value.code == 2
    assert "argument --repeats: must be <= 100" in capsys.readouterr().err


def test_verify_huge_power_class_exits_at_once(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "50", "--classes", "kpow:100000000000000000000"
    )
    assert code == 0 and "mismatches 0" in out


def test_parser_is_built_once_and_handlers_dispatch_per_call(capsys, monkeypatch):
    assert run(capsys, "gen", "3")[1] == "2 3 5"
    parser = cli._parser()
    monkeypatch.setattr(cli, "_cmd_gen", lambda args: 7)
    assert run(capsys, "gen", "3")[0] == 7
    assert cli._parser() is parser


# -- fuzz: the exit-code contract holds on any token -------------------------

_NUMBERS = [
    "-7", "-1", "0", "1", "2", "3", "17", "60", "999", "-1e3", "2.5", "1e2",
    "0.5", "1e30", str(10**30), "1e999999999", "nan", "inf", "-inf", "", "x",
    "9007199254740993",
]
_CLASSES = [
    "3", "p:5", "p:7", "p:4", "p:9", "p:", "p:x", "p:1000000000000000000000007",
    "kl", "kkl", "kpow:0", "kpow:2", "kpow:-1", "kpow:100000000000000000000",
    "xyz", "w", "",
]
_DIVISORS = ["3", "3,5", "3,5,7", "4", "-3", "1", "", "x", "3,,5",
             "3,5,7,11,13,17,19,23", "1000000007", "1000000000000000000000007"]
_FLAGS = ["--format", "text", "json", "csv", "yaml", "--variant", "exact",
          "classic", "both", "--include-two", "--no-include-two", "--guard",
          "strict", "loose", "--strategy", "oracle", "formula", "--at-n",
          "--at-x", "--limit", "--max-n", "--max-rows", "--classes",
          "--repeats", "--x-max"]
_COMMANDS = ["pi", "count", "gen", "tseries", "verify", "bench"]

_token = st.one_of(
    st.sampled_from(_NUMBERS), st.sampled_from(_CLASSES),
    st.sampled_from(_DIVISORS), st.sampled_from(_FLAGS),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_COMMANDS), st.lists(_token, max_size=6))
def test_cli_fuzz_keeps_the_exit_code_contract(command, tokens):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, *tokens])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def module_env():
    """The environment for `python -m oddseq.cli` on this checkout's src."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    env.pop("ODSQ_SIEVE_CACHE", None)
    env.pop("PYTHONUNBUFFERED", None)  # a buffered stdout, as a plain shell has
    return env


def run_module(*argv):
    """The CLI as a process: `python -m oddseq.cli` on this checkout's src."""
    return subprocess.run([sys.executable, "-m", "oddseq.cli", *argv],
                          capture_output=True, text=True, env=module_env(),
                          timeout=60)


def test_module_entry_point_keeps_the_exit_code_contract():
    done = run_module("pi", "1000")
    assert done.returncode == 0
    assert "pi = 168" in done.stdout.splitlines()
    done = run_module("pi", "1e9")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        "error: sieve limit 1000000000 exceeds cap 100000000"]


def test_a_closed_stdout_ends_the_output_without_a_traceback():
    # about 1.4 MB of text: far more than a pipe holds, so the write blocks
    with subprocess.Popen(
            [sys.executable, "-m", "oddseq.cli", "gen", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=module_env()) as proc:
        try:
            assert len(proc.stdout.read(16)) == 16
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # a no-op once it has exited: a hang fails, not hangs
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.parametrize("redirect", [
    "2>&-",
    pytest.param("2>/dev/full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full")),
])
def test_a_closed_stderr_keeps_the_exit_code(redirect):
    done = subprocess.run(
        ["sh", "-c", f'"$0" -m oddseq.cli pi 1e9 {redirect}', sys.executable],
        capture_output=True, env=module_env(), timeout=60)
    assert (done.returncode, done.stdout) == (2, b"")


class ClosedStderr(io.TextIOBase):
    """A stderr whose fd was closed after start-up: every write fails."""

    def write(self, text):
        raise OSError(9, "Bad file descriptor")


# None is what Python makes of an fd 2 closed at start-up
@pytest.mark.parametrize("stderr", [None, ClosedStderr()])
def test_a_closed_stderr_drops_warnings_and_errors(
        stderr, capsys, monkeypatch, tmp_path):
    path = tmp_path / "notes.txt"
    path.write_bytes(b"not a sieve cache\n")
    monkeypatch.setenv("ODSQ_SIEVE_CACHE", str(path))
    monkeypatch.setattr(sys, "stderr", stderr)
    assert cli.main(["pi", "100"]) == 0
    assert cli.main(["pi", "1e9"]) == 2
    out = capsys.readouterr().out
    assert "pi = 25" in out.splitlines()
    assert "warning" not in out and "error" not in out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["gen", "5"], ["verify", "--max-n", "300", "--format", "json"]])
def test_an_unwritable_stdout_is_an_error(argv):
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "oddseq.cli", *argv], stdout=full,
            stderr=subprocess.PIPE, text=True, env=module_env(), timeout=60)
    assert done.returncode == 2
    assert done.stderr == "error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_sieve_cache_leaves_a_fifo_alone(tmp_path):
    path = tmp_path / "sieve.odsq"
    os.mkfifo(path)
    # opening a FIFO to read waits for a writer: the timeout fails a hang
    done = subprocess.run(
        [sys.executable, "-m", "oddseq.cli", "pi", "1000"],
        capture_output=True, text=True,
        env={**module_env(), "ODSQ_SIEVE_CACHE": str(path)}, timeout=10)
    assert done.returncode == 0
    assert "pi = 168" in done.stdout.splitlines()
    [line] = done.stderr.splitlines()
    assert line.startswith("warning:")
    assert stat.S_ISFIFO(os.stat(path).st_mode)


def test_sieve_cache_leaves_a_symlink_to_a_device_alone(
        capsys, monkeypatch, tmp_path):
    path = tmp_path / "sieve.odsq"
    path.symlink_to(os.devnull)
    monkeypatch.setenv("ODSQ_SIEVE_CACHE", str(path))
    code, out, err = run(capsys, "pi", "100")
    assert code == 0 and "pi = 25" in out
    assert err.startswith("warning:")
    assert path.is_symlink() and os.readlink(path) == os.devnull


def test_verify_exits_one_on_a_mismatch_into_a_closed_stdout(monkeypatch):
    real = counting.count_kl
    monkeypatch.setattr(counting, "count_kl", lambda n: real(n) + 1)
    read_end, write_end = os.pipe()
    os.close(read_end)
    # closing the file flushes what is left: it must not fail either
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["verify", "--classes", "kl", "--max-n", "50"]) == 1
