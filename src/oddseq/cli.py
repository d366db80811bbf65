"""Command-line front end: pi, count, gen, tseries, verify, bench.

Every command takes --format text|json|csv.  Exit codes: 0 on success,
1 when verify finds a mismatch in an exact-variant check, 2 on usage or
domain errors, on requests above a size cap and when stdout cannot be
written.  A closed stderr changes no exit code.  ODSQ_SIEVE_CACHE names
a file that persists pi's sieve between runs; no other command reads it.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import decimal
import functools
import io
import json
import math
import os
import platform
import statistics
import sys
import time

import numpy as np

from . import counting, oracle, pcomposites, primegen, sequences
from .errors import ResourceLimitError

FORMATS = ("text", "json", "csv")

DEFAULT_VERIFY_CLASSES = "3,p:5,p:7,p:11,kl,kkl,kpow:2,kpow:3,w"

MAX_BENCH_REPEATS = 100
# verify's default classes at this N take about 3.5 s and 93 MB (2-core Xeon)
MAX_VERIFY_N = 10**6


def _floored_number(text: str) -> int:
    """A decimal or exponent literal, parsed exactly and floored."""
    try:
        value = decimal.Decimal(text)
    except decimal.InvalidOperation:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}")
    # the bound keeps flooring cheap; every command refuses far smaller x
    if not value.is_finite() or value.adjusted() > 100:
        raise argparse.ArgumentTypeError(f"number out of range: {text!r}")
    return math.floor(value)


def _int_between(low: int, high: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


def _to_devnull(stream) -> None:
    """Point stream's fd at devnull after a failed write, so the rest of
    its buffer goes there when the interpreter flushes it at exit."""
    fd = stream.fileno()  # first: a stream with no fd raises here
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _stderr(line: str) -> None:
    # a closed stderr (None if closed at start-up) drops the line
    with contextlib.suppress(AttributeError, OSError):
        try:
            sys.stderr.write(line + "\n")
        except OSError:
            _to_devnull(sys.stderr)


def _warn(text: str) -> None:
    _stderr(f"warning: {text}")


def _get_table(limit: int) -> oracle.SieveTable:
    """pi's sieve covering [2, limit >= 3], through the cache if configured.

    A cache that is missing, unreadable, too small, truncated or corrupt,
    a header limit outside [2, DEFAULT_MAX_LIMIT] included, is rebuilt
    and rewritten; a file that is not a sieve cache is left untouched.
    A limit above the cap is refused by build, whatever the file holds,
    before the file is touched.
    """
    path = os.environ.get("ODSQ_SIEVE_CACHE")
    if path:
        try:
            table = oracle.SieveTable.load(path)
            if table.limit >= limit:
                return table
        except oracle.NotASieveFile:
            _warn(f"{path} is not a sieve cache; leaving it unchanged")
            path = None
        except (ValueError, OSError):
            pass
    table = oracle.SieveTable.build(limit)
    if path:
        try:
            table.dump(path)
        except OSError as exc:
            _warn(f"could not write sieve cache {path}: {exc}")
    return table


def _render(fmt: str, record: dict, header: list[str], rows, lines,
            indent: int | None = 2) -> None:
    """Print a command's output in one format: json, csv or text.

    record is the JSON object, header and rows the csv table, lines the
    text.  rows and lines may be generators: only the format asked for
    is built.  A reader that closes stdout early cuts the output short
    without an error, and the command keeps its own exit code; any other
    failure to write stdout raises its OSError, which main reports.
    """
    if fmt == "json":
        out = json.dumps(record, indent=indent)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        out = buf.getvalue().rstrip("\n")
    else:
        out = "\n".join(lines)
    try:
        print(out, flush=True)  # a closed pipe fails here, not at exit
    except OSError as exc:
        _to_devnull(sys.stdout)
        if not isinstance(exc, BrokenPipeError):
            raise


def _spaced(values):
    """One text line of values separated by spaces, joined when iterated."""
    yield " ".join(map(str, values))


# -- pi -------------------------------------------------------------------


def _cmd_pi(args) -> int:
    strategy = counting.Strategy(args.strategy)
    table = None
    if strategy is counting.Strategy.ORACLE and args.x >= 3:
        table = _get_table(args.x)
    data = counting.pi_of(args.x, strategy, table).to_dict()
    header = ["x", "strategy", "n", "m_n", "w_n", "m", "pi"]
    labels = ["x", "strategy", "n", "M_n", "W_n", "m", "pi"]

    def lines():
        for label, key in zip(labels, header):
            yield f"{label} = {data[key]}"
        if data["class_counts"]:
            yield "class counts:"
            for name, value in data["class_counts"].items():
                yield f"  {name} = {value}"

    _render(args.format, data, header, [[data[h] for h in header]], lines())
    return 0


# -- count ----------------------------------------------------------------


def _forms(token: str):
    """A class token's pattern and closed forms, {"exact": f, "classic": g}.

    Each form counts up to an index or an int64 index array; only kkl and
    the p: classes in CLASSIC_PRIMES have a classic one.  The counters
    are read from their modules per call, so a replaced one is used.
    """
    pattern = oracle.CompositePattern.parse(token)
    q = pattern.param
    forms = {
        "3": {"exact": lambda n: pcomposites.count_three_composites(n)},
        "p": {"exact": lambda n: pcomposites.count_p_composites(q, n),
              "classic": lambda n: pcomposites.count_p_composites_classic(q, n)},
        "kl": {"exact": lambda n: counting.count_kl(n)},
        "kkl": {"exact": lambda n: counting.count_kkl(n),
                "classic": lambda n: counting.count_kkl_classic(n)},
        "kpow": {"exact": lambda n: counting.count_kpow(q, n)},
    }.get(pattern.kind)
    if forms is None:
        raise ValueError(f"unknown class {token!r}")
    if pattern.kind == "p" and q not in pcomposites.CLASSIC_PRIMES:
        del forms["classic"]
    return pattern, forms


def _cmd_count(args) -> int:
    token = args.cls
    # the counters refuse an index outside the domain themselves
    n = args.at_n
    if n is None:
        n = sequences.index_of(sequences.floor_element(args.at_x))
    _, forms = _forms(token)
    # a class without a classic form is refused before any arithmetic
    if args.variant != "exact" and "classic" not in forms:
        raise ValueError(f"class {token!r} has no classic variant")

    if args.variant == "both":
        classic = forms["classic"](n)
        exact = forms["exact"](n)
        data = {
            "class": token,
            "n": n,
            "exact": exact,
            "classic": classic,
            "delta": classic - exact,
        }
        lines = (f"{key} = {data[key]}" for key in ("exact", "classic", "delta"))
    else:
        value = forms[args.variant](n)
        data = {"class": token, "variant": args.variant, "n": n, "count": value}
        lines = _spaced([value])
    _render(args.format, data, list(data), [list(data.values())], lines)
    return 0


# -- gen ------------------------------------------------------------------


def _cmd_gen(args) -> int:
    primes = primegen.first_n_primes(args.n, include_two=args.include_two)
    _render(
        args.format,
        {"count": args.n, "include_two": args.include_two, "primes": primes},
        ["index", "prime"],
        enumerate(primes, 1),
        _spaced(primes),
        indent=None,
    )
    return 0


# -- tseries --------------------------------------------------------------


def _cmd_tseries(args) -> int:
    divisors = [int(tok) for tok in args.divisors.split(",") if tok]
    spec = sequences.build_wheel(divisors)
    elements = sequences.wheel_elements(spec, args.limit)
    record = {
        "divisors": list(spec.divisors),
        "period": spec.period,
        "offsets": list(spec.offsets),
        "seeds": list(spec.seeds),
        "limit": args.limit,
        "elements": elements,
    }
    _render(args.format, record, ["index", "element"], enumerate(elements),
            _spaced(elements), indent=None)
    return 0


# -- verify ---------------------------------------------------------------


def _verify(tokens: list[str], variant: str, n_max: int, max_rows: int):
    """Check each class over every index 0..n_max; print nothing.

    Returns the per-class summaries and the mismatch rows, at most
    max_rows per class, both in the order of tokens.  Only `w` reads a
    sieve: one is built to 3 + 2*n_max for it, never read from the cache.
    """
    n = np.arange(n_max + 1, dtype=np.int64)
    # every token is resolved before any work; w counts from the sieve
    resolved = {t: _forms(t) for t in tokens if t != "w"}

    def check(token: str, form: str, got: np.ndarray):
        want = (table.odd_composite_count_upto(n_max) if token == "w"
                else oracle.count_class_upto(resolved[token][0], n_max))
        diff = np.flatnonzero(got != want)
        label = f"{token}[{'formula' if token == 'w' else form}]"
        found = [
            {
                "quantity": label,
                "formula": int(got[i]),
                "oracle": int(want[i]),
                "delta": int(got[i] - want[i]),
                "n": int(i),
            }
            for i in diff[:max_rows]
        ]
        summary = {
            "class": label,
            "checked": n_max + 1,
            "mismatches": int(diff.size),
            "first_mismatch": int(diff[0]) if diff.size else None,
            "informational": form == "classic" or token == "w",
        }
        return summary, found

    # w sums its terms once; a term that is also a requested class (kl,
    # kkl, kpow:3) is checked as it comes, so no term array is kept
    checked = {}
    if "w" in tokens and variant != "classic":
        table = oracle.SieveTable.build(3 + 2 * n_max)
        w = np.zeros_like(n)
        for name, count, weight in counting._w_formula_terms(n):
            w += weight * count
            if name in resolved:
                checked[name, "exact"] = check(name, "exact", count)
        checked["w", "exact"] = check("w", "exact", w)

    summaries, rows = [], []
    for token in tokens:
        # w has one form, checked above with its terms
        forms = resolved[token][1] if token != "w" else {"exact": None}
        for form in [f for f in forms if variant in (f, "both")]:
            summary, found = checked.get((token, form)) or check(
                token, form, forms[form](n))
            summaries.append(summary)
            rows += found
    return summaries, rows


def _cmd_verify(args) -> int:
    tokens = [tok.strip() for tok in args.classes.split(",") if tok.strip()]
    n_max = args.max_n
    summaries, rows = _verify(tokens, args.variant, n_max, args.max_rows)
    if not summaries:  # nothing was computed, nor a sieve built
        raise ValueError(f"--classes {args.classes!r} with --variant"
                         f" {args.variant} checks nothing")
    ok = not any(s["mismatches"] and not s["informational"] for s in summaries)

    def lines():
        for s in summaries:
            status = "ok" if s["mismatches"] == 0 else (
                "WARN" if s["informational"] else "FAIL"
            )
            line = (
                f"{status:4s} {s['class']:16s} checked n <= {n_max}"
                f"  mismatches {s['mismatches']}"
            )
            if s["first_mismatch"] is not None:
                line += f"  first at n = {s['first_mismatch']}"
            yield line
        for r in rows[: args.max_rows]:
            yield (
                f"  {r['quantity']} n={r['n']}: formula {r['formula']} "
                f"oracle {r['oracle']} delta {r['delta']}"
            )
        yield "result: " + ("OK" if ok else "MISMATCH")

    _render(
        args.format,
        {"max_n": n_max, "ok": ok, "summaries": summaries, "rows": rows},
        ["quantity", "formula", "oracle", "delta", "n"],
        (list(r.values()) for r in rows),
        lines(),
    )
    return 0 if ok else 1


# -- bench ----------------------------------------------------------------


def _medians_ns(fns, repeats: int) -> list[int]:
    """Median ns per call of each fn; each sample loops fn for at least 1 ms.

    The loops are sized first; then each of the repeats rounds samples
    every fn in order, so a change in the host's speed reaches all alike.
    """
    def sample(fn, loops: int) -> float:
        start = time.perf_counter_ns()
        for _ in range(loops):
            fn()
        return (time.perf_counter_ns() - start) / loops

    sized = []
    for fn in fns:
        loops = 1
        while sample(fn, loops) * loops < 1e6:  # a first call may be cold
            loops *= 10
        sized.append((fn, loops))
    rounds = [[sample(fn, loops) for fn, loops in sized] for _ in range(repeats)]
    return [int(statistics.median(samples)) for samples in zip(*rounds)]


def _cmd_bench(args) -> int:
    x_max = int(args.x_max)
    repeats = args.repeats
    table = oracle.SieveTable.build(max(x_max, 3))
    n_primes = table.prime_count(x_max)
    gen_count = min(n_primes, 20_000)
    # verify's default classes up to the index of x_max, at most 3000
    verify_n = min(max((x_max - 3) // 2, 0), 3000)
    verify_tokens = DEFAULT_VERIFY_CLASSES.split(",")

    layers = [
        ("pi(oracle)",
         lambda: counting.pi_of(x_max, counting.Strategy.ORACLE, table)),
        ("pi(formula)",
         lambda: counting.pi_of(x_max, counting.Strategy.FORMULA)),
        (f"gen({gen_count})", lambda: primegen.first_n_primes(gen_count)),
        (f"verify({verify_n})",
         lambda: _verify(verify_tokens, "exact", verify_n, 10)),
        ("sieve build", lambda: oracle.SieveTable.build(max(x_max, 3))),
        ("rank build", lambda: oracle.SieveTable(table.limit, table.packed)),
        ("rank query", lambda: table.prime_count(x_max)),
    ]
    names, fns = zip(*layers)
    rows = [
        {"name": name, "x": x_max, "median_ns": ns}
        for name, ns in zip(names, _medians_ns(fns, repeats))
    ]

    def lines():
        yield f"{'name':14s} {'x':>10s} {'median_ns':>14s}"
        for r in rows:
            yield f"{r['name']:14s} {r['x']:>10d} {r['median_ns']:>14d}"

    record = {
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "rows": rows,
    }
    _render(args.format, record, ["name", "x", "median_ns"],
            (list(r.values()) for r in rows), lines())
    return 0


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddseq",
        description="Prime counting and generation over the odd sequence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="text")

    p_pi = sub.add_parser("pi", help="prime count with full breakdown")
    p_pi.add_argument("x", type=_floored_number)
    p_pi.add_argument(
        "--strategy", choices=[s.value for s in counting.Strategy],
        default="oracle",
    )
    add_format(p_pi)

    p_count = sub.add_parser("count", help="composite-class count at a position")
    p_count.add_argument(
        "cls", metavar="class",
        help="one of: 3, p:<prime>, kl, kkl, kpow:<j>",
    )
    pos = p_count.add_mutually_exclusive_group(required=True)
    pos.add_argument("--at-n", type=int, help="sequence index")
    pos.add_argument("--at-x", type=_floored_number, help="value bound")
    p_count.add_argument(
        "--variant", choices=["exact", "classic", "both"], default="exact"
    )
    add_format(p_count)

    p_gen = sub.add_parser("gen", help="generate the first N primes")
    p_gen.add_argument("n", type=int)
    p_gen.add_argument(
        "--include-two", action=argparse.BooleanOptionalAction, default=True
    )
    add_format(p_gen)

    p_ts = sub.add_parser("tseries", help="wheel stream for a divisor set")
    p_ts.add_argument("divisors", help="comma-separated odd primes, e.g. 3,5")
    p_ts.add_argument("--limit", type=int, required=True)
    add_format(p_ts)

    p_verify = sub.add_parser(
        "verify", help="differential check of closed forms against the oracle"
    )
    p_verify.add_argument(
        "--max-n", type=_int_between(0, MAX_VERIFY_N), default=1000
    )
    p_verify.add_argument("--classes", default=DEFAULT_VERIFY_CLASSES)
    p_verify.add_argument(
        "--variant", choices=["exact", "classic", "both"], default="exact"
    )
    p_verify.add_argument("--max-rows", type=_int_between(0), default=10)
    add_format(p_verify)

    p_bench = sub.add_parser("bench", help="timing table (informational)")
    p_bench.add_argument("--x-max", type=_floored_number, default=100_000)
    p_bench.add_argument(
        "--repeats", type=_int_between(1, MAX_BENCH_REPEATS), default=5
    )
    add_format(p_bench)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command; an error, a refused size or an unwritable stdout
    prints one `error:` line through _stderr and returns 2."""
    args = _parser().parse_args(argv)
    # looked up per call, so a replaced handler takes effect
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except (ValueError, OverflowError, ResourceLimitError, OSError) as exc:
        _stderr(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
