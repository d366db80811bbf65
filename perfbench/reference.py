"""Independent prime reference: a plain numpy sieve over the odd numbers.

It never imports oddseq, so it shares no code with what it checks.  It runs
in its own process so that the workload process's peak RSS counts oddseq
alone:

    python3 perfbench/reference.py QUERIES ANSWERS [--primes N]

QUERIES holds little-endian int64 values x.  ANSWERS receives pi(x) for each
of them as int64, followed by the first N primes when --primes is given.
Before answering, the sieve checks itself against published values of pi.
Exit code 3 means that self-check failed.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

LIMIT = 10**8

# pi(10^k), OEIS A006880
KNOWN_PI = {10**5: 9592, 10**6: 78498, 10**7: 664579, 10**8: 5761455}


def odd_prime_indices(limit: int) -> np.ndarray:
    """Indices i of the odd primes 3 + 2*i <= limit, ascending."""
    is_prime = np.ones((limit - 1) // 2, dtype=bool)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if is_prime[(p - 3) // 2]:
            is_prime[(p * p - 3) // 2 :: p] = False
    return np.flatnonzero(is_prime).astype(np.int32)


def prime_pi(indices: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """pi(x) for each x, counting 2 plus the odd primes <= x."""
    xs = np.asarray(xs, dtype=np.int64)
    top_odd = xs - 1 + (xs & 1)
    odd_primes = np.searchsorted(indices, (top_odd - 3) // 2, side="right")
    return np.where(xs >= 2, odd_primes + 1, 0).astype(np.int64)


def first_primes(indices: np.ndarray, count: int) -> np.ndarray:
    odd = 3 + 2 * indices[: count - 1].astype(np.int64)
    return np.concatenate([np.array([2], dtype=np.int64), odd])[:count]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("queries")
    parser.add_argument("answers")
    parser.add_argument("--primes", type=int, default=0)
    args = parser.parse_args(argv)

    indices = odd_prime_indices(LIMIT)
    literals = np.array(sorted(KNOWN_PI), dtype=np.int64)
    got = prime_pi(indices, literals)
    want = np.array([KNOWN_PI[x] for x in literals.tolist()], dtype=np.int64)
    if not np.array_equal(got, want):
        print(f"reference self-check failed: pi{literals.tolist()} = "
              f"{got.tolist()}, expected {want.tolist()}", file=sys.stderr)
        return 3

    xs = np.fromfile(args.queries, dtype="<i8")
    if xs.size and int(xs.max()) > LIMIT:
        print(f"query {int(xs.max())} above reference limit {LIMIT}",
              file=sys.stderr)
        return 2
    if args.primes > len(indices) + 1:
        print(f"--primes {args.primes} above reference range", file=sys.stderr)
        return 2
    out = [prime_pi(indices, xs)]
    if args.primes:
        out.append(first_primes(indices, args.primes))
    np.concatenate(out).astype("<i8").tofile(args.answers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
