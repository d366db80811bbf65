"""Workload definitions: seeded inputs and the checks applied to answers.

Each workload draws a block of 2**bits inputs from its stated distribution.
Draws are stratified: input i sits at a random point of its own stratum of
width 2**-bits, strata are visited in bit-reversed order, and the whole
pattern is rotated by a seeded offset.  Every input still follows the stated
distribution, but any prefix of the block covers that distribution evenly.
A closed loop stops after a time, not after a count, so this keeps the
run-to-run spread a property of the program rather than of the draw.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

SIEVE_CAP = 10**8  # oddseq.oracle.DEFAULT_MAX_LIMIT
WARM_LIMIT = 10**8  # the table pi-warm builds in set-up

# verify's default classes, and the residual the formula strategy for w
# is known to leave: it first differs at n = 51 (105 = 3*5*7) and at every
# index after that
VERIFY_CLASSES = ("3", "p:5", "p:7", "p:11", "kl", "kkl", "kpow:2", "kpow:3", "w")
W_FIRST_MISMATCH = 51


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bits: int  # the input block holds 2**bits inputs
    draw: Callable[[np.ndarray], np.ndarray]  # uniform [0, 1) -> inputs
    probe_every: int = 1  # requests between two readings of the host's speed


def _log_uniform(lo: float, hi: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda u: np.rint(lo * (hi / lo) ** u).astype(np.int64)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pi-cold",
            "pi CLI with no cache: every request sieves and ranks anew",
            12,
            _log_uniform(1e5, SIEVE_CAP),
        ),
        Workload(
            "pi-warm",
            "pi_of on one prebuilt table: rank query and wrapper, build bypassed",
            20,
            lambda u: 2 + np.floor(u * (WARM_LIMIT - 1)).astype(np.int64),
            probe_every=4096,
        ),
        Workload(
            "gen",
            "gen CLI: the partition generator does the work, the sieve none",
            12,
            _log_uniform(1e3, 3e4),
        ),
        Workload(
            "verify",
            "verify CLI: closed forms against the oracle enumerators",
            12,
            _log_uniform(300, 3000),
        ),
    )
}


def make_inputs(workload: Workload, seed: int) -> np.ndarray:
    """The workload's input block for this seed, as int64."""
    n = 1 << workload.bits
    rng = random.Random(f"{workload.name}:{seed}")
    shift = rng.random()
    jitter = np.array([rng.random() for _ in range(n)])
    i = np.arange(n, dtype=np.int64)
    stratum = np.zeros(n, dtype=np.int64)
    for b in range(workload.bits):
        stratum |= ((i >> b) & 1) << (workload.bits - 1 - b)
    u = np.mod(shift + (stratum + jitter) / n, 1.0)
    return workload.draw(u)


def input_digest(workload: Workload, inputs: np.ndarray) -> str:
    h = hashlib.sha256(workload.name.encode())
    h.update(inputs.astype("<i8").tobytes())
    return h.hexdigest()[:16]


def argv_for(workload: str, value: int) -> list[str]:
    """The CLI request a workload sends for one input."""
    if workload == "pi-cold":
        return ["pi", str(value), "--format", "json"]
    if workload == "gen":
        return ["gen", str(value), "--format", "json"]
    if workload == "verify":
        return ["verify", "--max-n", str(value), "--format", "json"]
    raise ValueError(f"{workload} sends no CLI requests")


# -- answer checks: each returns None when the answer is right, else why --


def check_pi(data: dict, x: int, want: int) -> str | None:
    if data.get("x") != x or data.get("strategy") != "oracle":
        return f"echoed x={data.get('x')} strategy={data.get('strategy')}"
    if data.get("pi") != want:
        return f"pi({x}) = {data.get('pi')}, reference {want}"
    return None


def check_gen(data: dict, n: int, want: list[int]) -> str | None:
    primes = data.get("primes")
    if data.get("count") != n or not isinstance(primes, list):
        return f"gen {n}: malformed answer"
    if len(primes) != n:
        return f"gen {n}: {len(primes)} primes"
    if primes != want[:n]:
        k = next(i for i, (a, b) in enumerate(zip(primes, want)) if a != b)
        return f"gen {n}: element {k} is {primes[k]}, reference {want[k]}"
    return None


def check_verify(data: dict, n: int) -> str | None:
    """Exact classes match everywhere; w[formula] keeps its known residual."""
    if data.get("ok") is not True or data.get("max_n") != n:
        return f"verify {n}: ok={data.get('ok')} max_n={data.get('max_n')}"
    summaries = {s["class"]: s for s in data.get("summaries", [])}
    labels = [f"{c}[formula]" if c == "w" else f"{c}[exact]"
              for c in VERIFY_CLASSES]
    if sorted(summaries) != sorted(labels):
        return f"verify {n}: classes {sorted(summaries)}"
    for label in labels:
        s = summaries[label]
        if s["checked"] != n + 1:
            return f"verify {n}: {label} checked {s['checked']}"
        if label == "w[formula]":
            want = (n - W_FIRST_MISMATCH + 1, W_FIRST_MISMATCH)
        else:
            want = (0, None)
        if (s["mismatches"], s["first_mismatch"]) != want:
            return (f"verify {n}: {label} mismatches {s['mismatches']} first "
                    f"{s['first_mismatch']}, expected {want[0]} first {want[1]}")
    return None


def check_cli_answer(workload: str, record: dict, value: int, ref) -> str | None:
    """Full check of one CLI request; ref holds the reference answer.

    A request fails when it raises, exits non-zero, logs a traceback or
    answers wrongly.
    """
    if record["exc"] is not None:
        return f"raised {record['exc']}"
    if record["rc"] != 0:
        return f"exit code {record['rc']}"
    if "Traceback" in record["err"]:
        return "traceback on stderr"
    try:
        data = json.loads(record["out"])
    except ValueError:
        return "output is not JSON"
    if workload == "pi-cold":
        return check_pi(data, value, ref)
    if workload == "gen":
        return check_gen(data, value, ref)
    return check_verify(data, value)
