"""oddseq benchmark: four seeded workloads, every answer checked.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in fresh processes
(worker.py) with one closed-loop client and BLAS threads pinned to 1.
Answers are compared with an independent numpy sieve (reference.py), run in
a process of its own.

--trace 0 measures the end-to-end metrics.  Set-up is measured in five fresh
processes and reported as their median; the last of them also runs the
timed loop.  Its timings are scaled to a reference host speed, read from
host probes the worker takes between requests (see host_scale).  --trace 1
runs the same inputs twice for half the time each, untraced and then
traced, and reports per-layer metrics from the traced run plus the tracing
overhead, which is the difference between the two.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --workload all its metric names are prefixed by workload.
Full results, with metadata, go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
# an end-to-end run goes on past its time until it holds this many requests,
# so that its 90th percentile has at least ten samples beyond it
MIN_REQUESTS = 100
# timings are scaled to a host on which worker.host_probe takes this long
REFERENCE_PROBE_US = 100.0
# host probes in the rolling median that rates the host around a request
PROBE_WINDOW = 15
WORKER_TIMEOUT_S = 120  # a hung process still ends the run inside 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("ODSQ_SIEVE_CACHE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # glibc's default mmap threshold, made fixed: otherwise it rises after
    # each large free, later arrays come from the heap and stay resident, and
    # peak RSS depends on the order of requests.  Fixed, every large array is
    # mapped fresh and returned on free, as in a one-shot CLI process.
    env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
    return env


def spawn_worker(cfg: dict) -> tuple[dict, int]:
    """Run worker.py to completion; its summary and its start time."""
    started = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        env=worker_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def run_reference(queries: np.ndarray, primes: int, tag: str) -> tuple[np.ndarray, np.ndarray]:
    qfile, afile = OUT / f"{tag}.refq", OUT / f"{tag}.refa"
    try:
        queries.astype("<i8").tofile(qfile)
        proc = subprocess.run(
            [sys.executable, str(HERE / "reference.py"), str(qfile), str(afile),
             "--primes", str(primes)],
            env=worker_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"reference exited {proc.returncode}: {proc.stderr}")
        answers = np.fromfile(afile, dtype="<i8")
    finally:
        for f in (qfile, afile):
            f.unlink(missing_ok=True)
    return answers[: len(queries)], answers[len(queries):]


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Run:
    """One timed worker run and the failures found in its answers."""

    def __init__(self, name: str, inputs: np.ndarray, inputs_file: Path,
                 seconds: float, trace: bool, min_requests: int, tag: str):
        self.name, self.inputs, self.tag = name, inputs, tag
        self.cfg = {
            "workload": name, "seconds": seconds, "trace": trace,
            "min_requests": min_requests, "setup_only": False,
            "inputs": str(inputs_file), "probe_every": WORKLOADS[name].probe_every,
            "latencies": str(OUT / f"{tag}.lat"), "probes": str(OUT / f"{tag}.probe"),
            "answers": str(OUT / f"{tag}.ans"),
            "spans": str(OUT / f"spans-{name}.npz"),
            "warm_limit": workloads.WARM_LIMIT,
        }
        self.setup_answers: list[int] = []  # pi-warm: pi(warm_limit) per process

    def setup_only(self) -> float:
        summary, started = spawn_worker(dict(self.cfg, setup_only=True))
        self.setup_answers.append(summary.get("setup_pi"))
        return (summary["ready_ns"] - started) / 1e9

    def go(self) -> None:
        self.summary, started = spawn_worker(self.cfg)
        self.setup_s = (self.summary["ready_ns"] - started) / 1e9
        self.setup_answers.append(self.summary.get("setup_pi"))
        pairs = np.fromfile(self.cfg["latencies"], dtype="<i8").reshape(-1, 2)
        self.latencies, self.cycles = pairs[:, 0], pairs[:, 1]
        self.probes = np.fromfile(self.cfg["probes"], dtype="<i8")
        self.count = int(self.summary["requests"])
        probe_every = self.cfg["probe_every"]
        if (len(self.latencies) != self.count or
                len(self.probes) != 1 + -(-self.count // probe_every)):
            raise BenchError("latency or probe file does not match request count")
        self.failures = self._check_answers()

    def _check_answers(self) -> list[str]:
        n_in = len(self.inputs)
        used = self.inputs[: min(self.count, n_in)]
        if self.name == "pi-warm":
            limit = self.cfg["warm_limit"]
            ref_pi, _ = run_reference(np.append(used, limit), 0, self.tag)
            failures = [f"set-up pi({limit}) = {got}, reference {ref_pi[-1]}"
                        for got in self.setup_answers if got != ref_pi[-1]]
            got = np.fromfile(self.cfg["answers"], dtype="<i8")
            want = ref_pi[np.arange(self.count) % n_in]
            bad = np.flatnonzero(got != want)
            return failures + [
                f"pi({int(self.inputs[k % n_in])}) = {int(got[k])}, "
                f"reference {int(want[k])}" for k in bad.tolist()]
        if self.name == "pi-cold":
            ref, _ = run_reference(used, 0, self.tag)
            refs = ref.tolist()
        elif self.name == "gen":
            _, primes = run_reference(used[:0], int(used.max()), self.tag)
            refs = [primes.tolist()] * len(used)
        else:
            refs = [None] * len(used)
        failures, lines = [], 0
        with open(self.cfg["answers"]) as fh:
            for k, line in enumerate(fh):
                lines += 1
                why = workloads.check_cli_answer(
                    self.name, json.loads(line), int(self.inputs[k % n_in]),
                    refs[k % n_in])
                if why is not None:
                    failures.append(why)
        if lines != self.count:
            raise BenchError("answer file does not match request count")
        return failures


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; its metrics, counts and metadata."""
    workload = WORKLOADS[name]
    inputs = workloads.make_inputs(workload, seed)
    tag = f"{name}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    meta = {
        "workload": name, "why": workload.why, "seed": seed,
        "input_digest": workloads.input_digest(workload, inputs),
        "input_block": len(inputs), "seconds": seconds, "trace": trace,
        "client": "closed loop, 1 client, 1 process",
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "git_commit": git_commit(),
    }
    runs = []
    inputs_file = OUT / f"{tag}.inputs"
    try:
        inputs.astype("<i8").tofile(inputs_file)
        if not trace:
            run = Run(name, inputs, inputs_file, seconds, False, MIN_REQUESTS, tag)
            setups = [run.setup_only() for _ in range(SETUP_SAMPLES - 1)]
            run.go()
            runs.append(run)
            setups.append(run.setup_s)
            metrics, meta["timing_detail"] = end_to_end(run, setups)
            meta["setup_samples_s"] = setups
        else:
            for trace_on in (False, True):
                run = Run(name, inputs, inputs_file, seconds / 2, trace_on, 1,
                          f"{tag}-trace{int(trace_on)}")
                run.go()
                runs.append(run)
            metrics, details = per_layer(*runs)
            meta["trace_detail"] = details
    finally:
        for f in OUT.glob(f"{tag}*"):
            f.unlink()
    last = runs[-1].summary
    attempted = sum(r.count for r in runs)
    failures = [f for r in runs for f in r.failures]
    meta.update(
        requests=[r.count for r in runs], python=last["python"],
        numpy=last["numpy"], failures=failures[:20],
        error_rate=len(failures) / attempted,
    )
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics, "meta": meta}


def host_scale(run: Run) -> np.ndarray:
    """Per request, the factor that brings its timings to the reference host.

    The host's speed around a request is the mean of the rolling medians of
    host probes just before and just after it; the factor is the reference
    probe time over that.  The probes share no code with oddseq, so the
    factor follows the host alone, never the inputs or oddseq's own speed.
    """
    half = PROBE_WINDOW // 2
    padded = np.pad(run.probes.astype(float), half, mode="edge")
    rolling = np.median(sliding_window_view(padded, 2 * half + 1), axis=1)
    j = np.arange(run.count) // run.cfg["probe_every"]
    return REFERENCE_PROBE_US * 1e3 / ((rolling[j] + rolling[j + 1]) / 2)


def timing(latencies: np.ndarray, cycles: np.ndarray) -> dict:
    lat_ms = latencies / 1e6
    return {
        "throughput_rps": len(cycles) / (cycles.sum() / 1e9),
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_p90_ms": float(np.percentile(lat_ms, 90)),
    }


def end_to_end(run: Run, setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the unscaled timings beside them.

    Set-up is scaled by the run's median host probe: the set-up processes
    run just before the timed loop, and each is too short for probes of
    its own to say more than that.
    """
    s = run.summary
    scale = host_scale(run)
    setup_scale = REFERENCE_PROBE_US * 1e3 / float(np.median(run.probes))
    values = {
        "setup_s": statistics.median(setups) * setup_scale,
        **timing(run.latencies * scale, run.cycles * scale),
        "success_rate": (run.count - len(run.failures)) / run.count,
        "peak_rss_mb": s["rss_kb"] / 1024,
    }
    probe_us = np.percentile(run.probes, [0, 25, 50, 75, 100]) / 1e3
    detail = {
        "unscaled": dict(timing(run.latencies, run.cycles),
                         setup_s=statistics.median(setups)),
        "host_probe_us_quartiles": [round(float(v), 2) for v in probe_us],
        "mean_host_scale": float(scale.mean()),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, detail


def per_layer(plain: Run, traced: Run) -> tuple[dict, dict]:
    """Layer metrics of the traced run, and overhead against the plain run."""
    summary = traced.summary["trace"]
    m = min(plain.count, traced.count)
    # the plain run's latencies, brought to the host speed of the traced run
    plain_scale, traced_scale = host_scale(plain)[:m], host_scale(traced)[:m]
    plain_ms = (plain.latencies[:m] * plain_scale).mean() / traced_scale.mean()
    overhead_ms = float(traced.latencies[:m].mean() - plain_ms) / 1e6
    values = dict(summary["metrics"], **{"trace.overhead_ms": overhead_ms})
    units = per_layer_units()
    details = {
        "layers": summary["layers"], "spans": summary["spans"],
        "traced_request_ms": summary["traced_request_ms"],
        "self_sum_ms_per_request": summary["self_sum_ms_per_request"],
        "overhead_ms_per_request": overhead_ms,
        "matched_requests": m,
        "self_times_within_overhead":
            abs(values["trace.unattributed_ms"]) <= abs(overhead_ms),
        "packed_bytes": "computed from table.packed.nbytes",
    }
    return {k: {"value": values[k], "unit": units[k]} for k in units}, details


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def print_report(result: dict) -> None:
    meta = result["meta"]
    print(f"== {meta['workload']}  seed {meta['seed']}  digest {meta['input_digest']}"
          f"  requests {meta['requests']}  ({meta['client']})")
    for name, m in result["metrics"].items():
        print(f"   {name:30s} {m['value']:>16.6g} {m['unit']}")
    print(f"   {'error_rate':30s} {meta['error_rate']:>16.6g} "
          f"({result['failed']}/{result['attempted']})")
    detail = meta.get("trace_detail")
    if detail:
        print(f"   {'layer':12s} {'self ms/req':>12s} {'calls/req':>12s} "
              f"{'errors':>6s}  wait")
        for row in detail["layers"]:
            print(f"   {row['layer']:12s} {row['self_ms_per_request']:>12.5g} "
                  f"{row['calls_per_request']:>12.5g} {row['errors']:>6d}  {row['wait']}")
        print(f"   traced request {detail['traced_request_ms']:.6g} ms = layer self "
              f"times {detail['self_sum_ms_per_request']:.6g} ms + unattributed; "
              f"tracing overhead {detail['overhead_ms_per_request']:.6g} ms/request")
    for why in meta["failures"]:
        print(f"   FAILED: {why}")
    print("meta " + json.dumps({k: v for k, v in meta.items()
                                if k not in ("trace_detail", "failures")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oddseq" / "__init__.py").is_file():
        print(f"error: no oddseq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: measure(name, args.seed, seconds, bool(args.trace))
                   for name in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        print_report(result)
        out_file = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(result, indent=2))

    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{k}": v for name, r in results.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
