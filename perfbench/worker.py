"""One workload in a fresh process: set up, then a closed loop with one client.

    python3 perfbench/worker.py CONFIG_JSON

run.py starts it and passes the generated inputs in a file; the worker never
sees the seed.  oddseq is imported from the checkout's src/ directory and
from nowhere else.  Each request's latency and cycle time go to a file as
int64 nanoseconds, the host probes taken between requests to another, and
each answer to a third: pi values for pi-warm, one JSON record per request
for the CLI workloads.  The worker checks no answers; run.py
does, against the reference.  The last line of stdout is a JSON summary.

Set-up ends at the first timed request.  run.py measures it from just
before it starts this process; time.perf_counter_ns reads CLOCK_MONOTONIC,
which both processes share.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLUSH_EVERY = 1 << 16  # latencies held in memory before they go to disk

clock = time.perf_counter_ns

PROBE_LOOP = 2000  # iterations of host_probe's loop: about 0.1 ms


def host_probe() -> int:
    """Nanoseconds for a fixed pure-Python loop, best of three.

    It shares no code with oddseq, so it reads the speed of the host alone:
    a shared host runs at times well below its usual speed, and run.py uses
    these readings to tell those stretches of the run from the rest.
    """
    best = None
    for _ in range(3):
        t0 = clock()
        s = 0
        for i in range(PROBE_LOOP):
            s += i * i
        took = clock() - t0
        best = took if best is None or took < best else best
    return best


def peak_rss_kb() -> int:
    """High-water RSS of this process's own address space.

    ru_maxrss is not used: on Linux it keeps the spawning process's peak
    across exec, so it would report run.py's memory, not oddseq's.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def import_oddseq():
    src = ROOT / "src"
    if not (src / "oddseq" / "__init__.py").is_file():
        raise SystemExit(f"no oddseq sources under {src}")
    sys.path.insert(0, str(src))
    import oddseq
    import oddseq.cli

    if Path(oddseq.__file__).resolve().parent != src / "oddseq":
        raise SystemExit(f"imported oddseq from {oddseq.__file__}, not {src}")
    return oddseq


class Loop:
    """Timed-loop bookkeeping; latencies are flushed to disk in chunks.

    Per request it keeps the latency and the cycle time, which runs from
    the end of the previous request (or the loop's start) to the end of
    this one and so adds the client's own work between requests.  Every
    probe_every requests it times host_probe, outside both, to record how
    fast the host runs at that moment.
    """

    def __init__(self, cfg: dict):
        self.seconds = cfg["seconds"]
        self.min_requests = cfg["min_requests"]
        self.probe_every = cfg["probe_every"]
        self.lat_file = open(cfg["latencies"], "wb")
        self.probe_file = cfg["probes"]
        self.lat = array("q")
        self.probes = array("q")
        self.count = 0
        self.latency_total = 0
        self.probe()
        self.ready = self.last_end = clock()

    def probe(self) -> None:
        self.probes.append(host_probe())

    def record(self, t0: int, now: int) -> None:
        self.lat.append(now - t0)
        self.lat.append(now - self.last_end)
        self.count += 1
        self.latency_total += now - t0
        self.last_end = now
        if len(self.lat) >= FLUSH_EVERY:
            self.flush()
        if self.count % self.probe_every == 0:
            self.probe()
            self.last_end = clock()

    def flush(self) -> None:
        self.lat.tofile(self.lat_file)
        del self.lat[:]

    def close(self) -> None:
        if self.count % self.probe_every:
            self.probe()
        self.flush()
        self.lat_file.close()
        with open(self.probe_file, "wb") as fh:
            self.probes.tofile(fh)

    def more(self, now: int) -> bool:
        return now - self.ready < self.seconds * 1e9 or self.count < self.min_requests


def run_pi_warm(oddseq, cfg, inputs, tracer) -> dict:
    strategy = oddseq.Strategy.ORACLE
    table = oddseq.SieveTable.build(cfg["warm_limit"])
    setup_pi = oddseq.pi_of(cfg["warm_limit"], strategy, table).pi
    summary = {"setup_pi": setup_pi}
    if cfg["setup_only"]:
        host_probe()  # as Loop does before its first request
        summary["ready_ns"] = clock()
        return summary

    answers, ans_file = array("q"), open(cfg["answers"], "wb")
    n_inputs, raised = len(inputs), 0
    i = 0
    loop = Loop(cfg)
    now = loop.ready
    while loop.more(now):
        x = inputs[i % n_inputs]
        if tracer is not None:
            tracer.begin_request(i)
        t0 = clock()
        try:
            pi = oddseq.pi_of(x, strategy, table).pi
        except Exception:
            pi = -1
            raised += 1
        now = clock()
        loop.record(t0, now)
        answers.append(pi)
        if len(answers) >= FLUSH_EVERY:
            answers.tofile(ans_file)
            del answers[:]
        i += 1
    answers.tofile(ans_file)
    ans_file.close()
    loop.close()
    summary.update(ready_ns=loop.ready, requests=loop.count,
                   raised=raised, latency_ns_total=loop.latency_total,
                   output_bytes=0)
    return summary


def run_cli(oddseq, cfg, inputs, tracer) -> dict:
    from workloads import argv_for

    workload = cfg["workload"]
    if cfg["setup_only"]:
        host_probe()
        return {"ready_ns": clock()}

    records = open(cfg["answers"], "w")
    n_inputs, raised, output_bytes = len(inputs), 0, 0
    i = 0
    loop = Loop(cfg)
    now = loop.ready
    while loop.more(now):
        argv = argv_for(workload, inputs[i % n_inputs])
        out, err = io.StringIO(), io.StringIO()
        rc, exc = None, None
        if tracer is not None:
            tracer.begin_request(i)
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = oddseq.cli.main(argv)
        except SystemExit as e:
            exc = f"SystemExit({e.code!r})"
        except Exception as e:
            exc = f"{type(e).__name__}: {e}"
        now = clock()
        loop.record(t0, now)
        raised += exc is not None
        text = out.getvalue()
        output_bytes += len(text.encode())
        records.write(json.dumps({"rc": rc, "exc": exc,
                                  "err": err.getvalue()[-4000:], "out": text}))
        records.write("\n")
        i += 1
    records.close()
    loop.close()
    return {"ready_ns": loop.ready, "requests": loop.count,
            "raised": raised, "latency_ns_total": loop.latency_total,
            "output_bytes": output_bytes}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    oddseq = import_oddseq()
    tracer = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(oddseq)
    try:
        inputs = array("q")
        inputs.frombytes(Path(cfg["inputs"]).read_bytes())
        run = run_pi_warm if cfg["workload"] == "pi-warm" else run_cli
        summary = run(oddseq, cfg, inputs, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    summary["rss_kb"] = peak_rss_kb()
    summary["python"] = sys.version.split()[0]
    summary["numpy"] = sys.modules["numpy"].__version__
    if tracer is not None and not cfg["setup_only"]:
        tracer.save(cfg["spans"])
        summary["trace"] = tracer.summarize(
            summary["requests"], summary["latency_ns_total"],
            summary["output_bytes"])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
