"""The timed loops: set-up in fresh interpreters, the untraced end-to-end
run, and the traced run that gives the per-layer numbers."""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from bench.spans import Tracer

SETUP_REPEATS = 21
SETUP_PER_PASS = 3
MIN_PASSES = 3
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)

SETUP_SCRIPT = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mucube
t1 = time.perf_counter()
mucube.build_x()
t2 = time.perf_counter()
mucube.build_y()
t3 = time.perf_counter()
if not mucube.__file__.startswith(sys.argv[1]):
    raise SystemExit("mucube was imported from " + mucube.__file__)
print(json.dumps({"setup_s": t3 - t0, "import_s": t1 - t0,
                  "build_x_s": t2 - t1, "build_y_s": t3 - t2}))
"""


def setup_runs(src: Path, repeats: int) -> list[dict]:
    """Times of importing ``mucube`` and building both quotient surfaces,
    each in a fresh interpreter (interpreter start-up excluded)."""
    runs = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-I", "-c", SETUP_SCRIPT, str(src)],
                             capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(out.stdout))
    return runs


def median_setup(runs: list[dict]) -> dict:
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail_quantile(samples: int) -> float:
    """Highest quantile of the ladder with at least ten of ``samples``
    samples beyond it."""
    for q in TAIL_LADDER:
        if samples * (1 - q) >= 10:
            return q
    return 0.5


def nearest_rank(sorted_values, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Tally:
    """Checks made and failures found, over one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures) -> None:
        self.attempted += attempted
        self.failures.extend(failures)


def _timed(wl, op, tally: Tally) -> int:
    """Run one operation, check it outside the timed region, return its
    duration in nanoseconds.  A raising operation counts as failed."""
    t0 = perf_counter_ns()
    try:
        result = wl.run(op)
    except Exception as exc:  # counted, the run goes on
        t1 = perf_counter_ns()
        tally.add(1, [f"{op.arg!r}: raised {type(exc).__name__}: {exc}"])
        return t1 - t0
    t1 = perf_counter_ns()
    tally.add(*wl.check(op, result))
    return t1 - t0


def run_untraced(wl, seconds: float, src: Path) -> tuple[dict, Tally, dict]:
    """Passes over the workload's operations while another pass fits in
    ``seconds``, and at least ``MIN_PASSES`` of them, each followed by
    ``SETUP_PER_PASS`` set-ups in fresh interpreters.  The shared host slows
    by up to half for tens of seconds at a time, so every time
    is a mean over the whole run, which averages these spells, rather than
    a median, which would pick one: ``directions_per_s`` is directions over
    measured time, the latencies are the median and tail over the pass's
    directions of their mean times, and ``setup_s`` is the median set-up
    time over set-ups spread across the run.  Returns the end-to-end
    metrics, the tally and notes for the report."""
    tally = Tally()
    op_ns = [0] * len(wl.ops)
    pass_ns, setups = [], []
    start = perf_counter()
    while True:
        total = 0
        for i, op in enumerate(wl.ops):
            ns = _timed(wl, op, tally)
            op_ns[i] += ns
            total += ns
        pass_ns.append(total)
        setups += setup_runs(src, SETUP_PER_PASS)
        n = len(pass_ns)
        if n >= MIN_PASSES and (perf_counter() - start) * (n + 1) / n > seconds:
            break
    directions = sum(wl.directions(op) for op in wl.ops)
    setup = median_setup(setups)
    metrics = {"directions_per_s": n * directions / (sum(pass_ns) / 1e9),
               "peak_rss_mb": peak_rss_mb(), "setup_s": setup["setup_s"]}
    notes = {"measured_s": sum(pass_ns) / 1e9, "setup": setup, "setups": len(setups),
             "pass_directions_per_s": [directions / (ns / 1e9) for ns in pass_ns]}
    latencies = sorted(ns / n for ns, op in zip(op_ns, wl.ops) if op.kind != "table")
    if wl.name != "scan":
        q = tail_quantile(len(latencies))
        metrics["latency_p50_ms"] = statistics.median(latencies) / 1e6
        metrics["latency_tail_ms"] = nearest_rank(latencies, q) / 1e6
        notes.update(tail_percentile=100 * q, latency_samples=len(latencies))
    return metrics, tally, notes


def _pass(wl, tally: Tally, tracer=None) -> int:
    total = 0
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = i
        total += _timed(wl, op, tally)
    return total


def run_traced(wl, seconds: float, spans_path: Path) -> tuple[dict, Tally, dict]:
    """Pairs of an untraced and a traced pass over the workload's fixed trace
    pass, while another pair fits in ``seconds`` (at least one pair).  Counts
    come from the first traced pass and must repeat in every later one; times
    are medians over passes.  The spans of the first traced pass are written
    to ``spans_path``."""
    tally = Tally()
    start = perf_counter()
    counts = None
    times, overheads, plain = [], [], []
    while True:
        untraced_ns = _pass(wl, tally)
        tracer = Tracer()
        with tracer.installed():
            traced_ns = _pass(wl, tally, tracer)
        pass_counts, pass_times = tracer.layer_metrics()
        if counts is None:
            counts = pass_counts
            tracer.write(spans_path, wl.ops)
        tally.add(1, [] if pass_counts == counts else
                  ["per-layer counts differ between traced passes of the same input"])
        times.append(pass_times)
        plain.append(untraced_ns / 1e9)
        overheads.append((traced_ns - untraced_ns) / 1e9)
        elapsed = perf_counter() - start
        if elapsed * (len(times) + 1) / len(times) > seconds:
            break
    metrics = dict(counts)
    for key in times[0]:
        metrics[key] = statistics.median(t[key] for t in times)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / statistics.median(plain)
    return metrics, tally, {"traced_passes": len(times), "untraced_pass_s": statistics.median(plain)}
