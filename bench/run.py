"""Benchmark of the three deciders, the scan and the witness search.

    python3 bench/run.py --workload agree --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  ``--workload all`` runs the four workloads
one after the other.  With ``--trace 0`` the end-to-end metrics are measured
with no wrappers installed; with ``--trace 1`` a separate traced run gives the
per-layer metrics and the tracing overhead.  Every metric is printed by name
with its unit, every output is checked outside the timed region, and the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full result, with run metadata and failure messages, and the spans of a
traced run are written under ``.bench_out/``.  ``--write-benchmark-json``
regenerates BENCHMARK.json from ``bench/spec.py``.  Exit codes: 0 when the
run completed (whatever its checks found), 2 when the checkout has no
``src/mucube`` or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def git_sha(root: Path):
    """The commit of the checkout, read from ``.git`` without running git;
    None outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata(args, workload: str, wl) -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload,
        "size": wl.size,
    }


def run_one(args, workload: str) -> dict:
    from bench import measure, spec, workloads

    wl = workloads.make(workload, args.seed, OUT)
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        setup = measure.median_setup(measure.setup_runs(SRC, measure.SETUP_REPEATS))
        metrics, tally, notes = measure.run_traced(wl, args.seconds, OUT / f"spans-{tag}.jsonl")
        metrics["surfaces.build_x.busy_s"] = setup["build_x_s"]
        metrics["surfaces.build_y.busy_s"] = setup["build_y_s"]
        names = [name for name, *_ in spec.PER_LAYER]
    else:
        metrics, tally, notes = measure.run_untraced(wl, args.seconds, SRC)
        names = [name for name, *_ in spec.END_TO_END if name in metrics]
    failed = len(tally.failures)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": spec.UNITS[name]} for name in names},
    }
    meta = metadata(args, workload, wl)
    print(f"# {workload}: {json.dumps(meta, sort_keys=True)}")
    for name in names:
        print(f"{workload} {name} = {metrics[name]:.6g} {spec.UNITS[name]}")
    if "tail_percentile" in notes:
        print(f"{workload} latency_tail_ms is the p{notes['tail_percentile']:g} "
              f"of {notes['latency_samples']} per-direction samples")
    ratio = failed / tally.attempted if tally.attempted else 0.0
    print(f"{workload} failed_ratio = {ratio:.6g} ({failed} of {tally.attempted} checks failed)")
    for message in tally.failures[:5]:
        print(f"{workload} failure: {message}")
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({**result, "meta": meta, "notes": notes,
                   "failures": tally.failures}, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "scan", "agree", "deep", "witness"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if not (SRC / "mucube" / "__init__.py").is_file():
        print(f"error: no mucube sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    if args.write_benchmark_json:
        from bench import spec

        print(spec.write_benchmark_json(ROOT))
        return 0
    OUT.mkdir(exist_ok=True)
    from bench import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_one(args, name)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
