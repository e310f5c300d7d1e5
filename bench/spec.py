"""Names, units and bounds of the benchmark; the source of BENCHMARK.json."""

from __future__ import annotations

import json
from pathlib import Path

from bench.spans import SPAN_NAMES

RUN_SECONDS = 55

# The workloads the acceptance runs use; all four stay runnable.  ``scan`` is
# left out because its row check fails on the known drift-column defect of
# the CSV, and those runs need workloads on which no operation fails.
# ``deep`` is left out because the host's speed drifts over minutes: two
# workloads let each run measure 55 s, which averages more of that drift.
WORKLOADS = (
    ("agree", "classify_all on all 491 canonical directions up to 40: short orbits, "
              "most time in the 4-square quotient's cylinders and crossing counts"),
    ("witness", "witness_table(30, 12, 480) plus find_witness at depth 12 on every "
                "canonical direction up to 14: the only workload in the group side"),
)

# (name, unit, better, bound)
END_TO_END = (
    ("directions_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)

# (name, unit, better)
PER_LAYER = tuple(
    [m for name in SPAN_NAMES for m in (
        (f"{name}.busy_s", "s", "lower"),
        (f"{name}.self_s", "s", "lower"),
        (f"{name}.calls", "count", "lower"),
    )]
    + [
        ("mucube3d.trace3d.crossings", "count", "lower"),
        ("mucube3d.trace3d.crossings_per_s", "1/s", "higher"),
        ("mucube3d.trace3d.budget_used_max", "ratio", "lower"),
        ("flow.trace_surface.crossings", "count", "lower"),
        ("flow.trace_surface.crossings_per_s", "1/s", "higher"),
        ("flow.cylinder_decomposition.ms_per_call", "ms", "lower"),
        ("flow.cylinder_decomposition.cylinders", "count", "lower"),
        ("homology.pushoff_retries", "count", "lower"),
        ("grouptheory.find_witness.found", "count", "higher"),
        ("grouptheory.find_witness.found_ratio", "ratio", "higher"),
        ("grouptheory.witness_table.entries", "count", "higher"),
        ("surfaces.build_x.busy_s", "s", "lower"),
        ("surfaces.build_y.busy_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
