"""Span recording for the traced run.

Wrappers are installed on the names the callers look up (for example
``mucube.classify.trace3d``, not ``mucube.mucube3d.trace3d``) and removed
again afterwards; nothing under ``src/`` is instrumented.  Each span keeps
its name, start, end, parent span and the index of the operation it served.
Counts are read from the returned objects.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns

from mucube import classify, cli, grouptheory, homology
from mucube.flow import DegenerateIntersection


def _trace3d_counts(traj, args, kwargs):
    budget = kwargs.get("max_crossings", 1_000_000)
    return {"crossings": traj.crossings, "budget_used": traj.crossings / budget}


# (module, attribute the caller looks up, span name, count reader)
PATCHES = (
    (cli, "scan_records", "cli.scan_records", None),
    (cli, "records_to_csv", "cli.records_to_csv", None),
    (cli, "records_to_svg", "cli.records_to_svg", None),
    (classify, "classify_all", "classify.classify_all", None),
    (classify, "classify_oracle", "classify.classify_oracle", None),
    (classify, "classify_x", "classify.classify_x", None),
    (classify, "classify_y", "classify.classify_y", None),
    (classify, "trace3d", "mucube3d.trace3d", _trace3d_counts),
    (classify, "find_quarter_symmetry", "mucube3d.find_quarter_symmetry", None),
    (classify, "trace_surface", "flow.trace_surface",
     lambda r, a, k: {"crossings": len(r.crossings)}),
    (classify, "cylinder_decomposition", "flow.cylinder_decomposition",
     lambda r, a, k: {"cylinders": len(r.cylinders)}),
    (classify, "gamma0_intersection", "homology.gamma0_intersection", None),
    (homology, "signed_crossings", "homology.signed_crossings", None),
    (grouptheory, "find_witness", "grouptheory.find_witness",
     lambda r, a, k: {"found": int(r is not None)}),
    (grouptheory, "witness_table", "grouptheory.witness_table",
     lambda r, a, k: {"entries": len(r)}),
)
SPAN_NAMES = tuple(name for _, _, name, _ in PATCHES)
COUNT_KEYS = tuple(f"{name}.calls" for name in SPAN_NAMES) + (
    "mucube3d.trace3d.crossings", "flow.trace_surface.crossings",
    "flow.cylinder_decomposition.cylinders", "homology.pushoff_retries",
    "grouptheory.find_witness.found", "grouptheory.witness_table.entries",
)


class Tracer:
    """In-memory span log of one traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None  # index of the operation being run

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            span = {"name": name, "start_ns": perf_counter_ns(), "end_ns": None,
                    "parent": self._stack[-1] if self._stack else None, "op": self.op}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["raised"] = type(exc).__name__
                raise
            finally:
                span["end_ns"] = perf_counter_ns()
                self._stack.pop()
            if count is not None:
                span.update(count(result, args, kwargs))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper, and the wrapped values of
        ``mucube.cli._CLASSIFIERS``, for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PATCHES]
        classifiers = dict(cli._CLASSIFIERS)
        try:
            for (mod, attr, name, count), (_, _, orig) in zip(PATCHES, saved):
                setattr(mod, attr, self.wrap(name, orig, count))
            for key, fn in classifiers.items():
                cli._CLASSIFIERS[key] = self.wrap(f"classify.{fn.__name__}", fn)
            yield self
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)
            cli._CLASSIFIERS.update(classifiers)

    def layer_metrics(self) -> tuple[dict, dict]:
        """``(counts, times)`` per layer.  Counts depend on the inputs only;
        times are busy (span durations) and self (minus child spans)."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        busy = dict.fromkeys(SPAN_NAMES, 0)
        own = dict.fromkeys(SPAN_NAMES, 0)
        counts = dict.fromkeys(COUNT_KEYS, 0)
        budget_max = 0.0
        for s, child in zip(self.spans, child_ns):
            name, dur = s["name"], s["end_ns"] - s["start_ns"]
            busy[name] += dur
            own[name] += dur - child
            counts[f"{name}.calls"] += 1
            for key in ("crossings", "cylinders", "found", "entries"):
                if key in s:
                    counts[f"{name}.{key}"] += s[key]
            if s.get("raised") == DegenerateIntersection.__name__:
                counts["homology.pushoff_retries"] += 1
            budget_max = max(budget_max, s.get("budget_used", 0.0))
        counts["mucube3d.trace3d.budget_used_max"] = budget_max
        finds = counts["grouptheory.find_witness.calls"]
        counts["grouptheory.find_witness.found_ratio"] = (
            counts["grouptheory.find_witness.found"] / finds if finds else 0.0)

        times = {}
        for name in SPAN_NAMES:
            times[f"{name}.busy_s"] = busy[name] / 1e9
            times[f"{name}.self_s"] = own[name] / 1e9
        for name in ("mucube3d.trace3d", "flow.trace_surface"):
            b = times[f"{name}.busy_s"]
            times[f"{name}.crossings_per_s"] = counts[f"{name}.crossings"] / b if b else 0.0
        calls = counts["flow.cylinder_decomposition.calls"]
        times["flow.cylinder_decomposition.ms_per_call"] = (
            1e3 * times["flow.cylinder_decomposition.busy_s"] / calls if calls else 0.0)
        return counts, times

    def write(self, path, ops) -> None:
        """Write the spans as JSON lines, after a header naming the operations."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"ops": [repr(op.arg) for op in ops]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
