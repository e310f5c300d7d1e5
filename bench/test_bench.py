"""Tests of the benchmark itself, on inputs far smaller than its workloads."""

import json
from pathlib import Path

import pytest

from bench import measure, spec, workloads
from bench.rowcheck import expected_row, row_error
from mucube import cli

ROOT = Path(__file__).resolve().parent.parent


def _small(name, seed, tmp_path):
    if name == "scan":
        return workloads.make_scan(seed, tmp_path, max_n=5, checked_rows=6)
    if name == "agree":
        return workloads.make_agree(seed, max_n=8)
    if name == "deep":
        return workloads.make_deep(seed, edges=(30, 60, 120))
    return workloads.make_witness(seed, max_n=5, table_args=(8, 8, 128))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_counts(name, tmp_path):
    runs = []
    for _ in range(2):
        metrics, _, _ = measure.run_traced(_small(name, 7, tmp_path), 0, tmp_path / "spans.jsonl")
        runs.append({k: v for k, v in metrics.items() if spec.UNITS[k] == "count"})
    assert runs[0] == runs[1]
    assert set(runs[0]) == {n for n, u, _ in spec.PER_LAYER if u == "count"}
    calls = {"scan": "cli.scan_records.calls", "agree": "classify.classify_all.calls",
             "deep": "classify.classify_all.calls", "witness": "grouptheory.find_witness.calls"}
    assert runs[0][calls[name]] > 0


def test_traced_run_writes_spans_with_parents(tmp_path):
    path = tmp_path / "spans.jsonl"
    measure.run_traced(_small("agree", 1, tmp_path), 0, path)
    lines = path.read_text().splitlines()
    spans = [json.loads(ln) for ln in lines[1:]]
    names = {s["name"] for s in spans}
    assert {"classify.classify_all", "mucube3d.trace3d", "flow.cylinder_decomposition"} <= names
    top = [s for s in spans if s["parent"] is None]
    assert {s["name"] for s in top} == {"classify.classify_all"}
    assert all(spans[s["parent"]]["op"] == s["op"] for s in spans if s["parent"] is not None)


def test_untraced_checks_pass_on_small_inputs():
    metrics, tally, _ = measure.run_untraced(workloads.make_agree(3, max_n=10), 0, ROOT / "src")
    assert tally.attempted > 0 and tally.failures == []
    assert {n for n, *_ in spec.END_TO_END} == set(metrics)


def test_slow_rows_match_the_direction_itself():
    assert expected_row(4, 1) == "4,1,periodic,4,0,0,0"
    assert expected_row(2, 5) == "2,5,drift,0,0,-4,0"


def test_checker_counts_a_corrupted_scan_row(tmp_path):
    rows = [expected_row(p, q) for p, q in cli.scan_pairs(3)]
    bad = next(i for i, r in enumerate(rows) if ",drift," in r)
    p, q = rows[bad].split(",")[:2]
    corrupted = f"{p},{q},drift,0,9,9,9"
    assert row_error(corrupted) is not None

    results = []
    for text in (rows, rows[:bad] + [corrupted] + rows[bad + 1:]):
        wl = workloads.make_scan(0, tmp_path, max_n=3, checked_rows=len(rows))
        op = wl.ops[0]
        wl.state["csv_path"].write_text("\n".join([cli.CSV_HEADER, *text]) + "\n")
        results.append(wl.check(op, 0))
    assert results[0] == (1 + len(rows), [])
    attempted, failures = results[1]
    assert attempted == 1 + len(rows) and len(failures) == 1
    assert corrupted in failures[0]


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
