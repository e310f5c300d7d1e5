"""Command-line interface: exit codes, schemas, determinism."""

import errno
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys

import pytest

from mucube import cli, mucube3d
from mucube.classify import Classification, MethodDisagreement
from mucube.cli import (
    CSV_HEADER,
    main,
    max_angular_gap,
    records_to_csv,
    records_to_svg,
    scan_pairs,
    scan_records,
)
from mucube.flow import cylinder_count
from mucube.grouptheory import CosetTableError
from mucube.homology import HomologyError
from mucube.mucube3d import PeriodicDirectionError, drift_vector
from mucube.surfaces import build_y


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_periodic(capsys):
    code, out, err = run_cli(capsys, "classify", "--p", "1", "--q", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "periodic"
    assert payload["certificate"]["core_multiplier"] == 4


def test_classify_drift(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "5", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "drift"
    assert payload["certificate"]["drift_vector"] != [0, 0, 0]


def test_classify_reduces_with_warning(capsys):
    code, out, err = run_cli(capsys, "classify", "--p", "2", "--q", "4")
    assert code == 0
    assert "reduced" in err
    payload = json.loads(out)
    assert (payload["p"], payload["q"]) == (1, 2)
    assert payload["verdict"] == "drift"


@pytest.mark.parametrize("argv", [
    ("classify",), ("trace",), ("cylinders", "--surface", "y"), ("witness",),
])
def test_direction_parsing_is_shared(capsys, argv):
    # (4, 2) reduces to (2, 1) with a warning, and the zero vector is an error.
    code, out, err = run_cli(capsys, *argv, "--p", "4", "--q", "2")
    assert code == 0
    assert err == "warning: (4, 2) is not primitive; reduced to (2, 1)\n"
    assert out == run_cli(capsys, *argv, "--p", "2", "--q", "1")[1]
    code, out, err = run_cli(capsys, *argv, "--p", "0", "--q", "0")
    assert (code, out) == (2, "")
    assert err == "error: the zero vector is not a direction\n"


@pytest.mark.parametrize("argv, message", [
    (("scan", "--max", "0", "--out", "never.csv"), "--max must be at least 1"),
    (("scan", "--max", "1", "--out", "ok.csv", "--svg", "missing/d.svg", "--jobs", "1"),
     "cannot write missing/d.svg: [Errno 2] No such file or directory: 'missing/d.svg'"),
    (("trace", "--p", "1", "--q", "2", "--u", "2"),
     "bad start point: chart coordinates must lie in [0, 1]"),
    (("trace", "--p", "1", "--q", "2", "--u", "1/0"), "bad start point: Fraction(1, 0)"),
    (("trace", "--p", "1", "--q", "2", "--u", "x"),
     "bad start point: Invalid literal for Fraction: 'x'"),
    (("trace", "--p", "0", "--q", "0"), "the zero vector is not a direction"),
    (("cylinders", "--surface", "x", "--p", "0", "--q", "0"), "the zero vector is not a direction"),
    (("witness", "--p", "0", "--q", "0"), "the zero vector is not a direction"),
    (("fourey", "--coeffs", "a"),
     "bad coefficients: invalid literal for int() with base 10: 'a'"),
    (("fourey", "--coeffs", "0", "--period", "0"),
     "bad coefficients: partial quotients beyond a0 must be nonzero"),
    (("twist", "--slope", "x", "--axis", "vertical", "--k", "1"),
     "bad slope: Invalid literal for Fraction: 'x'"),
    (("twist", "--slope", "1/0", "--axis", "vertical", "--k", "1"), "bad slope: Fraction(1, 0)"),
])
def test_usage_error_is_one_stderr_line(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MUCUBE_OUTDIR", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert not (tmp_path / "never.csv").exists()


def test_classify_zero_vector_usage_error(capsys):
    code, _, err = run_cli(capsys, "classify", "--p", "0", "--q", "0")
    assert code == 2
    assert "error" in err


def test_classify_single_methods(capsys):
    for method in ("oracle", "x", "y"):
        code, out, _ = run_cli(
            capsys, "classify", "--p", "4", "--q", "1", "--method", method
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "periodic"


def test_classify_method_y_on_a_hundred_digit_direction(capsys):
    # Y counts cylinders along Euclid's algorithm, so a direction with more
    # than one cylinder is decided with no walk, which at 100 digits could
    # not finish.
    rng = random.Random(100)
    while True:
        p, q = rng.randrange(10**99, 10**100), rng.randrange(1, 10**100)
        if math.gcd(p, q) == 1 and cylinder_count(build_y(), (p, q)) > 1:
            break
    code, out, err = run_cli(capsys, "classify", "--p", str(p), "--q", str(q), "--method", "y")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["p"], payload["q"], payload["verdict"]) == (p, q, "drift")
    assert payload["certificate"] == {
        "cylinders": cylinder_count(build_y(), (p, q)), "core_intersection": None,
    }
    assert payload["certificate"]["cylinders"] > 1


def test_classify_method_group(capsys):
    for (p, q), verdict, reaches_h in (((4, 1), "periodic", True), ((5, 2), "drift", True),
                                       ((3, 1), "drift", False)):
        code, out, _ = run_cli(capsys, "classify", "--p", str(p), "--q", str(q),
                               "--method", "group")
        assert code == 0
        payload = json.loads(out)
        assert (payload["method"], payload["verdict"]) == ("group", verdict)
        assert payload["certificate"]["reaches_h"] is reaches_h
    assert json.loads(out)["certificate"] == {"reaches_h": False}


def test_scan_csv_schema_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys, "scan", "--max", "4", "--out", str(out), "--jobs", "1"
        )
        assert code == 0
    data1 = out1.read_bytes()
    assert data1 == out2.read_bytes()
    lines = data1.decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(scan_pairs(4))
    # rows ordered by (p, q)
    keys = [tuple(map(int, ln.split(",")[:2])) for ln in lines[1:]]
    assert keys == sorted(keys)


def test_scan_small_known_verdicts(tmp_path, capsys):
    out = tmp_path / "scan1.csv"
    code, _, _ = run_cli(capsys, "scan", "--max", "1", "--out", str(out), "--jobs", "1")
    assert code == 0
    rows = {}
    for ln in out.read_text().splitlines()[1:]:
        p, q, verdict = ln.split(",")[:3]
        rows[(int(p), int(q))] = verdict
    assert rows[(1, 0)] == "periodic"
    assert rows[(0, 1)] == "periodic"
    assert rows[(1, 1)] == "drift"
    assert rows[(1, -1)] == "drift"


def test_scan_drift_columns_are_the_rows_own(tmp_path, capsys):
    # Swapped and sign-flipped rows carry their own drift vector, not the one
    # of the canonical pair: (5, 2) drifts by (4, 0, 0), (2, 5) by (0, -4, 0).
    out = tmp_path / "scan6.csv"
    code, _, _ = run_cli(capsys, "scan", "--max", "6", "--out", str(out), "--jobs", "1")
    assert code == 0
    rows = {tuple(map(int, ln.split(",")[:2])): ln for ln in out.read_text().splitlines()[1:]}
    for p, q in ((2, 5), (2, -5), (3, 4), (4, 3)):
        x, y, z = drift_vector((p, q))
        assert rows[(p, q)] == f"{p},{q},drift,0,{x},{y},{z}"


def test_scan_in_parallel_writes_the_serial_csv(tmp_path, capsys):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        code, _, _ = run_cli(capsys, "scan", "--max", "6", "--out", str(out), "--jobs", jobs)
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_scan_pool_has_no_more_workers_than_tasks(monkeypatch):
    # Up to 2 there are three canonical classes and one drift swap, so a
    # request for 64 workers opens one pool of 3 and none for the swap.
    import multiprocessing

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    assert scan_records(2, jobs=64) == scan_records(2, jobs=1)
    assert sizes == [3]



def test_scan_jobs_are_capped_at_the_core_count(tmp_path, capsys, monkeypatch):
    # --jobs asks for at most one worker per core: on two cores a request
    # for a million workers opens one pool of 2 for the three canonical
    # classes up to 2, and none for the one drift swap.
    import multiprocessing

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = tmp_path / "capped.csv"
    code, _, _ = run_cli(capsys, "scan", "--max", "2", "--out", str(out), "--jobs", "1000000")
    assert code == 0
    assert sizes == [2]
    assert out.read_text() == records_to_csv(scan_records(2, jobs=1))

def test_scan_unwritable_path(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--max", "1", "--out", "/nonexistent-dir/x.csv", "--jobs", "1"
    )
    assert code == 2
    assert "cannot write" in err


def test_scan_rejects_method_y(tmp_path, capsys):
    # Y decides without a drift vector, so it cannot fill the drift columns.
    out = tmp_path / "y.csv"
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--max", "1", "--out", str(out), "--method", "y", "--jobs", "1"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_scan_svg_self_contained(tmp_path, capsys):
    svg = tmp_path / "disk.svg"
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys, "scan", "--max", "3", "--out", str(out), "--svg", str(svg),
        "--jobs", "1",
    )
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and text.rstrip().endswith("</svg>")
    assert "http" not in text.replace("http://www.w3.org/2000/svg", "")
    assert "<line" in text and "<circle" in text


def test_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MUCUBE_OUTDIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "scan", "--max", "1", "--out", "rel.csv", "--jobs", "1")
    assert code == 0
    assert (tmp_path / "rel.csv").exists()


def test_trace_json_schema(capsys):
    code, out, _ = run_cli(capsys, "trace", "--p", "4", "--q", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"] is True
    assert payload["arc_length"] == "4*sqrt(17)"
    assert payload["vertices"][0] == payload["vertices"][-1]
    for pt in payload["vertices"]:
        assert len(pt) == 3
        for c in pt:
            assert "/" in c or c.lstrip("-").isdigit()


def test_trace_csv(tmp_path, capsys):
    path = tmp_path / "verts.csv"
    code, out, _ = run_cli(
        capsys, "trace", "--p", "1", "--q", "0", "--csv", str(path)
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,z"
    assert len(lines) == len(json.loads(out)["vertices"]) + 1


@pytest.mark.parametrize("via_outdir", [False, True], ids=["absolute", "outdir"])
def test_trace_csv_unwritable_path(tmp_path, capsys, monkeypatch, via_outdir):
    missing = tmp_path / "missing"
    if via_outdir:
        monkeypatch.setenv("MUCUBE_OUTDIR", str(missing))
        csv, path = "x.csv", missing / "x.csv"
    else:
        csv = path = missing / "x.csv"
    code, out, err = run_cli(capsys, "trace", "--p", "1", "--q", "0", "--csv", str(csv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


def test_trace_edge_start_usage_error(capsys):
    code, out, err = run_cli(capsys, "trace", "--p", "1", "--q", "2", "--u", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad start point")


@pytest.mark.parametrize("max_s", ["x", "1/0"])
def test_trace_bad_max_s_usage_error(capsys, max_s):
    code, out, err = run_cli(capsys, "trace", "--p", "1", "--q", "2", "--max-s", max_s)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad --max-s: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (("trace", "--p", "2", "--q", "1", "--max-s", "-1"), "--max-s"),
        (("witness", "--p", "4", "--q", "1", "--max-depth", "-1"), "--max-depth"),
        (("scan", "--max", "3", "--out", "never.csv", "--jobs", "-1"), "--jobs"),
    ],
)
def test_negative_counts_usage_error(tmp_path, capsys, monkeypatch, argv, option):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {option} must not be negative\n"
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("error", [CosetTableError, HomologyError, PeriodicDirectionError])
def test_invariant_errors_exit_3(capsys, monkeypatch, error):
    def fail(direction):
        raise error("forced")

    monkeypatch.setitem(cli._CLASSIFIERS, "all", fail)
    code, out, err = run_cli(capsys, "classify", "--p", "1", "--q", "0")
    assert code == 3
    assert out == ""
    assert err == "internal error: forced\n"


def test_method_disagreement_exits_3_with_every_verdict(capsys, monkeypatch):
    def disagree(direction):
        raise MethodDisagreement(direction, [
            Classification(direction, "periodic", "oracle", {"s_total": 4}),
            Classification(direction, "drift", "y", {"cylinders": 2}),
        ])

    monkeypatch.setitem(cli._CLASSIFIERS, "all", disagree)
    code, out, err = run_cli(capsys, "classify", "--p", "1", "--q", "0")
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "internal error: classifiers disagree on (1, 0): oracle=periodic, y=drift",
        "  oracle: periodic {'s_total': 4}",
        "  y: drift {'cylinders': 2}",
    ]


def test_a_leaf_that_never_closes_exits_3(capsys, monkeypatch):
    # Frames that never come back to the anchor's break trace3d's lemma: the
    # oracle and the trace raise after 24 units, and the CLI reports it.
    real, calls = mucube3d._fold, itertools.count()

    def fold(codes, c, frame, p, q, visits):
        return real(codes, c, frame[:5], p, q, visits) + (next(calls),)

    monkeypatch.setattr(mucube3d, "_fold", fold)
    for argv in (
        ("classify", "--p", "3", "--q", "1", "--method", "oracle"),
        ("trace", "--p", "3", "--q", "1", "--v", "1/3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "internal error: leaf in direction (3, 1) did not close or drift within 24 units\n"


def test_trace_runs_to_the_drift_the_oracle_reports(capsys):
    # The trace drifts at crossing 100 005; no guessed budget cuts it short.
    code, out, _ = run_cli(capsys, "trace", "--p", "24000", "--q", "1001")
    assert code == 0
    traced = json.loads(out)
    assert traced["stop_reason"] == "drift"
    code, out, _ = run_cli(capsys, "classify", "--p", "24000", "--q", "1001", "--method", "oracle")
    assert code == 0
    assert traced["drift_vector"] == json.loads(out)["certificate"]["drift_vector"] == [-8, 0, 0]


def test_cylinders_json(capsys):
    code, out, _ = run_cli(
        capsys, "cylinders", "--surface", "y", "--p", "4", "--q", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cylinders"]) == 1
    cyl = payload["cylinders"][0]
    assert cyl["area"] == "4"
    assert cyl["circumference"] == "4*sqrt(17)"
    assert payload["total_area"] == "4"


def test_fourey_command(capsys):
    code, out, _ = run_cli(capsys, "fourey", "--coeffs", "0,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["slope"] == "1/4"
    assert payload["verdict"] == "periodic"
    assert payload["in_gamma"] is True
    assert payload["direction"] == [4, 1]
    assert payload["recurrence_class"] == "periodic_slope"


def test_fourey_periodic_tail(capsys):
    code, out, _ = run_cli(capsys, "fourey", "--coeffs", "0", "--period", "2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["recurrence_class"] == "recurrent_all"
    assert "slope" not in payload


def test_fourey_negative_values_in_the_equals_form(capsys):
    code, out, _ = run_cli(capsys, "fourey", "--coeffs=0", "--period=-2,2")
    assert code == 0
    assert json.loads(out)["recurrence_class"] == "recurrent_from_cone_points"


@pytest.mark.parametrize("coeffs", [",", ""])
def test_fourey_empty_coefficients_usage_error(capsys, coeffs):
    code, out, err = run_cli(capsys, "fourey", "--coeffs", coeffs)
    assert code == 2
    assert out == ""
    assert err == "error: bad coefficients: a0 is required\n"


def test_witness_command(capsys):
    code, out, _ = run_cli(capsys, "witness", "--p", "4", "--q", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    rho = payload["rho"]
    assert rho[1][0] == 0 and abs(rho[0][0]) == 1
    col = [payload["matrix"][0][0], payload["matrix"][1][0]]
    assert col in ([4, 1], [-4, -1])


def test_witness_not_found(capsys):
    code, out, _ = run_cli(capsys, "witness", "--p", "5", "--q", "2",
                           "--max-depth", "8")
    assert code == 0
    assert json.loads(out)["found"] is False


def test_witness_odd_odd_not_found(capsys):
    # Odd/odd directions have no witness at any depth; the payload is the
    # usual not-found one.
    code, out, _ = run_cli(capsys, "witness", "--p", "3", "--q", "5")
    assert code == 0
    assert json.loads(out) == {
        "p": 3,
        "q": 5,
        "found": False,
        "max_depth": 14,
        "note": "no witness within depth; inconclusive by itself",
    }


def test_witness_complete_finds_words_beyond_the_depth(capsys):
    code, out, _ = run_cli(capsys, "witness", "--p", "800001", "--q", "200008")
    assert code == 0 and json.loads(out)["found"] is False
    code, out, _ = run_cli(capsys, "witness", "--p", "800001", "--q", "200008", "--complete")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["word"] == "A T A^1613 T A^2 T A T"
    assert payload["depth"] == 1621
    assert [payload["matrix"][0][0], payload["matrix"][1][0]] == [800001, 200008]
    assert payload["rho"] == [[1, 1617], [0, 1]]


def test_witness_complete_proves_there_is_none(capsys):
    code, out, _ = run_cli(capsys, "witness", "--p", "5", "--q", "2", "--complete")
    assert code == 0
    payload = json.loads(out)
    assert (payload["found"], payload["reaches_h"]) == (False, True)
    assert payload["rho"] == [[3, 2], [4, 3]]
    assert "inconclusive" not in payload["note"]
    code, out, _ = run_cli(capsys, "witness", "--p", "3", "--q", "1", "--complete")
    assert code == 0
    payload = json.loads(out)
    assert (payload["found"], payload["reaches_h"]) == (False, False)
    assert "rho" not in payload


def test_classify_method_group_huge_directions(capsys):
    for (p, q), verdict, cert in (
        ((10**100, 10**200 + 1), "periodic", {"reaches_h": True, "rho": [[1, 1], [0, 1]]}),
        ((2 * 10**100 + 1, 10**100 + 1), "drift", {"reaches_h": False}),
    ):
        code, out, _ = run_cli(capsys, "classify", "--p", str(p), "--q", str(q),
                               "--method", "group")
        assert code == 0
        payload = json.loads(out)
        assert (payload["p"], payload["q"], payload["verdict"]) == (p, q, verdict)
        assert payload["certificate"] == cert


def test_twist_command(capsys):
    code, out, _ = run_cli(
        capsys, "twist", "--slope", "0", "--axis", "vertical", "--k", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["slope_out"] == "8"
    assert payload["verdict_out"] == "periodic"


def test_twist_negative_slope_in_the_equals_form(capsys):
    # A horizontal twist of slope -1/4 is the vertical direction, whose
    # closed core has length 4.
    code, out, _ = run_cli(capsys, "twist", "--slope=-1/4", "--axis", "horizontal", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert (payload["slope_out"], payload["direction_out"]) == ("inf", [0, 1])
    assert payload["predicted_length"] == "4"


def test_twist_requires_periodic_slope(capsys):
    code, _, err = run_cli(
        capsys, "twist", "--slope", "1/2", "--axis", "vertical", "--k", "1"
    )
    assert code == 2
    assert "periodic" in err


def test_twist_parallel_axis_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "twist", "--slope", "inf", "--axis", "vertical", "--k", "1"
    )
    assert code == 2


def _run_module(*argv, **kwargs):
    """``python -m`` in a child process that imports the same package as this
    suite, also when pytest put src/ on sys.path itself (pyproject's
    pythonpath setting)."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", *argv], text=True, env=env, **kwargs)


def test_console_script_entry():
    proc = _run_module("mucube.cli", "classify", "--p", "1", "--q", "0", capture_output=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "periodic"


def test_python_dash_m_runs_the_cli(capsys):
    # ``python -m mucube`` runs cli.main: same exit code, same stdout.
    argv = ["classify", "--p", "5", "--q", "2"]
    proc = _run_module("mucube", *argv, capture_output=True)
    code, out, _ = run_cli(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out


def test_closed_stdout_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # A stdout whose reader has gone: one error line, exit 2, and the
    # descriptor behind stdout now points at the null device, so the flush
    # at exit writes nothing more.
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["classify", "--p", "5", "--q", "2"]) == 2
    assert capsys.readouterr().err == "error: cannot write stdout: [Errno 32] Broken pipe\n"
    assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    os.close(fd)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_full_stdout_exits_2_without_a_traceback():
    with open("/dev/full", "w") as full:
        proc = _run_module("mucube", "classify", "--p", "5", "--q", "2", stdout=full,
                           stderr=subprocess.PIPE)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv, code", [
    (["classify", "--p", "0", "--q", "0"], 2),  # the error line
    (["classify", "--p", "2", "--q", "4"], 0),  # the reduction warning
    (["scan", "--max", "3", "--out", "rows.csv", "--jobs", "1"], 0),  # the summary
], ids=["error", "warning", "summary"])
def test_full_stderr_keeps_the_exit_code(tmp_path, monkeypatch, argv, code):
    # A line that cannot be written to stderr is dropped: the exit code,
    # stdout and the files written are those of a run whose stderr works.
    monkeypatch.delenv("MUCUBE_OUTDIR", raising=False)
    lost_dir, kept_dir = tmp_path / "lost", tmp_path / "kept"
    lost_dir.mkdir()
    kept_dir.mkdir()
    with open("/dev/full", "w") as full:
        lost = _run_module("mucube", *argv, cwd=lost_dir, stdout=subprocess.PIPE, stderr=full)
    kept = _run_module("mucube", *argv, cwd=kept_dir, capture_output=True)
    assert kept.stderr.count("\n") == 1
    assert lost.returncode == kept.returncode == code
    assert lost.stdout == kept.stdout
    assert [(f.name, f.read_bytes()) for f in lost_dir.iterdir()] == [
        (f.name, f.read_bytes()) for f in kept_dir.iterdir()
    ]


def test_gap_without_periodic_rows_is_the_full_turn():
    drift = [r for r in scan_records(3, jobs=1) if r[2] != "periodic"]
    assert drift and max_angular_gap(drift) == 2 * math.pi


def test_gap_statistic_monotone_small():
    recs3 = scan_records(3, jobs=1)
    recs6 = scan_records(6, jobs=1)
    assert max_angular_gap(recs6) <= max_angular_gap(recs3)
