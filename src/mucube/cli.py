"""Command-line frontend.

Subcommands: classify, scan, trace, cylinders, fourey, witness, twist.
All outputs are JSON or CSV with exact rationals rendered as strings; floats
appear only in the SVG renderer.  Exit codes: 0 success, 2 usage error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from math import gcd
from typing import Optional

from .exact import SqrtLength, frac_str
from .classify import (
    DRIFT,
    PERIODIC,
    ClassificationError,
    MethodDisagreement,
    classify_all,
    classify_group,
    classify_oracle,
    classify_x,
    classify_y,
)
from .flow import FlowBudgetError, SIDE_NAMES, cylinder_decomposition
from .grouptheory import (
    ContinuedFraction,
    CosetTableError,
    _checked,
    _column_rho_and_word,
    convergents,
    eval_word,
    find_witness,
    fourey_direction,
    fourey_word,
    is_in_gamma,
    recurrence_classify,
    rho,
)
from .homology import HomologyError
from .mucube3d import (
    ConePointStart,
    InternalGeometryError,
    PeriodicDirectionError,
    Point3,
    SEED_CHART,
    SEED_FACE,
    trace3d,
    twist_length_prediction,
    twist_slope,
)
from .surfaces import SurfaceConstructionError, build_x, build_y

USAGE_ERROR = 2
INTERNAL_ERROR = 3

CSV_HEADER = "p,q,verdict,core_multiplier,drift_x,drift_y,drift_z"

_CLASSIFIERS = {
    "all": classify_all,
    "group": classify_group,
    "oracle": classify_oracle,
    "x": classify_x,
    "y": classify_y,
}


class UsageError(Exception):
    """A bad argument; ``main`` reports it as one ``error:`` line, exit 2."""


def _write(path: str, text: str) -> None:
    """Write an output file; a relative path is taken under $MUCUBE_OUTDIR
    when that is set (``os.path.join`` keeps an absolute path as it is)."""
    out = os.path.join(os.environ.get("MUCUBE_OUTDIR", ""), path)
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from None


def _to_devnull(stream) -> None:
    """Point ``stream``'s descriptor at the null device, so what is still
    buffered goes there at exit, with no second error."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _emit(obj) -> None:
    try:
        print(json.dumps(obj, sort_keys=True, indent=2), flush=True)
    except OSError as exc:
        _to_devnull(sys.stdout)
        raise UsageError(f"cannot write stdout: {exc}") from None


def _say(*lines: str) -> None:
    """Write lines to stderr.  A failed write is dropped, as there is no
    stream left to report it on, and the exit code stays the command's."""
    try:
        print(*lines, sep="\n", file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr)


def _serialize_certificate(cert: dict) -> dict:
    out = {}
    for key, val in cert.items():
        if key == "per_method":
            out[key] = {m: _serialize_certificate(c) for m, c in val.items()}
        elif key == "centers":
            out[key] = [[frac_str(c) for c in pt] for pt in val]
        elif key == "order4_motion":
            out[key] = {"rotation": [list(r) for r in val.rotation],
                        "translation": list(val.translation)}
        elif key == "start":
            out[key] = {"face": list(val.face.center2x), "axis": val.face.axis,
                        "u": frac_str(val.u), "v": frac_str(val.v)}
        elif isinstance(val, tuple):
            out[key] = list(val)
        else:
            out[key] = val
    return out


def _direction(args) -> tuple[int, int]:
    """The primitive direction of ``args.p`` and ``args.q``, with a warning
    when it had to be reduced."""
    p, q = args.p, args.q
    if (p, q) == (0, 0):
        raise UsageError("the zero vector is not a direction")
    g = gcd(abs(p), abs(q))
    if g != 1:
        _say(f"warning: ({p}, {q}) is not primitive; reduced to ({p // g}, {q // g})")
    return p // g, q // g


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    p, q = _direction(args)
    result = _CLASSIFIERS[args.method]((p, q))
    _emit(
        {
            "p": p,
            "q": q,
            "verdict": result.verdict,
            "method": result.method,
            "certificate": _serialize_certificate(result.certificate),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def scan_pairs(max_n: int) -> list[tuple[int, int]]:
    """All coprime pairs with |p|, |q| <= max_n, one per antipodal class,
    ordered by (p, q)."""
    out = []
    for p in range(0, max_n + 1):
        qs = range(1, max_n + 1) if p == 0 else range(-max_n, max_n + 1)
        for q in qs:
            if gcd(abs(p), abs(q)) == 1:
                out.append((p, q))
    out.sort()
    return out


def _verdict_record(pair_method):
    (p, q), method = pair_method
    cls = _CLASSIFIERS[method]((p, q))
    if cls.verdict == PERIODIC:
        return (p, q, PERIODIC, 4, (0, 0, 0))
    return (p, q, DRIFT, 0, tuple(cls.certificate["drift_vector"]))


def _verdict_records(pairs, method: str, jobs: int):
    tasks = [(pair, method) for pair in pairs]
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            return pool.map(_verdict_record, tasks, chunksize=64)
    return [_verdict_record(t) for t in tasks]


def scan_records(max_n: int, method: str = "oracle", jobs: int = 1):
    """Classification records for all scan pairs, deterministic order.

    The verdict of (p, q) is invariant under swapping and sign flips, so each
    symmetry class is classified once and its verdict is replayed onto all
    its representatives.  Drift vectors are not invariant: both (a, b) and
    (b, a) are classified, and the row (a, -b) carries the vector (x, -y, -z)
    of (a, b).  That is the composite of two symmetries which fix the start
    point: p -> -p reflects the seed face and maps (x, y, z) to (-x, y, z),
    and (p, q) -> (-p, -q) reverses time and negates the vector.
    """
    pairs = scan_pairs(max_n)
    canon = sorted({(max(abs(p), abs(q)), min(abs(p), abs(q))) for p, q in pairs})
    results = _verdict_records(canon, method, jobs)
    swaps = [(b, a) for a, b, verdict, _, _ in results if verdict == DRIFT and a != b]
    results += _verdict_records(swaps, method, jobs)
    by_pair = {(r[0], r[1]): r for r in results}

    records = []
    for p, q in pairs:
        if by_pair[(max(abs(p), abs(q)), min(abs(p), abs(q)))][2] == PERIODIC:
            records.append((p, q, PERIODIC, 4, (0, 0, 0)))
        else:
            x, y, z = by_pair[(p, abs(q))][4]
            records.append((p, q, DRIFT, 0, (x, y, z) if q >= 0 else (x, -y, -z)))
    return records


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for p, q, verdict, core, drift in records:
        lines.append(f"{p},{q},{verdict},{core},{drift[0]},{drift[1]},{drift[2]}")
    return "\n".join(lines) + "\n"


def max_angular_gap(records, max_n: Optional[int] = None) -> float:
    """Largest angular gap (radians) between consecutive periodic rays."""
    angles = []
    for p, q, verdict, _, _ in records:
        if max_n is not None and max(abs(p), abs(q)) > max_n:
            continue
        if verdict == PERIODIC:
            a = math.atan2(q, p)
            angles.append(a % (2 * math.pi))
            angles.append((a + math.pi) % (2 * math.pi))
    if not angles:
        return 2 * math.pi
    angles.sort()
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(angles[0] + 2 * math.pi - angles[-1])
    return max(gaps)


def records_to_svg(records) -> str:
    """Self-contained unit-disk picture: rays for periodic directions, dots
    for drift directions (both antipodal representatives drawn)."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.1 -1.1 2.2 2.2">',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#888" stroke-width="0.004"/>',
    ]
    rays = []
    dots = []
    for p, q, verdict, _, _ in records:
        norm = math.hypot(p, q)
        for sx, sy in ((p, q), (-p, -q)):
            x, y = sx / norm, -sy / norm  # SVG y grows downward
            if verdict == PERIODIC:
                rays.append(
                    f'<line x1="0" y1="0" x2="{x:.6f}" y2="{y:.6f}" '
                    f'stroke="#1a4f8a" stroke-width="0.002"/>'
                )
            else:
                dots.append(
                    f'<circle cx="{x:.6f}" cy="{y:.6f}" r="0.0035" fill="#c33"/>'
                )
    parts.extend(rays)
    parts.extend(dots)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_scan(args) -> int:
    if args.max < 1:
        raise UsageError("--max must be at least 1")
    if args.jobs < 0:
        raise UsageError("--jobs must not be negative")
    cores = os.cpu_count() or 1
    jobs = min(args.jobs or cores, cores)
    records = scan_records(args.max, method=args.method, jobs=jobs)
    _write(args.out, records_to_csv(records))
    if args.svg:
        _write(args.svg, records_to_svg(records))
    n_periodic = sum(1 for r in records if r[2] == PERIODIC)
    _say(
        f"scanned {len(records)} directions up to {args.max}: "
        f"{n_periodic} periodic, {len(records) - n_periodic} drift; "
        f"max periodic-ray gap {max_angular_gap(records):.6f} rad"
    )
    return 0


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def cmd_trace(args) -> int:
    p, q = _direction(args)
    try:
        u = Fraction(args.u)
        v = Fraction(args.v)
        start = Point3(SEED_FACE, SEED_CHART, u, v)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad start point: {exc}") from None
    try:
        max_s = Fraction(args.max_s) if args.max_s else None
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --max-s: {exc}") from None
    if max_s is not None and max_s < 0:
        raise UsageError("--max-s must not be negative")
    try:
        traj = trace3d(start, (p, q), max_arc_s=max_s)
    except ConePointStart as exc:
        raise UsageError(f"bad start point: {exc}") from None
    payload = {
        "direction": [p, q],
        "closed": traj.closed,
        "drift_vector": list(traj.drift_vector) if traj.drift_vector else None,
        "arc_length": str(traj.arc_length),
        "stop_reason": traj.stop_reason,
        "vertices": [[frac_str(c) for c in pt] for pt in traj.vertices],
    }
    if traj.cone_point is not None:
        payload["cone_point"] = [frac_str(c) for c in traj.cone_point]
    if args.csv:
        rows = ["x,y,z"] + [",".join(frac_str(c) for c in pt) for pt in traj.vertices]
        _write(args.csv, "\n".join(rows) + "\n")
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# cylinders
# ---------------------------------------------------------------------------

def cmd_cylinders(args) -> int:
    p, q = _direction(args)
    surf = build_x() if args.surface == "x" else build_y()
    deco = cylinder_decomposition(surf, (p, q))
    _emit(
        {
            "surface": args.surface,
            "direction": [p, q],
            "cylinders": [
                {
                    "circumference": str(c.circumference),
                    "circumference_multiplier": c.circumference_multiplier,
                    "width": str(c.width),
                    "area": frac_str(c.area),
                    "squares": sorted(set(c.squares)),
                    "intervals": [
                        [sq, SIDE_NAMES[side], frac_str(lo), frac_str(hi)]
                        for (sq, side), lo, hi in c.intervals
                    ],
                }
                for c in deco.cylinders
            ],
            "total_area": frac_str(deco.total_area),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# fourey
# ---------------------------------------------------------------------------

def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def cmd_fourey(args) -> int:
    try:
        coeffs = _parse_int_list(args.coeffs)
        period = _parse_int_list(args.period) if args.period else []
        cf = ContinuedFraction.fourey(coeffs, period)
    except ValueError as exc:
        raise UsageError(f"bad coefficients: {exc}") from None
    payload = {
        "coefficients": coeffs,
        "period": period,
        "partial_quotients": cf.quotients(len(coeffs) - 1 + 2 * len(period)),
        "recurrence_class": recurrence_classify(cf),
    }
    if cf.finite:
        value = cf.value()
        direction = fourey_direction(coeffs)
        word = fourey_word(coeffs)
        m = eval_word(word)
        payload.update(
            {
                "slope": frac_str(value),
                "direction": list(direction),
                "word": str(word),
                "word_first_column": [m[0], m[2]],
                "in_gamma": is_in_gamma(word),
                "convergents": [[pn, qn] for pn, qn in convergents(cf, cf.depth())],
                "verdict": classify_all(direction).verdict,
            }
        )
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def cmd_witness(args) -> int:
    p, q = _direction(args)
    if args.max_depth < 0:
        raise UsageError("--max-depth must not be negative")
    if args.complete:
        _emit(_complete_witness(p, q))
        return 0
    word = find_witness((p, q), max_depth=args.max_depth)
    if word is None:
        _emit(
            {
                "p": p,
                "q": q,
                "found": False,
                "max_depth": args.max_depth,
                "note": "no witness within depth; inconclusive by itself",
            }
        )
        return 0
    _emit(_witness_payload(p, q, word))
    return 0


def _witness_payload(p: int, q: int, word) -> dict:
    m = eval_word(word)
    r = rho(word)
    return {
        "p": p,
        "q": q,
        "found": True,
        "word": str(word),
        "matrix": [[m[0], m[1]], [m[2], m[3]]],
        "rho": [[r[0], r[1]], [r[2], r[3]]],
        "depth": sum(abs(e) for _, e in word.letters),
    }


def _complete_witness(p: int, q: int) -> dict:
    """The shortest witness word of (p, q), with no bound on depth, or the
    coset table's proof that there is none."""
    r, word = _column_rho_and_word(p, q)
    if r is None:
        return {"p": p, "q": q, "found": False, "reaches_h": False,
                "note": "no word over T, A, B has first column +-(p, q)"}
    if word is None:
        return {"p": p, "q": q, "found": False, "reaches_h": True,
                "rho": [[r[0], r[1]], [r[2], r[3]]],
                "note": "every word over T, A, B with first column +-(p, q) has "
                        "this rho times a power of rho(A), up to sign, and none of "
                        "these is upper unipotent"}
    return _witness_payload(p, q, _checked(word))


# ---------------------------------------------------------------------------
# twist
# ---------------------------------------------------------------------------

def _parse_slope(text: str) -> Optional[Fraction]:
    if text.lower() in ("inf", "infinity", "oo"):
        return None
    return Fraction(text)


def _slope_direction(s: Optional[Fraction]) -> tuple[int, int]:
    if s is None:
        return (0, 1)
    return (s.denominator, s.numerator)


def cmd_twist(args) -> int:
    try:
        slope = _parse_slope(args.slope)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad slope: {exc}") from None
    direction = _slope_direction(slope)
    if classify_all(direction).verdict != PERIODIC:
        raise UsageError(
            f"slope {args.slope} is not a periodic slope "
            "(the twist is defined on periodic trajectories)"
        )
    try:
        out_slope = twist_slope(slope, args.axis, args.k)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out_dir = _slope_direction(out_slope)
    after = classify_all(out_dir)
    axis_dir = (0, 1) if args.axis == "vertical" else (1, 0)
    nv = axis_dir[0] ** 2 + axis_dir[1] ** 2
    length = twist_length_prediction(
        SqrtLength.of(4, nv),
        SqrtLength.of(Fraction(1, nv), nv),
        (axis_dir, direction),
        args.k,
        SqrtLength.of(4, direction[0] ** 2 + direction[1] ** 2),
    ) if args.k != 0 else SqrtLength.of(4, direction[0] ** 2 + direction[1] ** 2)
    _emit(
        {
            "slope_in": args.slope,
            "axis": args.axis,
            "k": args.k,
            "slope_out": "inf" if out_slope is None else frac_str(out_slope),
            "direction_out": list(out_dir),
            "verdict_out": after.verdict,
            "predicted_length": str(length),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mucube",
        description="Exact periodicity analysis of the straight-line flow on "
        "the triply periodic half-translation surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="decide periodic vs drift for a direction")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--method", choices=sorted(_CLASSIFIERS), default="all")
    c.set_defaults(func=cmd_classify)

    s = sub.add_parser("scan", help="classify all directions up to a bound")
    s.add_argument("--max", type=int, required=True)
    s.add_argument("--out", required=True, help="CSV output path")
    s.add_argument("--svg", help="optional SVG output path")
    s.add_argument("--jobs", type=int, default=0, help="parallel workers (default and cap: all cores)")
    # Y decides the verdict without a drift vector, so it cannot fill a row.
    s.add_argument("--method", choices=("all", "oracle", "x"), default="oracle")
    s.set_defaults(func=cmd_scan)

    t = sub.add_parser("trace", help="trace the flow in the 3D embedding")
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--q", type=int, required=True)
    t.add_argument("--u", default="1/2", help="start chart coordinate")
    t.add_argument("--v", default="1/2", help="start chart coordinate")
    t.add_argument(
        "--max-s", dest="max_s",
        help="bound on the unfolded parameter; the trace stops at the first edge crossing past it",
    )
    t.add_argument("--csv", help="also write vertices as CSV")
    t.set_defaults(func=cmd_trace)

    cy = sub.add_parser("cylinders", help="cylinder decomposition of a quotient")
    cy.add_argument("--surface", choices=("x", "y"), required=True)
    cy.add_argument("--p", type=int, required=True)
    cy.add_argument("--q", type=int, required=True)
    cy.set_defaults(func=cmd_cylinders)

    f = sub.add_parser("fourey", help="continued fractions over multiples of four")
    f.add_argument("--coeffs", required=True, help="comma-separated a_i; a leading '-' needs --coeffs=-1,2")
    f.add_argument("--period", help="repeating block of a_i for infinite fractions; a leading '-' needs --period=-2,2")
    f.set_defaults(func=cmd_fourey)

    w = sub.add_parser("witness", help="search a group word certifying periodicity")
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--q", type=int, required=True)
    w.add_argument("--max-depth", dest="max_depth", type=int, default=14)
    w.add_argument("--complete", action="store_true",
                   help="the shortest witness at any depth, or a proof that none exists")
    w.set_defaults(func=cmd_witness)

    tw = sub.add_parser("twist", help="twist a periodic slope around an axis direction")
    tw.add_argument("--slope", required=True, help="rational slope or 'inf'; a negative one needs --slope=-1/4")
    tw.add_argument("--axis", choices=("vertical", "horizontal"), required=True)
    tw.add_argument("--k", type=int, required=True)
    tw.set_defaults(func=cmd_twist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        _say(f"error: {exc}")
        return USAGE_ERROR
    except MethodDisagreement as exc:
        _say(f"internal error: {exc}",
             *(f"  {r.method}: {r.verdict} {r.certificate}" for r in exc.results))
        return INTERNAL_ERROR
    except (
        ClassificationError,
        CosetTableError,
        FlowBudgetError,
        HomologyError,
        InternalGeometryError,
        PeriodicDirectionError,
        SurfaceConstructionError,
    ) as exc:
        _say(f"internal error: {exc}")
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
