"""The three periodicity deciders and their agreement harness.

A primitive integer direction (p, q) is read in the chart of the seed face
(slope q/p).  Three independent methods decide whether the straight-line
flow is periodic or drift-periodic in that direction:

* ``classify_oracle`` traces the flow in the 3D embedding until it either
  closes up (same point, same direction) or revisits a translate of its
  starting data by a nonzero even translation.
* ``classify_x`` traces the projected orbit on the 12-square quotient and
  reads off the accumulated cocycle displacement; zero means periodic.
* ``classify_y`` counts the cylinders of the 4-square quotient in the
  direction along Euclid's algorithm, and for a single cylinder checks that
  its core has zero signed crossing count with the marked horizontal curve.

``classify_all`` runs all three and raises ``MethodDisagreement`` on any
mismatch - by the underlying theory that would always indicate a bug here.

``classify_group`` is an opt-in fourth decider that uses no geometry: the
coset table in PSL(2, Z) of H = <T, A, B>, the group of all words over the
generators (``grouptheory.column_rho``).  ``classify_all`` does not run it, so it stays
an independent cross-check for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from math import gcd

from .flow import (
    OPPOSITE,
    SurfacePoint,
    SurfaceTrace,
    _canonical_param,
    cylinder_count,
    cylinder_decomposition,
    trace_surface,
)
from .grouptheory import column_rho, is_upper_unipotent
from .homology import gamma0_intersection
from .mucube3d import (
    QUARTER_TURNS,
    RigidMotion,
    find_quarter_symmetry,
    mat_vec,
    seed_start,
    trace3d,
)
from .surfaces import build_x, build_y, rotation_square_action

PERIODIC = "periodic"
DRIFT = "drift"


class MethodDisagreement(RuntimeError):
    """The three classifiers disagreed; diagnostics carry all verdicts."""

    def __init__(self, direction, results):
        self.direction = direction
        self.results = results
        detail = ", ".join(f"{r.method}={r.verdict}" for r in results)
        super().__init__(f"classifiers disagree on {direction}: {detail}")


class ClassificationError(RuntimeError):
    pass


@dataclass
class Classification:
    direction: tuple[int, int]
    verdict: str  # "periodic" | "drift"
    method: str  # "oracle" | "x" | "y" | "all" | "group"
    certificate: dict = field(default_factory=dict)


def _as_pair(d) -> tuple[int, int]:
    p, q = d
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError(f"({p}, {q}) is not a primitive direction")
    return (p, q)


def classify_oracle(d) -> Classification:
    """Decide periodicity by exact tracing in the 3D embedding."""
    p, q = _as_pair(d)
    odd_odd = abs(p) % 2 == 1 and abs(q) % 2 == 1
    start = seed_start(p, q)
    traj = trace3d(start, (p, q))
    if traj.stop_reason == "closed":
        if odd_odd:
            raise ClassificationError(f"odd/odd direction {(p, q)} closed in 3D")
        if traj.s_total != 4:
            raise ClassificationError(
                f"closed core of {(p, q)} has parameter length {traj.s_total} != 4"
            )
        centers = traj.center_visits
        if len(centers) != 4:
            raise ClassificationError(
                f"closed core of {(p, q)} passes {len(centers)} centers"
            )
        motion = find_quarter_symmetry(traj)
        if motion is None:
            raise ClassificationError(f"no order-4 symmetry for {(p, q)}")
        return Classification(
            direction=(p, q),
            verdict=PERIODIC,
            method="oracle",
            certificate={
                "core_multiplier": 4,
                "norm_sq": p * p + q * q,
                "centers": [tuple(Fraction(c, 2) for c in pt) for pt, _ in centers],
                "center_directions": [dv for _, dv in centers],
                "order4_motion": motion,
                "start": start,
            },
        )
    if traj.stop_reason == "drift":
        return Classification(
            direction=(p, q),
            verdict=DRIFT,
            method="oracle",
            certificate={"drift_vector": traj.drift_vector, "start": start},
        )
    raise ClassificationError(
        f"oracle trace for {(p, q)} stopped with {traj.stop_reason}"
    )


# As for the oracle's ``seed_start``: odd/odd lines through a square center
# run into corners, so they start at an exactly safe interior point.
_X_CENTER = SurfacePoint(0, Fraction(1, 2), Fraction(1, 2))
_X_ODD_ODD = SurfacePoint(0, Fraction(1, 2), Fraction(1, 3))


def classify_x(d) -> Classification:
    """Decide periodicity from the cocycle displacement on the 12-square
    quotient."""
    p, q = _as_pair(d)
    start = _X_ODD_ODD if p % 2 and q % 2 else _X_CENTER
    trace = trace_surface(build_x(), start, (p, q))
    if not trace.closed:
        raise ClassificationError(
            f"projected orbit of {(p, q)} stopped with {trace.stop_reason}"
        )
    disp = trace.displacement
    verdict = PERIODIC if disp == (0, 0, 0) else DRIFT
    # A closed trace crosses |p| + |q| walls per unit, plus its closing one.
    cert = {"displacement": disp, "crossings": trace.s_total.numerator * (abs(p) + abs(q)) + 1}
    if verdict == DRIFT:
        cert["drift_vector"] = disp
    return Classification((p, q), verdict, "x", cert)


def classify_y(d) -> Classification:
    """Decide periodicity from the cylinder count and the marked-curve
    intersection on the 4-square quotient.

    The count comes from Euclid's algorithm (``cylinder_count``); a
    direction with more than one cylinder drifts, and no leaf is walked for
    it.  Only a single cylinder's core is walked, by the decomposition,
    which must then find that one cylinder too."""
    p, q = _as_pair(d)
    surf = build_y()
    count = cylinder_count(surf, (p, q))
    if count > 1:
        return Classification((p, q), DRIFT, "y", {"cylinders": count, "core_intersection": None})
    deco = cylinder_decomposition(surf, (p, q))
    if len(deco.cylinders) != 1:
        raise ClassificationError(
            f"{(p, q)} has {len(deco.cylinders)} cylinders on Y where its count found 1"
        )
    inter = gamma0_intersection(surf, deco.cylinders[0])
    verdict = PERIODIC if inter == 0 else DRIFT
    return Classification((p, q), verdict, "y", {"cylinders": 1, "core_intersection": inter})


def classify_group(d) -> Classification:
    """Decide periodicity from the coset table of H = <T, A, B>: periodic iff
    H has an element with first column +-(p, q) whose rho image is upper
    unipotent.  The certificate says whether the walk reached H's coset, and
    gives that rho image when it did."""
    p, q = _as_pair(d)
    r = column_rho(p, q)
    cert: dict = {"reaches_h": r is not None}
    if r is not None:
        cert["rho"] = [[r[0], r[1]], [r[2], r[3]]]
    verdict = PERIODIC if r is not None and is_upper_unipotent(r) else DRIFT
    return Classification((p, q), verdict, "group", cert)


def classify_all(d) -> Classification:
    """Run all three deciders and insist on a unanimous verdict."""
    p, q = _as_pair(d)
    results = [classify_oracle((p, q)), classify_y((p, q)), classify_x((p, q))]
    verdicts = {r.verdict for r in results}
    if len(verdicts) != 1:
        raise MethodDisagreement((p, q), results)
    oracle = results[0]
    return Classification(
        (p, q),
        oracle.verdict,
        "all",
        {**oracle.certificate, "per_method": {r.method: r.certificate for r in results}},
    )


def verify_certificate(c: Classification) -> bool:
    """Replay a certificate against a fresh trace; ValueError if it holds nothing to replay."""
    key = "order4_motion" if c.verdict == PERIODIC else "drift_vector"
    if key not in c.certificate:
        raise ValueError(f"the {c.method} certificate of {c.direction} has no {key} to replay")
    p, q = c.direction
    start = c.certificate.get("start") or seed_start(p, q)
    traj = trace3d(start, (p, q))
    if c.verdict == PERIODIC:
        if traj.stop_reason != "closed" or traj.s_total != 4:
            return False
        if len(traj.center_visits) != 4:
            return False
        g: RigidMotion = c.certificate["order4_motion"]
        if g.order() != 4:
            return False
        centers = [c for c, _ in traj.center_visits]
        return all(
            g.apply_doubled(centers[i]) == centers[(i + 1) % 4] for i in range(4)
        )
    v = c.certificate["drift_vector"]
    if v == (0, 0, 0) or traj.stop_reason != "drift":
        return False
    return traj.drift_vector == tuple(v)


# ---------------------------------------------------------------------------
# The three-cylinder law on the 12-square quotient
# ---------------------------------------------------------------------------

def _map_interval(surf, action, sc: int, edge, lo: int, hi: int):
    """Image of an edge interval in units of ``1/sc``, on its canonical side."""
    sq, side = edge
    sq2, flip = action[sq]
    side2 = OPPOSITE[side] if flip else side
    if flip:
        lo, hi = sc - hi, sc - lo
    key, a = _canonical_param(surf, sq2, side2, lo, sc)
    _, b = _canonical_param(surf, sq2, side2, hi, sc)
    return (key, min(a, b), max(a, b))


def three_cylinder_check(d) -> bool:
    """For a periodic direction: the 12-square quotient decomposes into three
    maximal cylinders cycled by the order-3 rotation, and the displacement
    sum of the traced orbit vanishes."""
    p, q = _as_pair(d)
    surf = build_x()
    deco = cylinder_decomposition(surf, (p, q))
    if len(deco.cylinders) != 3:
        return False
    action = rotation_square_action()
    sc = deco.cylinders[0].scale
    interval_sets = [frozenset(c.scaled_intervals) for c in deco.cylinders]
    images = [
        frozenset(_map_interval(surf, action, sc, *iv) for iv in s) for s in interval_sets
    ]
    try:
        sigma = [interval_sets.index(img) for img in images]
    except ValueError:
        return False
    if sorted(sigma) != [0, 1, 2] or any(sigma[i] == i for i in range(3)):
        return False
    cls = classify_x((p, q))
    return sum(cls.certificate["displacement"]) == 0


# ---------------------------------------------------------------------------
# Quarter-period displacement symmetry on the 12-square quotient
# ---------------------------------------------------------------------------

def quarter_displacement_check(surface, trace: SurfaceTrace):
    """Check the displacement quarter-cycling law of a closed traced orbit.

    The lift of a point of square ``sq`` is its point on ``surface.reps[sq]``
    plus twice the cocycle sum so far, and v(t) is the net count of
    odd-integer walls the lift has crossed on [0, t], ``floor((x + 1) / 2)``
    per coordinate.  The orbit may sit on a wall at a quarter mark ``iT/4``,
    so v is read there as the limit from the right.  Returns
    (True, rotation) if some coordinate quarter-turn ``theta`` satisfies
    v((i+1)T/4) - v(iT/4) = theta^i v(T/4); (False, None) otherwise.
    """
    if not trace.closed:
        raise ValueError("quarter check needs a closed trace")
    p, q = trace.direction
    sc = trace.scale
    # Arc parameters and ambient coordinates below are integers in units of
    # 1/(4 sc), so the quarter marks i * period / 4 are too.
    starts = []  # (arc parameter, lifted start point, ambient step) per segment
    s, acc = 0, (0, 0, 0)
    segments = zip_longest(trace.scaled_segments, trace.scaled_crossings)
    for (sq, x, y, nx, ny), crossing in segments:
        c2, (cu, cv) = surface.reps[sq].center2x, surface.charts[sq]
        t = abs(nx - x) // abs(p) if p else abs(ny - y) // abs(q)
        dx, dy = (nx - x) // t, (ny - y) // t
        # center + (x - 1/2) cu + (y - 1/2) cv on the face, plus 2 acc
        lift = tuple(
            2 * sc * (c2[m] + 4 * acc[m]) + (4 * x - 2 * sc) * cu[m] + (4 * y - 2 * sc) * cv[m]
            for m in range(3)
        )
        starts.append((s, lift, tuple(dx * cu[m] + dy * cv[m] for m in range(3))))
        s += 4 * t
        if crossing is not None:
            w = surface.cocycle[crossing[1:]]
            acc = (acc[0] + w[0], acc[1] + w[1], acc[2] + w[2])

    cells = []
    for i in range(4):
        mark = i * s // 4
        s0, a, step = [st for st in starts if st[0] <= mark][-1]
        # floor((x + 1) / 2) just after the mark: a coordinate moving down
        # onto a wall has not crossed it yet.
        cells.append(tuple(
            (a[m] + (mark - s0) * step[m] + 4 * sc - (step[m] < 0)) // (8 * sc)
            for m in range(3)
        ))
    # The last mark is the first one a period later, moved by the period
    # displacement of the lift (an even translation, under which the wall
    # count is exactly equivariant).
    cells.append(tuple(cells[0][m] + trace.displacement[m] for m in range(3)))
    v = [tuple(c[m] - cells[0][m] for m in range(3)) for c in cells]
    quarters = [tuple(v[i + 1][m] - v[i][m] for m in range(3)) for i in range(4)]
    for rot in QUARTER_TURNS:
        ok = True
        expect = quarters[0]
        total = list(quarters[0])
        for i in range(1, 4):
            expect = tuple(mat_vec(rot, expect))
            if quarters[i] != expect:
                ok = False
                break
            for m in range(3):
                total[m] += expect[m]
        # The first quarter vector cannot have a component along the rotation
        # axis, otherwise the telescoped sum (the period displacement) would
        # not vanish and the lift would drift.
        if ok and tuple(total) == (0, 0, 0):
            return True, rot
    return False, None
