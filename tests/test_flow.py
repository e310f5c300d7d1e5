"""Tracing, decomposition and intersection machinery on the quotients."""

import random
from fractions import Fraction
from math import gcd

import pytest

from mucube import flow
from mucube.exact import SqrtLength
from mucube.flow import (
    DegenerateIntersection,
    FlowBudgetError,
    SurfacePoint,
    cylinder_decomposition,
    quarter_displacement_check,
    trace_surface,
)
from mucube.homology import signed_crossings
from mucube.mucube3d import Point3, SEED_CHART, SEED_FACE, trace3d


CENTER = SurfacePoint(0, Fraction(1, 2), Fraction(1, 2))


def canonical_directions(bound):
    out = []
    for p in range(0, bound + 1):
        for q in range(0, bound + 1):
            if (p, q) != (0, 0) and gcd(p, q) == 1:
                out.append((p, q))
    return out


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def test_y_horizontal_trace(Y):
    t = trace_surface(Y, CENTER, (1, 0), 100)
    assert t.closed
    assert t.s_total == 4
    assert len({seg[0] for seg in t.segments}) == 4


def test_x_horizontal_displacement(X):
    t = trace_surface(X, CENTER, (1, 0), 100)
    assert t.closed and t.displacement == (0, 0, 0)


def test_x_one_two_displacement_matches_oracle(X):
    t = trace_surface(X, CENTER, (1, 2), 10000)
    t3 = trace3d(Point3.face_center(SEED_FACE, SEED_CHART), (1, 2))
    assert t.closed and t.displacement == t3.drift_vector != (0, 0, 0)


def test_budget_outcome(Y):
    t = trace_surface(Y, CENTER, (12, 5), 3)
    assert not t.closed and t.stop_reason == "crossing_budget"


def test_cone_point_outcome(Y):
    t = trace_surface(Y, CENTER, (1, 1), 100)
    assert t.stop_reason == "cone_point"
    assert t.cone_point is not None


def test_interior_start_required(Y):
    with pytest.raises(ValueError):
        trace_surface(Y, SurfacePoint(0, Fraction(0), Fraction(1, 2)), (1, 0), 10)


def test_closed_trace_is_one_period(X):
    t = trace_surface(X, CENTER, (4, 1), 10000)
    assert t.closed
    first = t.segments[0]
    last = t.segments[-1]
    assert (first[0], first[1], first[2]) == (last[0], last[3], last[4])
    # Crossing parameters increase strictly within the period.
    ss = [s for s, _, _ in t.crossings]
    assert all(a < b for a, b in zip(ss, ss[1:]))
    assert all(Fraction(0) < s < t.s_total for s in ss)


# ---------------------------------------------------------------------------
# Cylinder decompositions
# ---------------------------------------------------------------------------

def test_decomposition_completeness_small(X, Y):
    for p, q in canonical_directions(25):
        for surf in (X, Y):
            deco = cylinder_decomposition(surf, (p, q))
            assert deco.total_area == surf.n, (p, q, surf.name)


def centers_on_core(cyl):
    """Squares whose center the core leaf of ``cyl`` passes, once per pass."""
    half = cyl.scale // 2
    return [
        sq
        for sq, x0, y0, x1, y1 in cyl.core_segments
        if (half - x0) * (y1 - y0) == (half - y0) * (x1 - x0)
        and min(x0, x1) <= half <= max(x0, x1)
        and min(y0, y1) <= half <= max(y0, y1)
    ]


def test_isometric_cylinders_in_periodic_directions(X):
    from mucube.classify import classify_oracle

    rng = random.Random(9)
    periodic = []
    pool = canonical_directions(40)
    rng.shuffle(pool)
    for d in pool:
        if classify_oracle(d).verdict == "periodic":
            periodic.append(d)
        if len(periodic) == 8:
            break
    for d in periodic:
        deco = cylinder_decomposition(X, d)
        assert len(deco.cylinders) == 3
        widths = {c.width for c in deco.cylinders}
        mults = {c.circumference_multiplier for c in deco.cylinders}
        assert len(widths) == 1 and len(mults) == 1
        assert all(c.area == 4 for c in deco.cylinders)
        # core passes exactly 4 square centers
        assert all(len(centers_on_core(c)) == 4 for c in deco.cylinders)


def test_five_two_decomposes_into_three_area_four_cylinders(X):
    deco = cylinder_decomposition(X, (5, 2))
    assert len(deco.cylinders) == 3
    assert all(c.area == 4 for c in deco.cylinders)


def test_y_four_one_single_cylinder(Y):
    deco = cylinder_decomposition(Y, (4, 1))
    assert len(deco.cylinders) == 1
    c = deco.cylinders[0]
    assert c.area == 4
    assert c.circumference == SqrtLength.of(4, 17)
    assert c.width == SqrtLength(Fraction(1, 17))


def test_projection_isometry_m_to_x(X):
    # The cylinder through a face center upstairs maps isometrically to its
    # image cylinder: equal circumference (and hence width, by area 4).
    for d in ((1, 0), (4, 1), (1, 8)):
        t3 = trace3d(Point3.face_center(SEED_FACE, SEED_CHART), d,
                     max_crossings=20000)
        assert t3.closed
        deco = cylinder_decomposition(X, d)
        core_mults = {c.circumference_multiplier for c in deco.cylinders}
        assert t3.s_total == 4
        assert core_mults == {4}


def test_return_map_measure_preserving(X, Y):
    rng = random.Random(11)
    pool = [d for d in canonical_directions(15) if d[0] and d[1]]
    for d in rng.sample(pool, 8):
        for surf in (X, Y):
            deco = cylinder_decomposition(surf, d)
            for c in deco.cylinders:
                lengths = {hi - lo for _, lo, hi in c.intervals}
                assert len(lengths) == 1
            # intervals partition the transversal exactly
            total = sum(
                (hi - lo for c in deco.cylinders for _, lo, hi in c.intervals),
                Fraction(0),
            )
            assert total == surf.n



# The separatrix loop as it was before each saddle connection was traced once:
# one ray from every corner in each of +d and -d, so every connection is
# walked from both ends.  Kept as the reference for flow._separatrix_cuts.
def _ref_separatrix_cuts(surface, direction, sc, transversal):
    p, q = direction
    n = surface.n
    budget = 4 * n * (abs(p) + abs(q)) + 16
    cuts = {}
    for sq in range(n):
        for side in transversal:
            cuts.setdefault(flow._canonical_edge(surface, sq, side), set())
    for dx, dy in ((p, q), (-p, -q)):
        xs = [0] if dx > 0 else [sc] if dx < 0 else [0, sc]
        ys = [0] if dy > 0 else [sc] if dy < 0 else [0, sc]
        for sq0 in range(n):
            for cx in xs:
                for cy in ys:
                    for steps, (sq, _, _, _, _, _, nx, ny, side) in enumerate(
                        flow._leaf(surface.glue, sc, sq0, cx, cy, dx, dy)
                    ):
                        if side is None:
                            break
                        if steps >= budget:
                            raise FlowBudgetError(
                                "separatrix failed to reach a cone point in budget"
                            )
                        if side in transversal:
                            t = ny if side in flow.VERTICAL_SIDES else nx
                            key, tc = flow._canonical_param(surface, sq, side, t, sc)
                            if 0 < tc < sc:
                                cuts[key].add(tc)
    return cuts


def _primitive(bound):
    return [
        (p, q)
        for p in range(-bound, bound + 1)
        for q in range(-bound, bound + 1)
        if gcd(abs(p), abs(q)) == 1
    ]


def test_decomposition_matches_two_way_reference(X, Y, monkeypatch):
    dirs = _primitive(25)
    got = {
        (name, d): cylinder_decomposition(S, d) for name, S in (("x", X), ("y", Y)) for d in dirs
    }
    monkeypatch.setattr(flow, "_separatrix_cuts", _ref_separatrix_cuts)
    for (name, d), deco in got.items():
        ref = cylinder_decomposition(X if name == "x" else Y, d)
        # Dataclass equality covers every field, core_segments included.
        assert deco == ref, (name, d)
        if max(map(abs, d)) <= 12:
            # The Fraction views derive from the fields compared above; they
            # are compared where they are cheap to build.
            for c, rc in zip(deco.cylinders, ref.cylinders):
                assert c.intervals == rc.intervals, (name, d)
                assert c.core_chain == rc.core_chain, (name, d)
    assert len(got) == 2 * 1600


def test_each_saddle_connection_traced_once(X, Y, monkeypatch):
    # Corner rays start at a corner of a square; core leaves start inside an
    # edge.  n squares have n corner rays in each of +d and -d off the axes
    # (2n on an axis, where two corners of each square face the flow), and
    # the two ends of each saddle connection are two of them.
    starts = []

    def counting_leaf(glue, sc, sq, x, y, dx, dy):
        if x in (0, sc) and y in (0, sc):
            starts.append((sq, x, y, dx, dy))
        return leaf(glue, sc, sq, x, y, dx, dy)

    leaf = flow._leaf
    monkeypatch.setattr(flow, "_leaf", counting_leaf)
    for S in (X, Y):
        for p, q in _primitive(12):
            starts.clear()
            cylinder_decomposition(S, (p, q))
            assert len(starts) == (S.n if p * q else 2 * S.n), (S.n, p, q)
            assert len(set(starts)) == len(starts)


def test_closure_implies_rational_slope_contrapositive(X):
    # Closure always happens within the combinatorial budget for rational
    # directions; the budget guard is the contrapositive hook for
    # irrational-slope surrogates, which cannot close.
    for d in ((3, 2), (7, 4), (9, 4)):
        t = trace_surface(X, CENTER, d, 200 * (d[0] + d[1]) + 400)
        assert t.closed


# ---------------------------------------------------------------------------
# Quarter displacement law
# ---------------------------------------------------------------------------

def test_quarter_check_examples(X):
    cases = {(1, 0): True, (4, 1): True, (1, 2): False, (5, 2): False}
    for d, expected in cases.items():
        t = trace_surface(X, CENTER, d, 20000)
        ok, rot = quarter_displacement_check(X, t)
        assert ok is expected, d
        if expected:
            assert rot is not None


def test_quarter_check_matches_verdicts(X):
    # Every closed trace from the 12 square centers and three off-center
    # starts: the law holds exactly in the periodic directions.
    from mucube.classify import classify_oracle

    half = Fraction(1, 2)
    starts = [SurfacePoint(sq, half, half) for sq in range(12)] + [
        SurfacePoint(0, Fraction(1, 3), Fraction(2, 7)),
        SurfacePoint(5, Fraction(3, 5), Fraction(1, 7)),
        SurfacePoint(7, Fraction(1, 9), Fraction(8, 9)),
    ]
    closed = 0
    for d in canonical_directions(12):
        periodic = classify_oracle(d).verdict == "periodic"
        for start in starts:
            t = trace_surface(X, start, d, 60000)
            if t.closed:
                closed += 1
                ok, _ = quarter_displacement_check(X, t)
                assert ok == periodic, (d, start)
            else:
                assert t.stop_reason == "cone_point", (d, start)
    assert closed == 1033


# ---------------------------------------------------------------------------
# Crossing counts
# ---------------------------------------------------------------------------

def test_signed_crossing_sign_convention():
    # moving upward across a rightward representative is +1
    rep = [(0, Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1, 2))]
    up = [(0, Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(1))]
    down = [(0, Fraction(1, 2), Fraction(1), Fraction(1, 2), Fraction(0))]
    assert signed_crossings(up, rep) == 1
    assert signed_crossings(down, rep) == -1


def test_signed_crossing_degenerate_endpoint():
    rep = [(0, Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1, 2))]
    touch = [(0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1))]
    with pytest.raises(DegenerateIntersection):
        signed_crossings(touch, rep)
