"""The 3D model: faces, cone points, rigid motions, exact tracing, twists."""

import itertools
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from leaf_reference import point_from_ambient

from mucube.exact import SqrtLength
from mucube.mucube3d import (
    AXES,
    IN_PLANE,
    ConePointStart,
    Face,
    IDENTITY_ROT,
    Point3,
    QUARTER_TURNS,
    QUARTER_X,
    QUARTER_Y,
    QUARTER_Z,
    RigidMotion,
    ROT3_XYZ,
    SEED_CHART,
    SEED_FACE,
    InternalGeometryError,
    Trajectory3D,
    _center_time,
    _crossing_word,
    _fold,
    _next_face,
    cone_points_in_box,
    default_chart,
    drift_vector,
    face_patch_in_surface,
    faces_in_box,
    find_quarter_symmetry,
    incident_faces,
    is_face,
    mat_mul,
    mat_vec,
    PeriodicDirectionError,
    point_in_surface,
    polyline_diameter,
    rotation_group,
    seed_start,
    trace3d,
    trajectory_diameter,
    twist_length_prediction,
    twist_length_ratio_sq,
    twist_slope,
)


def center_start():
    return Point3.face_center(SEED_FACE, SEED_CHART)


# ---------------------------------------------------------------------------
# Face predicate: derived characterization against the point-set oracle
# ---------------------------------------------------------------------------

def iter_candidates(lo, hi):
    for axis in AXES:
        i, j = IN_PLANE[axis]
        for av in range(2 * lo + 1, 2 * hi, 2):
            for iv in range(2 * lo, 2 * hi + 1, 2):
                for jv in range(2 * lo, 2 * hi + 1, 2):
                    c = [0, 0, 0]
                    c[axis], c[i], c[j] = av, iv, jv
                    yield tuple(c), axis


def test_face_predicate_matches_pointwise_oracle_on_window():
    # The integer characterization must be re-derivable from the set
    # definition; they agree on every candidate in a [-5, 5] window.
    for c, axis in iter_candidates(-5, 5):
        assert is_face(c, axis) == face_patch_in_surface(c, axis), (c, axis)


@pytest.mark.parametrize(
    "center2x, axis, expected",
    [((0, 2, 1), 2, True), ((0, 0, 1), 2, False), ((1, 0, 0), 0, False)],
)
def test_face_examples(center2x, axis, expected):
    assert is_face(center2x, axis) is expected
    assert face_patch_in_surface(center2x, axis) is expected


def test_faces_in_box_counts():
    assert len(faces_in_box((-1, -1, -1), (1, 1, 1))) == 12
    assert len(faces_in_box((-1, -1, -1), (3, 1, 1))) == 24
    # Every translated 2x2x2 box holds exactly 12 faces.
    rng = random.Random(0)
    for _ in range(10):
        lo = tuple(rng.randrange(-6, 6) for _ in range(3))
        hi = tuple(v + 2 for v in lo)
        assert len(faces_in_box(lo, hi)) == 12


def test_faces_in_box_by_enumeration():
    expected = {
        (c, axis)
        for c, axis in iter_candidates(0, 1)
        if 0 <= c[0] < 2 and 0 <= c[1] < 2 and 0 <= c[2] < 2 and is_face(c, axis)
    }
    got = {(f.center2x, f.axis) for f in faces_in_box((0, 0, 0), (1, 1, 1))}
    assert got == expected


def test_empty_box():
    assert faces_in_box((0, 0, 0), (0, 1, 1)) == frozenset()


def test_cone_points():
    pts = cone_points_in_box((-1, -1, -1), (1, 1, 1))
    assert len(pts) == 8
    for c in pts:
        assert all(v % 2 == 1 for v in c)
        assert len(incident_faces(c)) == 6
    # Any corner of any face in a window is a cone point with 6 faces.
    for f in faces_in_box((-2, -2, -2), (2, 2, 2)):
        i, j = f.in_plane_axes()
        for di, dj in itertools.product((-1, 1), repeat=2):
            corner = list(f.center2x)
            corner[i] += di
            corner[j] += dj
            assert len(incident_faces(corner)) == 6


# ---------------------------------------------------------------------------
# Rigid motions
# ---------------------------------------------------------------------------

def test_rotation_group_and_quarter_turns():
    group = rotation_group()
    assert len(group) == 24
    assert len(QUARTER_TURNS) == 6


def test_motion_composition_law():
    rng = random.Random(1)
    group = rotation_group()
    for _ in range(50):
        g1 = RigidMotion(rng.choice(group), tuple(rng.randrange(-3, 4) for _ in range(3)))
        g2 = RigidMotion(rng.choice(group), tuple(rng.randrange(-3, 4) for _ in range(3)))
        p2x = tuple(rng.randrange(-8, 8) for _ in range(3))
        assert g1.compose(g2).apply_doubled(p2x) == g1.apply_doubled(g2.apply_doubled(p2x))
        gi = g1.inverse()
        assert gi.apply_doubled(g1.apply_doubled(p2x)) == p2x


def test_motions_preserve_faces():
    faces = sorted(faces_in_box((-2, -2, -2), (2, 2, 2)))
    gens = [
        RigidMotion(QUARTER_X),
        RigidMotion(QUARTER_Y),
        RigidMotion(QUARTER_Z),
        RigidMotion(ROT3_XYZ),
        RigidMotion(IDENTITY_ROT, (1, 0, 0)),
        RigidMotion(IDENTITY_ROT, (0, 1, 0)),
        RigidMotion(IDENTITY_ROT, (0, 0, 1)),
    ]
    rng = random.Random(2)
    motions = list(gens)
    for _ in range(41):
        motions.append(rng.choice(gens).compose(rng.choice(motions)))
    for g in motions:
        for f in faces:
            g.apply_face(f)  # raises on failure


def test_torsion_orders():
    # Torsion elements have order 1, 2, 3 or 4; elements with a nonzero
    # translation along the rotation axis are of infinite order.
    rng = random.Random(3)
    group = rotation_group()
    orders = {RigidMotion(IDENTITY_ROT).order()}
    for _ in range(200):
        g = RigidMotion(rng.choice(group), tuple(rng.randrange(-2, 3) for _ in range(3)))
        n = g.order()
        if n is not None:
            orders.add(n)
    assert orders <= {1, 2, 3, 4}
    assert {1, 2, 3, 4} <= orders


def test_quarter_turn_applied_to_face():
    g = RigidMotion(QUARTER_Z)
    img = g.apply_face(Face((0, 2, 1), 2))
    assert is_face(img.center2x, img.axis)


def test_translation_moves_faces_two_units():
    g = RigidMotion(IDENTITY_ROT, (1, 0, 0))
    for f in faces_in_box((-1, -1, -1), (1, 1, 1)):
        img = g.apply_face(f)
        assert img.center2x == (f.center2x[0] + 4, f.center2x[1], f.center2x[2])


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def test_horizontal_core_orbit():
    t = trace3d(center_start(), (1, 0))
    assert t.closed and t.stop_reason == "closed"
    assert t.s_total == 4
    assert t.arc_length == SqrtLength.of(4, 1)
    assert len(t.center_visits) == 4
    assert t.vertices[0] == t.vertices[-1]
    assert find_quarter_symmetry(t) is not None


def test_slope_quarter_orbit_closes():
    # Closure is tested at the first crossing past the arc bound, so a
    # bound of exactly one period still finds it.
    t = trace3d(center_start(), (4, 1), max_arc_s=Fraction(4))
    assert t.closed
    assert t.arc_length == SqrtLength.of(4, 17)
    assert len(t.center_visits) == 4


def test_one_two_drifts():
    t = trace3d(center_start(), (1, 2))
    assert not t.closed and t.stop_reason == "drift"
    assert t.drift_vector is not None and t.drift_vector != (0, 0, 0)
    # The trajectory ends at the start translated by twice the drift vector.
    expect = tuple(
        t.vertices[0][k] + 2 * t.drift_vector[k] for k in range(3)
    )
    assert t.vertices[-1] == expect


def test_segmentwise_shape():
    t = trace3d(center_start(), (4, 1))
    for a, b in zip(t.vertices, t.vertices[1:]):
        # each segment lies in a coordinate plane (one coordinate frozen)
        assert sum(1 for k in range(3) if a[k] == b[k]) >= 1


def test_edge_start_rejected():
    with pytest.raises(ConePointStart):
        trace3d(Point3(SEED_FACE, SEED_CHART, Fraction(0), Fraction(1, 2)), (1, 0))


def test_odd_odd_center_start_hits_cone_point():
    t = trace3d(center_start(), (1, 1))
    assert t.stop_reason == "cone_point"
    assert t.cone_point is not None
    assert all(2 * c % 2 == 1 for c in t.cone_point)


def _ref_finish(
    reason, direction, vertices, sc, s_scaled, face_path, center_visits,
    n_crossings, *, closed=False, drift=None, cone=None, start_pos=None,
):
    """The reference's output step: positions in units of 1/sc to a
    Trajectory3D without its walk, each center kept, doubled, at its first
    pass, then the vertices and the face path its views must give."""
    def pt(v):
        return tuple(Fraction(c, sc) for c in v)

    if closed or drift is not None:
        # Trim to one period: from the start point back to its image.
        end = start_pos if closed else tuple(start_pos[k] + 2 * sc * drift[k] for k in AXES)
        vertices = vertices[:n_crossings] + [end]

    visits = []
    seen = set()
    for c, dvec in center_visits:
        if c not in seen:
            seen.add(c)
            visits.append((tuple(x // (sc // 2) for x in c), dvec))

    return Trajectory3D(
        direction=tuple(direction),
        closed=closed,
        drift_vector=drift,
        s_total=Fraction(s_scaled, sc),
        stop_reason=reason,
        cone_point=pt(cone) if cone else None,
        center_visits=visits,
        crossings=n_crossings,
    ), [pt(v) for v in vertices], face_path


# A per-crossing step loop: a ``record_centers`` closure, list positions and
# a face lookup through ``_next_face`` at every crossing.  Kept as the
# reference for trace3d's cutting-word walk.
def _ref_trace3d(
    start, direction, max_arc_s=None, *, max_crossings=1_000_000,
):
    p, q = direction
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError("direction must be primitive")
    if not (0 < start.u < 1 and 0 < start.v < 1):
        raise ConePointStart("start must lie in the open face (edges are rejected)")

    den = (start.u.denominator * start.v.denominator) // gcd(
        start.u.denominator, start.v.denominator
    )
    sc = 2 * den * max(abs(p), 1) * max(abs(q), 1)
    two_sc = 2 * sc

    cu, cv = start.chart
    d_amb = tuple(p * cu[k] + q * cv[k] for k in AXES)
    amb0 = start.ambient()
    pos = [int(c * sc) for c in amb0]

    face_c2x, axis = start.face.center2x, start.face.axis
    d = list(d_amb)
    s_scaled = 0
    bound_scaled = None if max_arc_s is None else Fraction(max_arc_s) * sc

    start_pos = tuple(pos)
    anchor = None
    anchor_s = 0
    n_crossings = 0

    vertices = [start_pos]
    face_path = [Face(face_c2x, axis)]
    center_visits = []

    def record_centers(seg_start, dvec, delta):
        ci = [face_c2x[k] * (sc // 2) for k in AXES]
        t_hit = None
        for k in AXES:
            if dvec[k] == 0:
                if seg_start[k] != ci[k]:
                    return
            else:
                num = ci[k] - seg_start[k]
                if num % dvec[k]:
                    return
                t = num // dvec[k]
                if t_hit is None:
                    t_hit = t
                elif t != t_hit:
                    return
        if t_hit is None or not (0 <= t_hit < delta):
            return
        center_visits.append((tuple(ci), tuple(dvec)))

    def finish(reason, s, **kw):
        return _ref_finish(
            reason, direction, vertices, sc, s, face_path, center_visits, n_crossings, **kw,
        )

    while True:
        i, j = IN_PLANE[axis]
        best_axis = None
        best_delta = None
        tie = False
        for w in (i, j):
            dw = d[w]
            if dw == 0:
                continue
            half = sc // 2
            wall = (face_c2x[w] + (1 if dw > 0 else -1)) * half
            dist = (wall - pos[w]) if dw > 0 else (pos[w] - wall)
            delta, rem = divmod(dist, abs(dw))
            if rem:
                raise InternalGeometryError("non-integral step; scaling invariant broken")
            if best_delta is None or delta < best_delta:
                best_axis, best_delta, tie = w, delta, False
            elif delta == best_delta:
                tie = True
        if best_delta is None:
            raise InternalGeometryError("direction is normal to the face")

        record_centers(pos, d, best_delta)

        new_pos = [pos[k] + d[k] * best_delta for k in AXES]
        s_scaled += best_delta

        at_wall = [
            new_pos[w] % sc == sc // 2 and abs(new_pos[w] - face_c2x[w] * (sc // 2)) == sc // 2
            for w in (i, j)
        ]
        if tie or all(at_wall):
            vertices.append(tuple(new_pos))
            return finish("cone_point", s_scaled, cone=tuple(new_pos))

        w = best_axis
        wall2x = (2 * new_pos[w]) // sc
        new_face, new_axis = _next_face(face_c2x, axis, w, wall2x)
        sign_a = new_face[axis] - face_c2x[axis]
        new_d = [0, 0, 0]
        new_d[i], new_d[j] = d[i], d[j]
        new_d[axis] = sign_a * abs(d[w])
        new_d[w] = 0

        pos = new_pos
        face_c2x, axis = new_face, new_axis
        d = new_d
        n_crossings += 1
        vertices.append(tuple(pos))
        face_path.append(Face(face_c2x, axis))

        state = (face_c2x, tuple(pos), tuple(d))
        if anchor is None:
            anchor = state
            anchor_s = s_scaled
        else:
            if state == anchor:
                return finish("closed", s_scaled - anchor_s, closed=True, start_pos=start_pos)
            if state[2] == anchor[2]:
                diff = [pos[k] - anchor[1][k] for k in AXES]
                if all(v % two_sc == 0 for v in diff) and any(diff):
                    t = tuple(v // two_sc for v in diff)
                    return finish(
                        "drift", s_scaled - anchor_s, drift=t, start_pos=start_pos
                    )

        if bound_scaled is not None and s_scaled > bound_scaled:
            return finish("arc_bound", s_scaled)
        if n_crossings >= max_crossings:
            return finish("crossing_budget", s_scaled)


def _with_views(*args, **kwargs):
    """A trace3d trajectory with its vertices and face path, as the
    reference returns them."""
    t = trace3d(*args, **kwargs)
    return t, t.vertices, t.face_path


def _outcome(tracer, *args, **kwargs):
    """The tracer's result, or the type of the exception raised instead."""
    try:
        return tracer(*args, **kwargs)
    except Exception as exc:  # compared by type against the reference
        return type(exc)


_GRID_BOUNDS = {"no_bound": None, "arc_bound_3": Fraction(3)}


@pytest.mark.parametrize("bound", sorted(_GRID_BOUNDS))
@pytest.mark.parametrize("start", ["seed_start", "third_two_sevenths"])
def test_trace3d_matches_reference_grid(start, bound):
    # Every primitive |p|, |q| <= 30: the lean loop returns an equal
    # Trajectory3D (center visits, stop reason) with equal vertices and face
    # path, or raises the same exception type.
    other = Point3(SEED_FACE, SEED_CHART, Fraction(1, 3), Fraction(2, 7))
    stops = set()
    for p in range(-30, 31):
        for q in range(-30, 31):
            if gcd(abs(p), abs(q)) != 1:
                continue
            pt = seed_start(p, q) if start == "seed_start" else other
            max_arc_s = _GRID_BOUNDS[bound]
            got = _outcome(_with_views, pt, (p, q), max_arc_s)
            assert got == _outcome(_ref_trace3d, pt, (p, q), max_arc_s), (p, q)
            stops.add(got[0].stop_reason if isinstance(got, tuple) else got)
    assert len(stops) >= 2


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(st.integers(-2000, 2000), st.integers(-2000, 2000)).filter(
        lambda d: gcd(abs(d[0]), abs(d[1])) == 1
    )
)
def test_trace3d_matches_reference_on_long_orbits(d):
    p, q = d
    got = _outcome(_with_views, seed_start(p, q), d)
    assert got == _outcome(_ref_trace3d, seed_start(p, q), d)


def _charts(face):
    """The four right-handed charts of a face."""
    u, v = default_chart(face)
    out = []
    for _ in range(4):
        out.append((u, v))
        u, v = v, tuple(-c for c in u)
    return out


_FACE_CHARTS = [
    (face, chart) for face in sorted(faces_in_box((-1, -1, -1), (1, 1, 1))) for chart in _charts(face)
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_FACE_CHARTS),
    st.integers(2, 13).flatmap(lambda den: st.tuples(st.integers(1, den - 1), st.just(den))),
    st.integers(2, 13).flatmap(lambda den: st.tuples(st.integers(1, den - 1), st.just(den))),
    st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(
        lambda d: gcd(abs(d[0]), abs(d[1])) == 1
    ),
    st.one_of(st.none(), st.fractions(0, 8, max_denominator=7)),
)
def test_trace3d_matches_reference_from_any_start(face_chart, u, v, d, max_arc_s):
    # Any face and chart, any start off the edges, with or without an arc
    # bound, which can stop the trace inside a unit.
    face, chart = face_chart
    start = Point3(face, chart, Fraction(*u), Fraction(*v))
    got = _outcome(_with_views, start, d, max_arc_s)
    assert got == _outcome(_ref_trace3d, start, d, max_arc_s)


def _center_pass_ends_the_unit():
    """Starts (u, v), directions and arc bounds whose center pass lies after
    the unit's last crossing, where it counts only once the next unit's first
    crossing is made, or at the corner that ends the unit.  The bounds are
    none and the unit's last two crossing times."""
    us = sorted({Fraction(a, b) for b in range(2, 9) for a in range(1, b)})
    vs = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)]
    for u, v in itertools.product(us, vs):
        for p, q in itertools.product(range(-7, 8), repeat=2):
            if gcd(abs(p), abs(q)) != 1:
                continue
            sc = 2 * lcm(u.denominator, v.denominator) * max(abs(p), 1) * max(abs(q), 1)
            u0, v0 = u.numerator * sc // u.denominator, v.numerator * sc // v.denominator
            times, _, _ = _crossing_word(sc, u0, v0, p, q)
            t_c = _center_time(sc, u0, v0, p, q)
            if t_c is not None and bisect_right(times, t_c) == len(times):
                for bound in [None, *(Fraction(t, sc) for t in times[-2:])]:
                    yield u, v, (p, q), bound


def test_trace3d_matches_reference_when_the_center_pass_ends_the_unit():
    # Every face of the box and every chart: equal center visits, stops,
    # vertices and face paths.  A pass there counts at the corner, and under
    # an arc bound only when the bound lets the next crossing be made.
    cases = list(_center_pass_ends_the_unit())
    assert len(cases) == 298
    stops = Counter()
    for (face, chart), (u, v, d, bound) in itertools.product(_FACE_CHARTS, cases):
        start = Point3(face, chart, u, v)
        got = _outcome(_with_views, start, d, bound)
        assert got == _outcome(_ref_trace3d, start, d, bound), (face, chart, u, v, d, bound)
        stops[got[0].stop_reason, bool(got[0].center_visits)] += 1
    assert len(_FACE_CHARTS) * len(cases) == sum(stops.values()) == 14304
    assert stops["cone_point", True] and stops["arc_bound", True] and stops["arc_bound", False]


def test_turn_closed_form_matches_next_face():
    # Every face center of a window that covers all residues mod 4, negative
    # coordinates included, each wall axis, both wall sides and both letters:
    # one letter of _fold lands on the face _next_face finds across the wall.
    faces = 0
    residues = set()
    for c, axis in iter_candidates(-4, 4):
        if not is_face(c, axis):
            continue
        faces += 1
        for w in IN_PLANE[axis]:
            o = 3 - axis - w
            residues.add((axis, w, c[axis] % 4, c[o] % 4))
            for side in (1, -1):
                want = _next_face(c, axis, w, c[w] + side)
                # Code 1 crosses a wall u = const (u along w), code 0 a wall
                # v = const (v along w); p = q = 1, so the side is the sign.
                for code, frame in ((1, (axis, w, side, o, 1)), (0, (axis, o, 1, w, side))):
                    got = list(c)
                    new_frame = _fold([code], got, frame, 1, 1, [])
                    assert (tuple(got), new_frame[0]) == want, (c, axis, w, side, code)
    assert faces > 100
    # The turn reads c[axis] and c[o] mod 4: six axis pairs, two residues each.
    assert len(residues) == 24


def _chart_direction(face, traj, k):
    """Primitive chart components of segment k's ambient tangent."""
    from math import gcd

    a, b = traj.vertices[k], traj.vertices[k + 1]
    amb = [x - y for x, y in zip(b, a)]
    u, v = default_chart(face)
    p = sum(amb[m] * u[m] for m in range(3))
    q = sum(amb[m] * v[m] for m in range(3))
    den = p.denominator * q.denominator
    pi, qi = int(p * den), int(q * den)
    g = gcd(abs(pi), abs(qi))
    return (pi // g, qi // g)


def test_retrace_reproduces_cycle():
    # Re-tracing a closed trajectory from an interior point of any of its
    # segments reproduces the same crossing points, cyclically rotated.
    # (Edge points themselves are rejected as starts by design.)
    t41 = trace3d(center_start(), (4, 1))
    assert t41.closed
    crossings = t41.vertices[1:-1]
    n = len(crossings)
    for k in range(len(t41.vertices) - 1):
        a, b = t41.vertices[k], t41.vertices[k + 1]
        mid = tuple((x + y) / 2 for x, y in zip(a, b))
        face = t41.face_path[k]
        restart = point_from_ambient(face, default_chart(face), mid)
        t2 = trace3d(restart, _chart_direction(face, t41, k))
        assert t2.closed
        got = t2.vertices[1:-1]
        assert len(got) == n
        rotated = crossings[k:] + crossings[:k]
        assert got == rotated


def test_periodic_length_law_sample():
    # every closed face-center trajectory has parameter length exactly 4 and
    # passes through exactly 4 face centers
    rng = random.Random(5)
    from math import gcd

    count = 0
    while count < 12:
        p = rng.randrange(1, 16)
        q = rng.randrange(0, 16)
        if gcd(p, q) != 1:
            continue
        t = trace3d(center_start(), (p, q))
        if t.stop_reason != "closed":
            continue
        count += 1
        assert t.s_total == 4
        assert len(t.center_visits) == 4
        assert find_quarter_symmetry(t) is not None


def _ref_find_quarter_symmetry(traj):
    """The quarter-symmetry search in Fractions, with a validated motion per
    candidate rotation and an order check: the reference for the integer
    search."""
    if not traj.closed or len(traj.center_visits) != 4:
        return None
    centers = [tuple(Fraction(x, 2) for x in c) for c, _ in traj.center_visits]
    dirs = [d for _, d in traj.center_visits]
    for rot in QUARTER_TURNS:
        img = mat_vec(rot, centers[0])
        tt = [(centers[1][k] - img[k]) for k in AXES]
        if any(v.denominator != 1 or v.numerator % 2 for v in map(Fraction, tt)):
            continue
        g = RigidMotion(rot, tuple(int(v) // 2 for v in tt))
        ok = all(
            tuple(x + 2 * t for x, t in zip(mat_vec(rot, centers[m]), g.translation))
            == centers[(m + 1) % 4]
            and mat_vec(rot, dirs[m]) == dirs[(m + 1) % 4]
            for m in range(4)
        )
        if ok and g.order() == 4:
            return g
    return None


def test_quarter_symmetry_matches_reference():
    # Every primitive |p|, |q| <= 40 from seed_start: the integer search and
    # the reference return equal motions on the 156 closed cores, and None
    # on every other trace.
    closed = 0
    for p in range(-40, 41):
        for q in range(-40, 41):
            if gcd(abs(p), abs(q)) != 1:
                continue
            t = trace3d(seed_start(p, q), (p, q))
            got = find_quarter_symmetry(t)
            assert got == _ref_find_quarter_symmetry(t), (p, q)
            if t.closed:
                closed += 1
                assert got is not None and got.order() == 4, (p, q)
    assert closed == 156



def test_quarter_symmetry_rejects_broken_cycles():
    # Core data that no rigid motion of the surface cycles: two centers
    # swapped, one direction reversed, or centers cycled by a quarter turn
    # with a translation outside Z^3, which closes up but moves the surface
    # off itself.  Both searches return None; the unbroken cycle they find.
    import dataclasses

    t = trace3d(center_start(), (4, 1))
    g = find_quarter_symmetry(t)
    assert g is not None
    (c0, d0), *_ = t.center_visits
    # g followed by a unit step across the rotation axis, so the four steps
    # still sum to zero.  Centers are doubled: a unit step adds 2.
    unit = next(e for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2)) if mat_vec(g.rotation, e) != e)

    def step(c):
        return tuple(x + e for x, e in zip(g.apply_doubled(c), unit))

    visits = [(c0, d0)]
    for _ in range(3):
        c, d = visits[-1]
        visits.append((step(c), mat_vec(g.rotation, d)))
    assert step(visits[3][0]) == c0
    cv = t.center_visits
    broken = {
        "swapped": [cv[0], cv[2], cv[1], cv[3]],
        "reversed": cv[:2] + [(cv[2][0], tuple(-x for x in cv[2][1]))] + cv[3:],
        "half_translation": visits,
    }
    for name, data in broken.items():
        u = dataclasses.replace(t, center_visits=data)
        assert find_quarter_symmetry(u) is None, name
        assert _ref_find_quarter_symmetry(u) is None, name
    assert find_quarter_symmetry(dataclasses.replace(t, center_visits=list(cv))) == g

def test_drift_law_revisit_translation():
    from math import gcd

    rng = random.Random(6)
    count = 0
    while count < 12:
        p = rng.randrange(1, 20)
        q = rng.randrange(1, 20)
        if gcd(p, q) != 1 or (p % 2 and q % 2):
            continue
        t = trace3d(center_start(), (p, q))
        if t.stop_reason != "drift":
            continue
        count += 1
        v = t.drift_vector
        assert v != (0, 0, 0)
        assert t.vertices[-1] == tuple(
            t.vertices[0][k] + 2 * v[k] for k in range(3)
        )


def test_drift_vector_function():
    assert drift_vector((1, 2)) != (0, 0, 0)
    assert drift_vector((1, 1)) != (0, 0, 0)
    assert drift_vector((5, 2)) != (0, 0, 0)
    with pytest.raises(PeriodicDirectionError):
        drift_vector((1, 0))


# Isometries of the surface that fix the seed center (0, 1, 1/2), as maps
# of doubled coordinates c -> lin c + shift2x, each with its action on
# seed-chart directions.
SEED_SYMMETRIES = {
    # M_x: (x, y, z) -> (-x, y, z)
    "M_x": (((-1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0), lambda p, q: (-p, q)),
    # M_y: (x, y, z) -> (x, 2 - y, z)
    "M_y": (((1, 0, 0), (0, -1, 0), (0, 0, 1)), (0, 4, 0), lambda p, q: (p, -q)),
    # R, a half-turn: (x, y, z) -> (1 - y, 1 - x, 1 - z)
    "R": (((0, -1, 0), (-1, 0, 0), (0, 0, -1)), (2, 2, 2), lambda p, q: (q, p)),
}


@pytest.mark.parametrize("name", sorted(SEED_SYMMETRIES))
def test_seed_symmetries(name):
    lin, shift2x, act = SEED_SYMMETRIES[name]

    def image(c2x):
        return tuple(v + s for v, s in zip(mat_vec(lin, c2x), shift2x))

    # The box covers more than one period (2Z)^3, and the linear parts are
    # signed permutations, which preserve (2Z)^3.
    faces = faces_in_box((-4,) * 3, (5,) * 3)
    assert len(faces) == 1080
    for face in faces:
        axis = next(k for k in AXES if lin[k][face.axis])
        assert is_face(image(face.center2x), axis), face
    assert image(SEED_FACE.center2x) == SEED_FACE.center2x
    cu, cv = SEED_CHART
    for p, q in ((1, 0), (0, 1)):
        p2, q2 = act(p, q)
        assert mat_vec(lin, [p * cu[k] + q * cv[k] for k in AXES]) == tuple(
            p2 * cu[k] + q2 * cv[k] for k in AXES
        )


def test_drift_vector_symmetry_laws():
    # M_x (see SEED_SYMMETRIES) fixes the seed face's points with u = 1/2,
    # so the start point of every direction, and sends (p, q) to (-p, q);
    # time reversal sends (p, q) to (-p, -q).  So they act on drift vectors
    # by (x, y, z) -> (-x, y, z) and by negation.
    from math import gcd

    rng = random.Random(60)
    count = 0
    while count < 80:
        p, q = rng.randint(-60, 60), rng.randint(-60, 60)
        if gcd(p, q) != 1:
            continue
        try:
            x, y, z = drift_vector((p, q))
        except PeriodicDirectionError:
            continue
        count += 1
        assert drift_vector((-p, q)) == (-x, y, z), (p, q)
        assert drift_vector((-p, -q)) == (-x, -y, -z), (p, q)
        assert drift_vector((p, -q)) == (x, -y, -z), (p, q)


def test_drift_vector_linear_laws():
    # T = THETA and A = A_MAT move the drift vector linearly on every drift
    # direction with |p|, |q| <= 12 that is not odd/odd: with
    # (x, y, z) = drift_vector(d), T d drifts by (y, -x, z) and A d by
    # (-x, y, -z).  An odd/odd direction starts in another cylinder, where
    # only the multiset of absolute entries matches.
    from math import gcd

    from mucube.grouptheory import A_MAT, THETA

    def act(m, p, q):
        a, b, c, e = m
        return (a * p + b * q, c * p + e * q)

    count = 0
    for p in range(-12, 13):
        for q in range(-12, 13):
            if gcd(p, q) != 1 or p % 2 and q % 2:
                continue
            try:
                x, y, z = drift_vector((p, q))
            except PeriodicDirectionError:
                continue
            count += 1
            assert drift_vector(act(THETA, p, q)) == (y, -x, z), (p, q)
            assert drift_vector(act(A_MAT, p, q)) == (-x, y, -z), (p, q)
    assert count == 224


def test_drift_vector_swap_law():
    # R (see SEED_SYMMETRIES) fixes the seed center, the start point of
    # every direction that is not odd/odd, and swaps (p, q) with (q, p), so
    # drift((q, p)) = (-y, -x, -z).  M_y fixes the center too and sends
    # (p, q) to (p, -q) with vector (x, -y, z), where time reversal after M_x
    # gives (x, -y, -z); so z = 0.  R moves the odd/odd start (1/2, 1/3).
    from math import gcd

    pairs = 0
    for p in range(1, 41):
        for q in range(p + 1, 41):
            if gcd(p, q) != 1 or p % 2 and q % 2:
                continue
            try:
                x, y, z = drift_vector((p, q))
            except PeriodicDirectionError:
                continue
            pairs += 1
            assert z == 0, (p, q)
            assert drift_vector((q, p)) == (-y, -x, 0), (p, q)
    assert pairs == 312  # 624 ordered drift pairs


def test_crossing_budget_bounds_every_trace():
    # trace3d's lemma: on X's 24-sheet orientation cover a leaf is back on
    # its sheet and position, or at a corner, within 24 units of |p| + |q|
    # crossings each, and the oracle's drift revisit is X's closure.  Every
    # primitive |p|, |q| <= 40, from seed_start and from (1/3, 2/7), in 3D
    # and on X: the traces end within 24(|p| + |q|) + 1 crossings, or the
    # tracers would raise, and in fact within 4(|p| + |q|) + 1, which some
    # trace attains.
    from mucube.flow import SurfacePoint, trace_surface
    from mucube.surfaces import build_x

    X = build_x()
    other = Point3(SEED_FACE, SEED_CHART, Fraction(1, 3), Fraction(2, 7))
    worst = 0
    stops = set()
    for p in range(-40, 41):
        for q in range(-40, 41):
            if gcd(abs(p), abs(q)) != 1:
                continue
            n = abs(p) + abs(q)
            used = []
            for start in (seed_start(p, q), other):
                t = trace3d(start, (p, q))
                stops.add(t.stop_reason)
                assert t.stop_reason in ("closed", "drift", "cone_point"), (p, q, start)
                used.append(t.crossings)
            y0 = Fraction(1, 3) if p % 2 and q % 2 else Fraction(1, 2)
            for start in (SurfacePoint(0, Fraction(1, 2), y0), SurfacePoint(0, other.u, other.v)):
                t = trace_surface(X, start, (p, q))
                stops.add(t.stop_reason)
                assert t.stop_reason in ("closed", "cone_point"), (p, q, start)
                used.append(len(t.scaled_crossings) + t.closed)  # closure trims one
            assert max(used) <= 4 * n + 1, (p, q, used)
            worst = max(worst, max(used) - 4 * n - 1)
    assert worst == 0
    assert stops == {"closed", "drift", "cone_point"}


def test_a_leaf_that_never_closes_raises(monkeypatch):
    # Frames that never come back to the anchor's break the lemma: the trace
    # folds the anchor's letter and 24 units, then raises.
    from mucube import mucube3d

    real, calls = mucube3d._fold, itertools.count()

    def fold(codes, c, frame, p, q, visits):
        return real(codes, c, frame[:5], p, q, visits) + (next(calls),)

    monkeypatch.setattr(mucube3d, "_fold", fold)
    with pytest.raises(InternalGeometryError, match="within 24 units"):
        trace3d(seed_start(3, 1), (3, 1))
    assert next(calls) == 25


# ---------------------------------------------------------------------------
# Diameter and twists
# ---------------------------------------------------------------------------

def test_diameter_of_horizontal_core():
    t = trace3d(center_start(), (1, 0))
    # The core loop spans one unit in each of two coordinates.
    assert trajectory_diameter(t) == 1


def test_diameter_degenerate_polyline():
    assert polyline_diameter([(Fraction(0), Fraction(0), Fraction(0))]) == 0
    assert polyline_diameter([]) == 0


def test_diameter_requires_closed():
    t = trace3d(center_start(), (1, 2))
    with pytest.raises(ValueError):
        trajectory_diameter(t)


def test_alternating_twists_grow_diameter_by_two():
    # Alternate twisting around the vertical and horizontal axis directions,
    # starting from the horizontal trajectory; diameters grow by exactly 2.
    slope = Fraction(0)
    dirs = []
    for k in range(5):
        axis = "vertical" if k % 2 == 0 else "horizontal"
        slope = twist_slope(slope, axis, 1)
        dirs.append((slope.denominator, slope.numerator))
    diams = [trajectory_diameter(trace3d(center_start(), d))
             for d in dirs]
    for a, b in zip(diams, diams[1:]):
        assert b - a == 2
    assert all(b > a for a, b in zip(diams, diams[1:]))


def test_twist_slope_values():
    assert twist_slope(Fraction(0), "vertical", 1) == 4
    assert twist_slope(Fraction(1, 2), "vertical", 0) == Fraction(1, 2)
    assert twist_slope(Fraction(1, 4), "vertical", 1) == Fraction(17, 4)
    assert twist_slope(None, "horizontal", 1) == Fraction(1, 4)
    assert twist_slope(Fraction(-1, 4), "horizontal", 1) is None
    with pytest.raises(ValueError):
        twist_slope(None, "vertical", 1)
    with pytest.raises(ValueError):
        twist_slope(Fraction(0), "horizontal", 2)


def test_twist_length_matches_trace():
    # k-fold twist of the vertical trajectory around horizontal cylinders has
    # slope 1/(4k); its length must match the traced arc length exactly.
    for k in (1, 2, 3):
        pred = twist_length_prediction(4, 1, ((1, 0), (0, 1)), k, 4)
        t = trace3d(center_start(), (4 * k, 1))
        assert t.closed
        assert pred == t.arc_length


_TWIST_SLOPES = [
    Fraction(1, 4), Fraction(-1, 4), Fraction(4), Fraction(-4), Fraction(0),
    Fraction(1, 8), Fraction(-1, 8), Fraction(4, 17), Fraction(-4, 17), None,
]


def _slope_direction(s):
    return (0, 1) if s is None else (s.denominator, s.numerator)


def test_twist_length_matches_trace_for_either_sign():
    # Every twist of the grid's periodic slopes that is defined, on both
    # axes, k in {+-1, +-2}: the prediction is the arc length of the closed
    # trace in the twisted direction, also for a horizontal twist of a
    # negative slope, whose cotangent term is negative.
    cases = 0
    for s, (axis, v), k in itertools.product(
        _TWIST_SLOPES, (("vertical", (0, 1)), ("horizontal", (1, 0))), (1, -1, 2, -2)
    ):
        try:
            out = _slope_direction(twist_slope(s, axis, k))
        except ValueError:
            continue
        o = _slope_direction(s)
        t = trace3d(seed_start(*out), out)
        assert t.closed
        len_o = SqrtLength.of(4, o[0] ** 2 + o[1] ** 2)
        assert twist_length_prediction(4, 1, (v, o), k, len_o) == t.arc_length, (s, axis, k)
        cases += 1
    assert cases == 72


def test_twist_length_identity_at_zero():
    assert twist_length_prediction(4, 1, ((1, 0), (0, 1)), 0, 4) == SqrtLength.of(4, 1)


def test_twist_length_asymptotic_ratio():
    for k in (10**3, 10**6):
        ratio_sq = twist_length_ratio_sq(4, 1, ((1, 0), (0, 1)), k, 4)
        eps = Fraction(1, 1000)
        assert (1 - eps) ** 2 < ratio_sq < (1 + eps) ** 2


def test_twist_length_general_pair():
    # Off the axes, V = (4, 1): its cylinders have core length 4 sqrt(17),
    # so core vector c = 4 (4, 1) = (16, 4), and width 1 / sqrt(17), so area
    # |c| w = 4.  The closed orbit O along (0, 1) of length 4 has holonomy
    # o = (0, 4).  A straight curve crosses the cylinders once per area it
    # sweeps transversally: N = |o x c| / 4 = |0 * 4 - 4 * 16| / 4 = 16.
    # The k-fold twist adds k c at each crossing, on the hand of
    # cross(V, O) = 4 > 0, so the twisted holonomy is o + 16 k c, and
    # k = 1 gives (256, 68): length sqrt(256^2 + 68^2) = sqrt(70160).
    nv = 17
    len_v = SqrtLength.of(4, nv)
    wid_v = SqrtLength.of(Fraction(1, nv), nv)
    assert twist_length_prediction(len_v, wid_v, ((4, 1), (0, 1)), 1, 4) == SqrtLength(70160)
    for k in (-2, -1, 1, 2, 3):
        x, y = 0 + 16 * k * 16, 4 + 16 * k * 4
        pred = twist_length_prediction(len_v, wid_v, ((4, 1), (0, 1)), k, 4)
        assert pred == SqrtLength(x * x + y * y), k
