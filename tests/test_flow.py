"""Tracing, decomposition and intersection machinery on the quotients."""

import dataclasses
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import gcd

import leaf_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucube import flow
from mucube.classify import quarter_displacement_check
from mucube.exact import SqrtLength
from mucube.flow import (
    DegenerateIntersection,
    FlowBudgetError,
    SurfacePoint,
    cylinder_count,
    cylinder_decomposition,
    trace_surface,
)
from mucube.homology import signed_crossings
from mucube.mucube3d import Point3, SEED_CHART, SEED_FACE, seed_start, trace3d
from mucube.surfaces import Surface, minimal_translation_cover


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
    t = trace_surface(Y, CENTER, (1, 0))
    assert t.closed
    assert t.s_total == 4
    assert len({seg[0] for seg in t.segments}) == 4


def test_x_horizontal_displacement(X):
    t = trace_surface(X, CENTER, (1, 0))
    assert t.closed and t.displacement == (0, 0, 0)


def test_x_one_two_displacement_matches_oracle(X):
    t = trace_surface(X, CENTER, (1, 2))
    t3 = trace3d(Point3.face_center(SEED_FACE, SEED_CHART), (1, 2))
    assert t.closed and t.displacement == t3.drift_vector != (0, 0, 0)


def test_cone_point_outcome(Y):
    t = trace_surface(Y, CENTER, (1, 1))
    assert t.stop_reason == "cone_point"
    assert t.cone_point is not None


def test_interior_start_required(Y):
    with pytest.raises(ValueError):
        trace_surface(Y, SurfacePoint(0, Fraction(0), Fraction(1, 2)), (1, 0))


def test_closed_trace_is_one_period(X):
    t = trace_surface(X, CENTER, (4, 1))
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
        t3 = trace3d(Point3.face_center(SEED_FACE, SEED_CHART), d)
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
# walked from both ends.  With ``once``, the loop that traced each connection
# from one end only: a ray that starts where an earlier ray ended would
# retrace it backwards, cutting the same points, so it is skipped.  Kept as
# the reference for the cuts.
def _ref_separatrix_cuts(surface, direction, sc, transversal, once=False):
    p, q = direction
    n = surface.n
    budget = 4 * n * (abs(p) + abs(q)) + 16
    cuts = {}
    for sq in range(n):
        for side in transversal:
            cuts.setdefault(leaf_reference._canonical_edge(surface, sq, side), set())
    traced_ends = set()
    for dx, dy in ((p, q), (-p, -q)):
        xs = [0] if dx > 0 else [sc] if dx < 0 else [0, sc]
        ys = [0] if dy > 0 else [sc] if dy < 0 else [0, sc]
        for sq0 in range(n):
            for cx in xs:
                for cy in ys:
                    if once and (sq0, cx, cy, dx, dy) in traced_ends:
                        continue
                    for steps, (sq, _, _, ex, ey, _, nx, ny, side) in enumerate(
                        leaf_reference._leaf(surface.glue, sc, sq0, cx, cy, dx, dy)
                    ):
                        if side is None:
                            traced_ends.add((sq, nx, ny, -ex, -ey))
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


def _ref_separatrix_cuts_once(surface, direction, sc, transversal):
    return _ref_separatrix_cuts(surface, direction, sc, transversal, once=True)


# cylinder_decomposition as it was while it traced the separatrices: the cuts
# of the corner rays, sorted into intervals located by bisection, and a core
# leaf per cylinder under a guessed budget.  Kept as the reference for
# flow.cylinder_decomposition, which reads the cuts off the slot lattice.
# Returns the decomposition and, per cylinder, the lists its views should
# hold: (squares, scaled_intervals, core_segments).
def _ref_cylinder_decomposition(surface, direction, separatrix_cuts=_ref_separatrix_cuts):
    p, q = direction
    if (p, q) == (0, 0) or gcd(abs(p), abs(q)) != 1:
        raise ValueError("direction must be primitive")
    n = surface.n
    vertical_transversal = abs(p) >= abs(q)
    transversal = flow.VERTICAL_SIDES if vertical_transversal else flow.HORIZONTAL_SIDES
    step_div = abs(p) if vertical_transversal else abs(q)

    sc = 2 * max(abs(p), 1) * max(abs(q), 1)
    cuts = separatrix_cuts(surface, (p, q), sc, transversal)

    sc2 = 2 * sc
    intervals = []
    bounds = {}
    for key in sorted(cuts):
        params = sorted({0, sc} | cuts[key])
        bounds[key] = [2 * v for v in params]
        for lo, hi in zip(params, params[1:]):
            intervals.append((key, 2 * lo, 2 * hi))
    index = {iv: k for k, iv in enumerate(intervals)}

    def locate(key, t2):
        bs = bounds[key]
        i = bisect_left(bs, t2)
        if i == 0 or i == len(bs) or bs[i] == t2:
            raise FlowBudgetError("transversal crossing landed on a cut")
        return (key, bs[i - 1], bs[i])

    def entry_state(key, t2):
        sq_c, side_c = key
        if side_c == flow.L:
            d_in = (p, q) if p > 0 else (-p, -q)
            return (sq_c, 0, t2, d_in[0], d_in[1])
        if side_c == flow.R:
            d_in = (p, q) if p < 0 else (-p, -q)
            return (sq_c, sc2, t2, d_in[0], d_in[1])
        if side_c == flow.B:
            d_in = (p, q) if q > 0 else (-p, -q)
            return (sq_c, t2, 0, d_in[0], d_in[1])
        d_in = (p, q) if q < 0 else (-p, -q)
        return (sq_c, t2, sc2, d_in[0], d_in[1])

    core_budget = 16 * n * (abs(p) + abs(q)) + 64
    visited = set()
    cylinders, views = [], []
    for iv0 in intervals:
        if index[iv0] in visited:
            continue
        mid = (iv0[1] + iv0[2]) // 2
        state0 = entry_state(iv0[0], mid)
        group, squares, core_segments = [], [], []
        steps = 0
        for sq, x, y, dx, dy, t, nx, ny, side in leaf_reference._leaf(surface.glue, sc2, *state0):
            if steps and (sq, x, y, dx, dy) == state0:
                break
            if steps > core_budget:
                raise FlowBudgetError("core leaf failed to close in budget")
            if side is None:
                raise FlowBudgetError("core leaf hit a cone point")
            core_segments.append((sq, x, y, nx, ny))
            if side in transversal:
                tpar = ny if side in flow.VERTICAL_SIDES else nx
                key, tc = flow._canonical_param(surface, sq, side, tpar // 2, sc)
                iv = locate(key, tc * 2)
                k = index[iv]
                if k in visited:
                    raise FlowBudgetError("interval revisited before closure")
                visited.add(k)
                group.append(iv)
                squares.append(sq)
                steps += 1

        length0 = Fraction(iv0[2] - iv0[1], sc2)
        for iv in group:
            if iv[2] - iv[1] != iv0[2] - iv0[1]:
                raise FlowBudgetError("return map is not measure-preserving")
        mult, rem = divmod(steps, step_div)
        if rem:
            raise FlowBudgetError("circumference is not an integer multiple")
        nsq = p * p + q * q
        cylinders.append(
            flow.Cylinder(
                direction=(p, q),
                circumference_multiplier=mult,
                width=SqrtLength(length0 * length0 * step_div * step_div / nsq),
                area=Fraction(steps) * length0,
                scale=sc2,
            )
        )
        views.append((squares, group, core_segments))
    deco = flow.Decomposition(direction=(p, q), cylinders=cylinders)
    if deco.total_area != n:
        raise FlowBudgetError(f"decomposition areas {deco.total_area} do not add up to {n}")
    return deco, views


def _views(deco):
    """Per cylinder, its views as a reference returns them."""
    return [(c.squares, c.scaled_intervals, c.core_segments) for c in deco.cylinders]


def _primitive(bound):
    return [
        (p, q)
        for p in range(-bound, bound + 1)
        for q in range(-bound, bound + 1)
        if gcd(abs(p), abs(q)) == 1
    ]


def _slot_lattice(surface, direction, sc, transversal):
    """The cuts that cylinder_decomposition assumes: every multiple of
    1/max(|p|, |q|) inside every canonical transversal edge."""
    m = max(map(abs, direction))
    edges = {leaf_reference._canonical_edge(surface, sq, side) for sq in range(surface.n) for side in transversal}
    return {key: set(range(sc // m, sc, sc // m)) for key in edges}


def test_decomposition_matches_two_way_reference(X, Y):
    count = 0
    for S in (X, Y):
        for d in _primitive(25):
            deco = cylinder_decomposition(S, d)
            ref, views = _ref_cylinder_decomposition(S, d)
            # Dataclass equality covers the summary fields; the walk is not
            # compared, so each view is compared with the reference's lists.
            assert deco == ref, (S.name, d)
            assert _views(deco) == views, (S.name, d)
            if max(map(abs, d)) <= 12:
                # The Fraction views derive from the integer views compared
                # above; they are compared where they are cheap to build.
                for c, (_, group, core) in zip(deco.cylinders, views):
                    sc = c.scale
                    assert c.intervals == [
                        (edge, Fraction(lo, sc), Fraction(hi, sc)) for edge, lo, hi in group
                    ], (S.name, d)
                    assert c.core_chain == flow._fraction_segments(core, sc), (S.name, d)
            count += 1
    assert count == 2 * 1600


def test_each_saddle_connection_traced_once(X, Y, monkeypatch):
    # Corner rays start at a corner of a square; core leaves start inside an
    # edge.  n squares have n corner rays in each of +d and -d off the axes
    # (2n on an axis, where two corners of each square face the flow), and
    # the two ends of each saddle connection are two of them.  The one-way
    # reference cuts as the two-way one does; the slot decomposition traces
    # no leaf with the reference stepper at all.
    starts = []

    def counting_leaf(glue, sc, sq, x, y, dx, dy):
        if x in (0, sc) and y in (0, sc):
            starts.append((sq, x, y, dx, dy))
        return leaf(glue, sc, sq, x, y, dx, dy)

    leaf = leaf_reference._leaf
    monkeypatch.setattr(leaf_reference, "_leaf", counting_leaf)
    for S in (X, Y):
        for p, q in _primitive(12):
            starts.clear()
            once, views = _ref_cylinder_decomposition(S, (p, q), _ref_separatrix_cuts_once)
            assert len(starts) == (S.n if p * q else 2 * S.n), (S.n, p, q)
            assert len(set(starts)) == len(starts)
            deco = cylinder_decomposition(S, (p, q))
            assert (deco, _views(deco)) == (once, views), (S.name, p, q)


# Three starts for the walk tests; the center meets a corner in every
# odd/odd direction.
_WALK_STARTS = (
    CENTER,
    SurfacePoint(0, Fraction(1, 2), Fraction(1, 3)),
    SurfacePoint(3, Fraction(1, 3), Fraction(2, 7)),
)


def test_trace_surface_matches_the_stepper(X, Y, cover_y):
    # The cutting-word walk against the wall-to-wall stepper on every signed
    # primitive |p|, |q| <= 30, on X, Y and Y's translation cover, from three
    # starts.  Dataclass equality covers every field; the views are compared
    # with the stepper's lists.
    stops = set()
    for S in (X, Y, cover_y):
        for p, q in _primitive(30):
            for start in _WALK_STARTS:
                got = trace_surface(S, start, (p, q))
                want = leaf_reference.ref_trace_surface(S, start, (p, q))
                assert (got, got.scaled_crossings, got.scaled_segments) == want, (
                    S.name, p, q, start
                )
                stops.add(got.stop_reason)
    assert stops == {"closed", "cone_point"}


def test_cached_tables_change_no_result(X, Y, cover_y):
    # A surface keeps one sheet record, which every sign quadrant of the
    # direction reads, and its tables per transversal.  Traces and
    # decompositions read from a warm cache equal those from an empty one,
    # view by view, and a sweep over all four quadrants leaves 1 + 2
    # entries, none per direction, all immutable.
    tables = {"origami", ("transversal", False), ("transversal", True)}

    def trace_run(surface, d, start):
        t = trace_surface(surface, start, d)
        return t, t.scaled_crossings, t.scaled_segments

    def deco_run(surface, d):
        deco = cylinder_decomposition(surface, d)
        return deco, _views(deco)

    for S in (X, Y, cover_y):
        warm = dataclasses.replace(S, _cache={})
        for d in _primitive(6):
            deco_run(warm, d)
            for start in _WALK_STARTS:
                trace_run(warm, d, start)
        assert set(warm._cache) == tables, S.name
        hash(tuple(warm._cache.values()))  # tuples all the way down
        for d in _primitive(6):
            cold = dataclasses.replace(S, _cache={})
            assert deco_run(cold, d) == deco_run(warm, d), (S.name, d)
            for start in _WALK_STARTS:
                cold = dataclasses.replace(S, _cache={})
                assert trace_run(cold, d, start) == trace_run(warm, d, start), (S.name, d)
        assert set(warm._cache) == tables, S.name


_QUADRANTS = ((1, 1), (-1, 1), (1, -1), (-1, -1), (0, 1), (0, -1), (1, 0), (-1, 0))


def test_sheet_tables_are_views_of_one_record(X, Y, cover_y):
    # Every sign quadrant's steps and weights, picked from the one record of
    # r, u and their weights, equal those read from the gluings for that
    # quadrant alone, with the quadrant's exit sides; a zero component takes
    # the inverse.  The clone from text builds its record afresh.
    for S in (X, Y, cover_y, Surface.from_text(X.to_text())):
        for dx, dy in _QUADRANTS:
            got = (flow._exit_sides(dx, dy), *flow._sheet_tables(S, dx, dy))
            assert got == leaf_reference.ref_sheet_tables(S, dx, dy), (S.name, dx, dy)


def test_a_leaf_that_does_not_close_is_an_invariant_violation(X, monkeypatch, capsys):
    # A unit permutes the 2n sheets, so a leaf that meets no corner closes
    # within 2n units.  A kernel that never reports closure runs past them:
    # the trace raises, and the CLI reports one internal error, exit 3.
    from mucube.cli import main

    walk = flow._walk

    def never_home(unit, sheets, home, units):
        return walk(unit, sheets, None, units)

    monkeypatch.setattr(flow, "_walk", never_home)
    with pytest.raises(FlowBudgetError, match="within 24 units"):
        trace_surface(X, CENTER, (2, 1))
    assert main(["classify", "--p", "3", "--q", "1", "--method", "x"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("internal error: ")


def test_decomposition_matches_the_stepper(X, Y):
    # The slot-lattice decomposition as it was on the wall-to-wall stepper,
    # field by field and view by view, on every signed primitive
    # |p|, |q| <= 30.
    for S in (X, Y):
        for d in _primitive(30):
            deco = cylinder_decomposition(S, d)
            want = leaf_reference.ref_cylinder_decomposition(S, d)
            assert (deco, _views(deco)) == want, (S.name, d)


def test_periods_are_whole_units(X, Y):
    # A post-crossing state repeats only after a whole number of units (see
    # the flow module).  So every closed or drifting trace with
    # |p|, |q| <= 25 has an integral s_total, and its period crosses a
    # multiple of |p| + |q| walls, on X, on Y and on the 3D surface.
    periods = Counter()
    off_center = Point3(SEED_FACE, SEED_CHART, Fraction(1, 3), Fraction(2, 7))
    for p, q in _primitive(25):
        n = abs(p) + abs(q)
        for S in (X, Y):
            for start in _WALK_STARTS:
                t = trace_surface(S, start, (p, q))
                if t.closed:
                    periods[S.name] += 1
                    assert t.s_total.denominator == 1, (S.name, p, q, start)
                    assert len(t.scaled_crossings) % n == 0, (S.name, p, q, start)
        for start in (seed_start(p, q), off_center):
            t3 = trace3d(start, (p, q))
            if t3.stop_reason in ("closed", "drift"):
                periods["3d"] += 1
                assert t3.s_total.denominator == 1, (p, q, start)
                assert (t3.crossings - 1) % n == 0, (p, q, start)
    assert min(periods.values()) > 1000 and len(periods) == 3, periods


@pytest.fixture(scope="module")
def cover_y(Y):
    return minimal_translation_cover(Y)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((0, 1, 2)),
    st.tuples(st.integers(-300, 300), st.integers(-300, 300)).filter(
        lambda d: gcd(abs(d[0]), abs(d[1])) == 1
    ),
)
def test_slot_lattice_beyond_the_gate_sizes(X, Y, cover_y, which, d):
    # The corner rays cut every transversal edge at the multiples of
    # 1/max(|p|, |q|) and nowhere else, so the slot decomposition equals the
    # reference far past the |p|, |q| <= 25 sweep, on X, Y and Y's
    # translation cover.
    S = (X, Y, cover_y)[which]
    p, q = d
    sc = 2 * max(abs(p), 1) * max(abs(q), 1)
    transversal = flow.VERTICAL_SIDES if abs(p) >= abs(q) else flow.HORIZONTAL_SIDES
    cuts = _ref_separatrix_cuts(S, d, sc, transversal)
    assert cuts == _slot_lattice(S, d, sc, transversal), (S.name, d)
    deco = cylinder_decomposition(S, d)
    assert (deco, _views(deco)) == _ref_cylinder_decomposition(S, d), (S.name, d)


def test_cylinder_count_matches_the_decomposition(X, Y, cover_y):
    # Euclid's algorithm on the sheet origami counts the cylinders the
    # decomposition walks, on every signed primitive direction: X and Y's
    # translation cover up to 30, Y up to 60.
    for S, bound in ((X, 30), (cover_y, 30), (Y, 60)):
        for d in _primitive(bound):
            assert cylinder_count(S, d) == len(cylinder_decomposition(S, d).cylinders), (S.name, d)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4)).filter(
        lambda d: gcd(abs(d[0]), abs(d[1])) == 1
    ),
)
def test_cylinder_count_matches_the_decomposition_far_out(Y, d):
    assert cylinder_count(Y, d) == len(cylinder_decomposition(Y, d).cylinders), d


def test_cylinder_count_powers_through_cycles(X, monkeypatch):
    # Partial quotients past the composed ones take their power from the
    # permutation's cycles; both ways give the same count.
    dirs = [d for d in _primitive(40) if sorted(map(abs, d)) in ([1, 21], [2, 27], [1, 39])]
    composed = [cylinder_count(X, d) for d in dirs]
    monkeypatch.setattr(flow, "_COMPOSED_POWERS", 0)
    assert [cylinder_count(X, d) for d in dirs] == composed
    monkeypatch.setattr(flow, "_COMPOSED_POWERS", 10**6)
    assert [cylinder_count(X, d) for d in dirs] == composed


def test_cylinder_count_refuses_a_non_primitive_direction(Y):
    for d in ((0, 0), (2, 4), (-3, 3)):
        with pytest.raises(ValueError, match="primitive"):
            cylinder_count(Y, d)


def test_closure_implies_rational_slope_contrapositive(X):
    # A rational direction closes within 2n units; a leaf that ran past them
    # (as an irrational slope's would) raises instead of closing.
    for d in ((3, 2), (7, 4), (9, 4)):
        t = trace_surface(X, CENTER, d)
        assert t.closed


# ---------------------------------------------------------------------------
# Quarter displacement law
# ---------------------------------------------------------------------------

def test_quarter_check_examples(X):
    cases = {(1, 0): True, (4, 1): True, (1, 2): False, (5, 2): False}
    for d, expected in cases.items():
        t = trace_surface(X, CENTER, d)
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
            t = trace_surface(X, start, d)
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


def _as_fractions(chain):
    return [(sq, *map(Fraction, xy)) for sq, *xy in chain]


def _count_or_degenerate(moving, rep):
    try:
        return signed_crossings(moving, rep)
    except DegenerateIntersection:
        return "degenerate"


def test_signed_crossings_exact_on_large_ints():
    # The crossing parameter is (N - 1) / N, which a float rounds to 1.
    n = 2**60
    moving, rep = [(0, 0, 0, n, 1)], [(0, n - 1, -1, n - 1, 2)]
    assert signed_crossings(moving, rep) == -1
    assert signed_crossings(_as_fractions(moving), _as_fractions(rep)) == -1


def test_signed_crossings_agree_on_ints_and_fractions():
    # Seeded random chains on two squares, with corners on a coarse grid of
    # step 2^55, half of them moved by one unit, so that a float would round
    # the crossing parameters: the same count (or the same degenerate case)
    # as ints, as Fractions, and scaled down by a denominator.
    rng = random.Random(24)

    def coordinate():
        return rng.randint(-4, 4) * 2**55 + rng.choice((-1, 0, 0, 1))

    seen = Counter()
    for _ in range(3000):
        moving, rep = (
            [(rng.randrange(2), *(coordinate() for _ in range(4))) for _ in range(3)]
            for _ in range(2)
        )
        want = _count_or_degenerate(_as_fractions(moving), _as_fractions(rep))
        seen["degenerate" if want == "degenerate" else "crossed" if want else "zero"] += 1
        assert _count_or_degenerate(moving, rep) == want
        den = rng.choice((2, 3, 7, 2**61 - 1))
        scaled = ([(sq, *(Fraction(v, den) for v in xy)) for sq, *xy in c] for c in (moving, rep))
        assert _count_or_degenerate(*scaled) == want
    assert len(seen) == 3 and min(seen.values()) > 100, seen
