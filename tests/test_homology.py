"""Homology coordinates on Y against a geometric pushoff reference.

The reference counts signed crossings against leaves pushed off the special
leaves, retrying with another pushoff when a crossing lands on a segment
endpoint; the package computes the same coordinates as an integer edge
cochain and an exact count of passes of height 1/2.
"""

import dataclasses
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from leaf_reference import _leaf, reverse_chain

from mucube.flow import (
    _FAN_SIDE,
    B,
    L,
    R,
    T,
    DegenerateIntersection,
    SurfacePoint,
    _fraction_segments,
    _pieces,
    cylinder_decomposition,
    trace_surface,
)
from mucube.homology import (
    HomologyError,
    _cocycle,
    _eta_weights,
    _exits,
    _mid_letters,
    _pass_weights,
    gamma0_intersection,
    homology_coordinates,
    signed_crossings,
)

# Denominators are even multiples of primes that rarely divide trace
# coordinates; collisions are caught and retried.  The two lists are disjoint
# so the sigma and eta representatives never degenerate against each other.
PUSHOFFS = tuple(Fraction(1, 2) + Fraction(1, 2 * p) for p in (7, 11, 13, 17, 19, 23, 29, 31))
PUSHOFFS_ETA = tuple(Fraction(1, 2) + Fraction(1, 2 * p) for p in (37, 41, 43, 47, 53, 59, 61, 67))


def trace_leaf(surface, sq, x, y, d, budget=100_000):
    """The closed leaf through an edge or interior point, exactly; closure is
    detected when the post-crossing state repeats."""
    p, q = d
    den = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    sc = 2 * den * max(abs(p), 1) * max(abs(q), 1)
    x0, y0 = int(x * sc), int(y * sc)
    chain = []
    anchor = None
    for steps, (sq_i, xi, yi, dx, dy, _, nx, ny, side) in enumerate(
        _leaf(surface.glue, sc, sq, x0, y0, p, q)
    ):
        if steps:
            state = (sq_i, xi, yi, dx, dy)
            if anchor is None:
                anchor = state
            elif state == anchor:
                # One full period; for an edge start the final segment
                # degenerates to a point and is dropped.
                last = chain[steps - 1]
                segs = chain[: steps - 1] + [(*last[:3], x0, y0)]
                return _fraction_segments([s for s in segs if s[1:3] != s[3:]], sc)
            assert steps <= budget, "leaf failed to close"
        assert side is not None, "leaf hit a cone point"
        chain.append((sq_i, xi, yi, nx, ny))


_REPS = {}


def sigma_rep(Y, attempt):
    """The marked curve pushed off mid-height."""
    key = ("sigma", attempt)
    if key not in _REPS:
        sq0, x0, y0, x1, y1 = Y.marked_curves["gamma0"].segments[0]
        eps = 1 if x1 > x0 else -1
        _REPS[key] = trace_leaf(Y, sq0, (x0 + x1) / 2, PUSHOFFS[attempt], (eps, 0))
    return _REPS[key]


def eta_rep(Y, attempt):
    """A pushed-off core of the area-1 (1,1) cylinder, oriented so that it
    crosses sigma's representative +1 times."""
    key = ("eta", attempt)
    if key in _REPS:
        return _REPS[key]
    lam = PUSHOFFS_ETA[attempt]
    last_error = None
    for cyl in cylinder_decomposition(Y, (1, 1)).cylinders:
        if cyl.area != 1:
            continue
        (sq_c, side_c), lo, hi = cyl.intervals[0]
        par = lo + lam * (hi - lo)
        if side_c == L:
            start = (sq_c, Fraction(0), par, (1, 1))
        elif side_c == R:
            start = (sq_c, Fraction(1), par, (-1, -1))
        elif side_c == B:
            start = (sq_c, par, Fraction(0), (1, 1))
        else:
            start = (sq_c, par, Fraction(1), (-1, -1))
        chain = trace_leaf(Y, *start)
        try:
            pairing = signed_crossings(chain, sigma_rep(Y, attempt))
        except DegenerateIntersection as exc:
            last_error = exc
            continue
        if pairing in (1, -1):
            _REPS[key] = chain if pairing == 1 else reverse_chain(chain)
            return _REPS[key]
    if last_error is not None:
        raise last_error
    raise AssertionError("no area-1 cylinder pairs with sigma")


def pushoff_coordinates(Y, chain):
    """Reference (alpha, beta): minus the signed crossings over eta's
    representative, and the signed crossings over sigma's, retried with
    another pushoff when a crossing is degenerate."""
    for attempt in range(len(PUSHOFFS)):
        try:
            alpha = -signed_crossings(chain, eta_rep(Y, attempt))
            if all(y0 == y1 for _, _, y0, _, y1 in chain):
                return alpha, 0
            return alpha, signed_crossings(chain, sigma_rep(Y, attempt))
        except DegenerateIntersection:
            continue
    raise AssertionError("all pushoffs degenerate against the chain")


def primitive(n):
    return [
        (p, q)
        for p in range(-n, n + 1)
        for q in range(-n, n + 1)
        if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1
    ]


def fan_exits(Y):
    return [[(sq, _FAN_SIDE[c]) for sq, c in corners] for corners, _ in Y._vertex_fans()]


def test_weights_are_a_cocycle(Y):
    w = _eta_weights(Y)
    assert all(w[edge] == -w[Y.glue[edge][:2]] for edge in Y.glue)
    assert all(sum(w[edge] for edge in fan) == 0 for fan in fan_exits(Y))
    assert set(w.values()) <= {-1, 0, 1}


def test_cocycle_refuses_inconsistent_data(Y):
    fans = fan_exits(Y)
    sigma = _exits(Y.marked_curves["gamma0"])
    # A loop around a corner bounds, so no cocycle is 1 on it.
    with pytest.raises(HomologyError):
        _cocycle(Y.glue, fans, fans[0], [])
    # No cochain is both 1 and 0 on the same curve.
    with pytest.raises(HomologyError):
        _cocycle(Y.glue, fans, sigma, sigma)
    # An edge glued to itself by a flip must carry weight 0.
    with pytest.raises(HomologyError):
        _cocycle({(0, T): (0, T, True)}, [], [(0, T)], [])


def test_pushoff_representatives_are_the_basis(Y):
    for attempt in range(len(PUSHOFFS)):
        for rep, coords in ((sigma_rep(Y, attempt), (1, 0)), (eta_rep(Y, attempt), (0, 1))):
            assert homology_coordinates(Y, rep) == coords
            assert pushoff_coordinates(Y, rep) == coords


def test_coordinates_match_pushoffs_up_to_25(Y):
    starts = (
        SurfacePoint(0, Fraction(1, 2), Fraction(1, 2)),
        SurfacePoint(0, Fraction(1, 2), Fraction(1, 3)),
    )
    chains = 0
    endpoint_passes = 0
    for d in primitive(25):
        for cyl in cylinder_decomposition(Y, d).cylinders:
            coords = homology_coordinates(Y, cyl.core_chain)
            assert coords == pushoff_coordinates(Y, cyl.core_chain), d
            assert gamma0_intersection(Y, cyl) == coords[1]
            chains += 1
        for start in starts:
            t = trace_surface(Y, start, d)
            if not t.closed:
                assert t.stop_reason == "cone_point"
                continue
            # The trace's crossings and its chain's wall endpoints agree.
            coords = homology_coordinates(Y, t)
            assert coords == homology_coordinates(Y, t.segments)
            assert coords == pushoff_coordinates(Y, t.segments), d
            endpoint_passes += sum(
                x1 in (0, 1) and y1 == Fraction(1, 2) for _, _, _, x1, y1 in t.segments
            )
            chains += 1
    assert chains >= 5000
    # The sweep reaches passes of mid-height through edge midpoints, the case
    # a half-open count has to get right.
    assert endpoint_passes > 1000


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(st.integers(-2000, 2000), st.integers(-2000, 2000)).filter(
        lambda d: gcd(abs(d[0]), abs(d[1])) == 1
    )
)
def test_count_matches_pushoffs_on_large_cores(Y, d):
    for cyl in cylinder_decomposition(Y, d).cylinders:
        coords = homology_coordinates(Y, cyl.core_chain)
        assert coords == pushoff_coordinates(Y, cyl.core_chain)
        assert gamma0_intersection(Y, cyl) == coords[1]


def _pass(y0, y1, half):
    """The pass rule: 1 if a segment from height y0 to y1 passes ``half``
    upward, -1 if downward, else 0; a pass at an endpoint counts on the
    segment that leaves it."""
    return 1 if y0 <= half < y1 else -1 if y1 < half <= y0 else 0


def _segment_count(surface, segments, half):
    """The marked-curve count over integer segments, as gamma0_intersection
    made it on a cylinder's core segments and a trace's segments before it
    read their walks."""
    gamma0 = surface.marked_curves["gamma0"]
    eps = {sq: 1 if x1 > x0 else -1 for sq, x0, _, x1, _ in gamma0.scaled_segments}
    return sum(_pass(y0, y1, half) * eps[sq] for sq, _, y0, _, y1 in segments)


def _check_pieces_pass(c):
    # The walk count visits only _mid_letters and signs each sheet by the
    # direction of dy: on every letter of the word, the pass rule applied to
    # the + piece and to the - piece gives that sign and its negative there,
    # and 0 on both elsewhere, pieces that end at mid-height included.
    word, _, _, _ = c._period()
    _, y0, _, dy, times, _ = word
    half, up = c.scale // 2, 1 if dy > 0 else -1
    mid = set(_mid_letters(c.scale, y0, dy, times))
    for i, (plus, minus) in enumerate(_pieces(c.scale, *word)):
        want = up if i in mid else 0
        assert (_pass(plus[1], plus[3], half), _pass(minus[1], minus[3], half)) == (want, -want)


def _check_walk_count(Y, d, starts=()):
    for cyl in cylinder_decomposition(Y, d).cylinders:
        assert gamma0_intersection(Y, cyl) == _segment_count(Y, cyl.core_segments, cyl.scale // 2), d
        _check_pieces_pass(cyl)
    for start in starts:
        t = trace_surface(Y, start, d)
        if t.closed:
            want = _segment_count(Y, t.scaled_segments, t.scale // 2)
            assert gamma0_intersection(Y, t) == want, (d, start)
            _check_pieces_pass(t)


def test_walk_count_matches_the_segment_count(Y):
    # The count on a walk visits whole letters of the cutting word; the
    # segments it stands for are the views.  Every Y cylinder and every
    # closed Y trace from three starts, on signed primitive |p|, |q| <= 30.
    starts = (
        SurfacePoint(0, Fraction(1, 2), Fraction(1, 2)),
        SurfacePoint(0, Fraction(1, 2), Fraction(1, 3)),
        SurfacePoint(3, Fraction(1, 3), Fraction(2, 7)),
    )
    for d in primitive(30):
        _check_walk_count(Y, d, starts)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(-300, 300), st.integers(-300, 300)).filter(
        lambda d: gcd(abs(d[0]), abs(d[1])) == 1
    )
)
def test_walk_count_matches_the_segment_count_far(Y, d):
    _check_walk_count(Y, d, (SurfacePoint(0, Fraction(1, 2), Fraction(1, 3)),))


def test_pass_weights_follow_the_calibrated_curve(Y):
    # build_y counts a probe on its first marked curve and may then reverse
    # the curve; the per-sheet weights cached from then on are the final
    # curve's, on Y and on a copy with an empty cache, in one table for the
    # words with dy > 0.
    gamma0 = Y.marked_curves["gamma0"]
    x_way = {sq: 1 if x1 > x0 else -1 for sq, x0, _, x1, _ in gamma0.scaled_segments}
    eps = [x_way[sq] for sq in range(Y.n)]
    cold = dataclasses.replace(Y, _cache={})
    for S in (Y, cold):
        up = _pass_weights(S)
        assert list(up[0::2]) == eps and list(up[1::2]) == [-e for e in eps]
    passes = {key for key in cold._cache if "gamma0_passes" in (key, key[0])}
    assert passes == {"gamma0_passes"}


@pytest.mark.parametrize("d, coords", [((3, 1), (-1, -1)), ((2, 3), (1, -4))])
def test_trace_counts_the_marked_curve_from_its_walk(Y, d, coords):
    # The second coordinate counts the passes of the marked curve in the
    # integer segments the trace reads from its walk; its Fraction segments
    # stay unbuilt.
    start = SurfacePoint(0, Fraction(1, 2), Fraction(1, 3))
    t = trace_surface(Y, start, d)
    assert homology_coordinates(Y, t) == coords
    assert "segments" not in vars(t)
