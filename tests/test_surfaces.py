"""The two finite quotients, their covers, cocycle and homology machinery."""

import os
from fractions import Fraction
from math import gcd

import pytest
from leaf_reference import reverse_chain

from mucube import classify
from mucube.exact import SqrtLength
from mucube.flow import (
    B,
    L,
    OPPOSITE,
    R,
    SurfacePoint,
    SurfaceTrace,
    T,
    cylinder_decomposition,
    trace_surface,
)
from mucube.homology import gamma0_intersection, homology_coordinates
from mucube.mucube3d import Point3, SEED_CHART, SEED_FACE, trace3d
from mucube.surfaces import Surface, build_y, minimal_translation_cover

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


# ---------------------------------------------------------------------------
# Structure of the 12-square quotient
# ---------------------------------------------------------------------------

def test_x_shape(X):
    assert X.n == 12
    assert X.genus() == 3
    assert X.singularity_signature() == (3,) * 8
    X.validate()


def test_x_cylinder_structure(X):
    horizontal = cylinder_decomposition(X, (1, 0))
    vertical = cylinder_decomposition(X, (0, 1))
    for deco in (horizontal, vertical):
        assert len(deco.cylinders) == 3
        for c in deco.cylinders:
            assert c.area == 4
            assert c.circumference_multiplier == 4
            assert len(set(c.squares)) == 4
    h_sets = [frozenset(c.squares) for c in horizontal.cylinders]
    v_sets = [frozenset(c.squares) for c in vertical.cylinders]
    assert frozenset().union(*h_sets) == frozenset(range(12))
    assert frozenset().union(*v_sets) == frozenset(range(12))
    # Each vertical cylinder meets exactly two horizontal ones, two squares
    # in each, and the three row-pairs are distinct.
    pairs = set()
    for vs in v_sets:
        meets = tuple(sorted(k for k, hs in enumerate(h_sets) if vs & hs))
        assert len(meets) == 2
        assert all(len(vs & h_sets[k]) == 2 for k in meets)
        pairs.add(meets)
    assert len(pairs) == 3


def test_y_shape(Y):
    assert Y.n == 4
    assert Y.genus() == 1
    assert Y.singularity_signature() == (1, 1, 3, 3)
    Y.validate()


def test_y_single_horizontal_cylinder(Y):
    deco = cylinder_decomposition(Y, (1, 0))
    assert len(deco.cylinders) == 1
    assert deco.cylinders[0].area == 4
    assert deco.cylinders[0].circumference_multiplier == 4


def test_order3_rotation_cycles_x_horizontal_cylinders(X):
    from mucube.classify import rotation_square_action

    action = rotation_square_action()
    deco = cylinder_decomposition(X, (1, 0))
    sets = [frozenset(c.squares) for c in deco.cylinders]
    images = [frozenset(action[sq][0] for sq in s) for s in sets]
    sigma = [sets.index(img) for img in images]
    assert sorted(sigma) == [0, 1, 2]
    assert all(sigma[i] != i for i in range(3))


# ---------------------------------------------------------------------------
# Cocycle
# ---------------------------------------------------------------------------

def test_cocycle_antisymmetry(X):
    for (sq, side), w in X.cocycle.items():
        sq2, side2, flip = X.glue[(sq, side)]
        assert X.cocycle[(sq2, side2)] == tuple(-v for v in w)


def test_cocycle_core_holonomies(X):
    center = SurfacePoint(0, Fraction(1, 2), Fraction(1, 2))
    th = trace_surface(X, center, (1, 0))
    tv = trace_surface(X, center, (0, 1))
    assert th.closed and th.displacement == (0, 0, 0)
    assert tv.closed and tv.displacement == (0, 0, 0)


def test_cocycle_realizes_deck_generators(X):
    # BFS in the (square, offset) graph: closed combinatorial paths with net
    # weight equal to each unit vector must exist.
    from collections import deque

    targets = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    start = (0, (0, 0, 0))
    seen = {start}
    queue = deque([start])
    reached = set()
    while queue and len(reached) < 3:
        sq, off = queue.popleft()
        for side in (L, R, B, T):
            sq2, _, _ = X.glue[(sq, side)]
            w = X.cocycle[(sq, side)]
            off2 = tuple(o + v for o, v in zip(off, w))
            if sq2 == 0 and off2 in targets:
                reached.add(off2)
            if max(abs(v) for v in off2) <= 2 and (sq2, off2) not in seen:
                seen.add((sq2, off2))
                queue.append((sq2, off2))
    assert reached == targets


def test_quotient_consistency_projection(X):
    # Projecting a 3D trace gives the same face-class sequence as tracing the
    # projected start on the quotient directly.
    from mucube.surfaces import _x_canonical

    for d in ((4, 1), (1, 2), (5, 2)):
        t3 = trace3d(Point3.face_center(SEED_FACE, SEED_CHART), d)
        assert X.reps is not None
        index = {rep: k for k, rep in enumerate(X.reps)}
        projected = [index[_x_canonical(f)[0]] for f in t3.face_path]
        t2 = trace_surface(X, SurfacePoint(0, Fraction(1, 2), Fraction(1, 2)), d)
        squares = [t2.segments[0][0]] + [
            X.glue[(sq, side)][0] for _, sq, side in t2.crossings
        ]
        assert projected[: len(squares)] == squares[: len(projected)]


def test_x_displacement_equals_3d_drift(X):
    for d in ((1, 2), (2, 1), (5, 2), (2, 5), (1, 6), (3, 2)):
        t3 = trace3d(Point3.face_center(SEED_FACE, SEED_CHART), d)
        t2 = trace_surface(X, SurfacePoint(0, Fraction(1, 2), Fraction(1, 2)), d)
        assert t2.closed
        assert t3.stop_reason == "drift"
        assert t2.displacement == t3.drift_vector


# ---------------------------------------------------------------------------
# Minimal translation covers
# ---------------------------------------------------------------------------

def connected_components(s: Surface) -> int:
    """The number of connected components of a square-tiled surface."""
    seen = set()
    comps = 0
    for start in range(s.n):
        if start in seen:
            continue
        comps += 1
        stack = [start]
        while stack:
            sq = stack.pop()
            if sq in seen:
                continue
            seen.add(sq)
            for side in (L, R, B, T):
                stack.append(s.glue[(sq, side)][0])
    return comps


def test_translation_cover_of_y(Y):
    cover = minimal_translation_cover(Y)
    assert cover.n == 8
    assert connected_components(cover) == 1
    assert all(not flip for _, _, flip in cover.glue.values())
    # angle-pi points double to regular 2*pi points; 3*pi points to 6*pi.
    assert cover.singularity_signature() == (6, 6)
    assert cover.genus() == 3


def test_translation_cover_of_x(X):
    cover = minimal_translation_cover(X)
    assert cover.n == 24
    assert connected_components(cover) == 1
    assert cover.singularity_signature() == (6,) * 8


def test_cover_of_translation_surface_splits():
    # A square torus has no flip edges: the cover is two disjoint copies.
    glue = {
        (0, L): (0, R, False), (0, R): (0, L, False),
        (0, B): (0, T, False), (0, T): (0, B, False),
    }
    torus = Surface(name="torus", glue=glue)
    torus.validate()
    cover = minimal_translation_cover(torus)
    assert cover.n == 2
    assert connected_components(cover) == 2


# ---------------------------------------------------------------------------
# Homology of the 4-square quotient
# ---------------------------------------------------------------------------

def test_basis_coordinates(Y):
    # sigma is the marked curve; eta the core of the area-1 (1,1) cylinder,
    # oriented so that its signed crossing count over sigma is +1.
    assert homology_coordinates(Y, Y.marked_curves["gamma0"]) == (1, 0)
    (core,) = [c for c in cylinder_decomposition(Y, (1, 1)).cylinders if c.area == 1]
    eta = core.core_chain
    if gamma0_intersection(Y, eta) == -1:
        eta = reverse_chain(eta)
    assert homology_coordinates(Y, eta) == (0, 1)
    assert homology_coordinates(Y, reverse_chain(eta)) == (0, -1)


def test_gamma0_is_a_closed_trace_read_in_integers(monkeypatch):
    # A fresh Y, whose marked curve no other test has read.  The horizontal
    # trace from square 0's center is read by classify_y and by the eta
    # cochain's derivation through its integer views only.
    Y = build_y.__wrapped__()
    gamma0 = Y.marked_curves["gamma0"]
    assert isinstance(gamma0, SurfaceTrace) and gamma0.closed
    assert gamma0.direction in ((1, 0), (-1, 0))
    half = gamma0.scale // 2
    assert gamma0.scaled_segments[0][:3] == (0, half, half)
    monkeypatch.setattr(classify, "build_y", lambda: Y)
    for p in range(21):
        for q in range(p + 1):
            if gcd(p, q) == 1:
                classify.classify_y((p, q))
    t = trace_surface(Y, SurfacePoint(0, Fraction(1, 2), Fraction(1, 3)), (2, 3))
    assert homology_coordinates(Y, t) == (1, -4)
    assert "eta_weights" in Y._cache
    assert "segments" not in vars(gamma0) and "crossings" not in vars(gamma0)


def test_gamma0_has_arc_length_four(Y):
    assert Y.marked_curves["gamma0"].arc_length == SqrtLength.of(4)


def test_two_one_core_class(Y):
    deco = cylinder_decomposition(Y, (2, 1))
    coords = sorted(
        homology_coordinates(Y, c.core_chain) for c in deco.cylinders
    )
    assert (1, 2) in coords or (-1, -2) in coords


def test_homology_requires_closed(Y):
    t = trace_surface(Y, SurfacePoint(0, Fraction(1, 2), Fraction(1, 2)), (1, 1))
    assert not t.closed
    with pytest.raises(ValueError):
        homology_coordinates(Y, t)


def test_gamma0_parallel_curve(Y):
    t = trace_surface(Y, SurfacePoint(0, Fraction(1, 2), Fraction(1, 2)), (1, 0))
    assert t.closed
    assert gamma0_intersection(Y, t) == 0
    assert len({seg[0] for seg in t.segments}) == 4


def test_i_equals_abc(X, Y):
    center = SurfacePoint(0, Fraction(1, 2), Fraction(1, 2))
    checked = 0
    for p in range(1, 12):
        for q in range(0, 12):
            if gcd(p, q) != 1 or (p % 2 and q % 2):
                continue
            tx = trace_surface(X, center, (p, q))
            ty = trace_surface(Y, center, (p, q))
            assert tx.closed and ty.closed
            assert gamma0_intersection(Y, ty) == sum(tx.displacement)
            checked += 1
    assert checked > 30


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_golden_surfaces(X, Y):
    with open(os.path.join(FIXTURES, "surface_x.txt")) as fh:
        assert X.to_text() == fh.read()
    with open(os.path.join(FIXTURES, "surface_y.txt")) as fh:
        assert Y.to_text() == fh.read()


def test_roundtrip(X, Y):
    for surf in (X, Y):
        clone = Surface.from_text(surf.to_text())
        assert clone.glue == surf.glue
        assert (clone.cocycle or None) == (surf.cocycle or None)
        clone.validate()
        assert clone.genus() == surf.genus()
        assert clone.singularity_signature() == surf.singularity_signature()


def test_a_filled_cache_keeps_equal_surfaces_equal(X):
    # What a surface caches is derived from its gluings, so two copies stay
    # equal after one of them has filled its cache.
    a, b = Surface.from_text(X.to_text()), Surface.from_text(X.to_text())
    assert a == b
    a.genus()
    trace_surface(a, SurfacePoint(0, Fraction(1, 2), Fraction(1, 2)), (2, 1))
    cylinder_decomposition(a, (2, 1))
    assert a._cache and not b._cache
    assert a == b


def test_gluing_side_type_rule(X, Y):
    for surf in (X, Y):
        for (sq, side), (sq2, side2, flip) in surf.glue.items():
            assert side2 == (side if flip else OPPOSITE[side])
