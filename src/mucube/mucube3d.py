"""The triply periodic half-translation surface in R^3: faces, symmetries, flow.

Coordinate conventions used throughout the package:

* Face centers, cone points and edge midpoints have half-integer coordinates,
  so we store points *doubled* (``center2x``) to keep everything integral.
* A face is a closed unit square parallel to a coordinate plane.  Its normal
  axis is 0, 1 or 2 (x, y, z); the doubled center has an odd coordinate along
  the axis and even coordinates elsewhere.
* The surface is the set of points whose three coordinate-plane shadows all
  lie in the closed checkerboard

      C = closure{ (u, v) : floor(u - 1/2), floor(v - 1/2) of opposite parity }.

  ``face_patch_in_surface`` tests a candidate square directly against this
  definition by point sampling; ``is_face`` is the derived integer predicate.
  The two are checked against each other on a window in the test suite.
* A direction is a primitive integer pair (p, q) read in the chart of a face:
  the corresponding "slope" is q/p.  Directions are traced with exact integer
  arithmetic; no floating point enters any decision.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import floor, gcd
from typing import Optional, Sequence

from .exact import SqrtLength

AXES = (0, 1, 2)
# The two in-plane axes of a face with the given normal axis.
IN_PLANE = ((1, 2), (0, 2), (0, 1))

IntTriple = tuple[int, int, int]


class ConePointStart(ValueError):
    """Raised when a trace is started on a cone point or an edge."""


class InternalGeometryError(RuntimeError):
    """A structural invariant of the 3D model failed; indicates a bug."""


# ---------------------------------------------------------------------------
# The point-set definition and the face predicate
# ---------------------------------------------------------------------------

def _tiles(u: Fraction) -> list[int]:
    """Integers a with a + 1/2 <= u <= a + 3/2 (one or two of them)."""
    lo = u - Fraction(3, 2)
    hi = u - Fraction(1, 2)
    first = lo.numerator // lo.denominator  # floor
    if first < lo:
        first += 1
    out = []
    a = first
    while a <= hi:
        out.append(a)
        a += 1
    return out


def in_checkerboard(u: Fraction, v: Fraction) -> bool:
    """Membership in the *closed* checkerboard C (tile corners at Z+1/2)."""
    for a in _tiles(Fraction(u)):
        for b in _tiles(Fraction(v)):
            if (a + b) % 2:
                return True
    return False


def point_in_surface(p: Sequence[Fraction]) -> bool:
    x, y, z = (Fraction(c) for c in p)
    return in_checkerboard(x, y) and in_checkerboard(x, z) and in_checkerboard(y, z)


@dataclass(frozen=True, order=True)
class Face:
    """A unit square of the surface: doubled center plus normal axis."""

    center2x: IntTriple
    axis: int

    def in_plane_axes(self) -> tuple[int, int]:
        return IN_PLANE[self.axis]


def is_face(center2x: Sequence[int], axis: int) -> bool:
    """Derived predicate: does the candidate square belong to the surface?

    Characterization (validated against ``face_patch_in_surface``): the axis
    coordinate is a half-integer and the two in-plane center coordinates are
    integers of opposite parity.
    """
    c = tuple(center2x)
    if c[axis] % 2 == 0:
        return False
    i, j = IN_PLANE[axis]
    if c[i] % 2 or c[j] % 2:
        return False
    return (c[i] // 2 + c[j] // 2) % 2 != 0


def face_patch_in_surface(center2x: Sequence[int], axis: int, grid: int = 5) -> bool:
    """Point-sampling oracle: test a grid of interior points of the candidate
    square directly against the three checkerboard shadow conditions."""
    c = [Fraction(v, 2) for v in center2x]
    i, j = IN_PLANE[axis]
    for a in range(grid):
        for b in range(grid):
            p = list(c)
            p[i] = c[i] + Fraction(2 * a - (grid - 1), 2 * grid + 2)
            p[j] = c[j] + Fraction(2 * b - (grid - 1), 2 * grid + 2)
            if not point_in_surface(p):
                return False
    return True


def faces_in_box(lo: Sequence[int], hi: Sequence[int]) -> frozenset[Face]:
    """All faces whose center lies in the half-open box [lo, hi).

    Box corners are integers.  Any 2x2x2 box contains exactly 12 faces.
    """
    lo = tuple(lo)
    hi = tuple(hi)
    if any(l >= h for l, h in zip(lo, hi)):
        return frozenset()
    out = []
    for axis in AXES:
        i, j = IN_PLANE[axis]
        ax_vals = [v for v in range(2 * lo[axis], 2 * hi[axis]) if v % 2]
        i_vals = [2 * v for v in range(lo[i], hi[i])]
        j_vals = [2 * v for v in range(lo[j], hi[j])]
        for av in ax_vals:
            for iv in i_vals:
                for jv in j_vals:
                    c = [0, 0, 0]
                    c[axis], c[i], c[j] = av, iv, jv
                    if is_face(c, axis):
                        out.append(Face(tuple(c), axis))
    return frozenset(out)


def incident_faces(corner2x: Sequence[int]) -> frozenset[Face]:
    """Faces having the given doubled point (all coordinates odd) as a corner."""
    c = tuple(corner2x)
    if any(v % 2 == 0 for v in c):
        return frozenset()
    out = []
    for axis in AXES:
        i, j = IN_PLANE[axis]
        for di in (-1, 1):
            for dj in (-1, 1):
                cand = [0, 0, 0]
                cand[axis] = c[axis]
                cand[i] = c[i] + di
                cand[j] = c[j] + dj
                if is_face(cand, axis):
                    out.append(Face(tuple(cand), axis))
    return frozenset(out)


def cone_points_in_box(lo: Sequence[int], hi: Sequence[int]) -> frozenset[IntTriple]:
    """Doubled coordinates of the cone points in the half-open box [lo, hi).

    Every corner of the tiling is a cone point where six faces meet; the
    six-face incidence is re-verified here rather than assumed.
    """
    lo = tuple(lo)
    hi = tuple(hi)
    pts = []
    ranges = [[v for v in range(2 * lo[k], 2 * hi[k]) if v % 2] for k in AXES]
    for c in itertools.product(*ranges):
        n = len(incident_faces(c))
        if n == 6:
            pts.append(c)
        elif n > 0:
            raise InternalGeometryError(f"corner {c} has {n} incident faces")
    return frozenset(pts)


# ---------------------------------------------------------------------------
# Rigid motions: the semidirect product of Z^3 with the octahedral group
# ---------------------------------------------------------------------------

Mat3 = tuple[IntTriple, IntTriple, IntTriple]

IDENTITY_ROT: Mat3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# Quarter turns about the coordinate axes and the coordinate 3-cycle.
QUARTER_X: Mat3 = ((1, 0, 0), (0, 0, -1), (0, 1, 0))
QUARTER_Y: Mat3 = ((0, 0, -1), (0, 1, 0), (1, 0, 0))
QUARTER_Z: Mat3 = ((0, -1, 0), (1, 0, 0), (0, 0, 1))
ROT3_XYZ: Mat3 = ((0, 0, 1), (1, 0, 0), (0, 1, 0))  # (x,y,z) -> (z,x,y)


def mat_mul(a: Mat3, b: Mat3) -> Mat3:
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in AXES) for c in AXES) for r in AXES
    )  # type: ignore[return-value]


def mat_vec(a: Mat3, v: Sequence) -> tuple:
    return tuple(sum(a[r][k] * v[k] for k in AXES) for r in AXES)


def mat_transpose(a: Mat3) -> Mat3:
    return tuple(tuple(a[c][r] for c in AXES) for r in AXES)  # type: ignore[return-value]


def _det3(a: Mat3) -> int:
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def is_signed_permutation(a: Mat3) -> bool:
    for row in a:
        if sorted(abs(v) for v in row) != [0, 0, 1]:
            return False
    for c in AXES:
        if sorted(abs(a[r][c]) for r in AXES) != [0, 0, 1]:
            return False
    return True


def rotation_group() -> list[Mat3]:
    """The 24 orientation-preserving symmetries of the cube."""
    gens = [QUARTER_X, QUARTER_Y, QUARTER_Z]
    seen = {IDENTITY_ROT}
    frontier = [IDENTITY_ROT]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(g, m)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    assert len(seen) == 24
    return sorted(seen)


QUARTER_TURNS: tuple[Mat3, ...] = tuple(
    m for m in rotation_group()
    if mat_mul(m, m) != IDENTITY_ROT and mat_mul(mat_mul(m, m), mat_mul(m, m)) == IDENTITY_ROT
)  # the six order-4 rotations


@dataclass(frozen=True)
class RigidMotion:
    """x -> rotation . x + 2 * translation  (an element of Z^3 x| O)."""

    rotation: Mat3
    translation: IntTriple = (0, 0, 0)

    def __post_init__(self):
        if not is_signed_permutation(self.rotation) or _det3(self.rotation) != 1:
            raise ValueError("rotation must be a signed permutation matrix of det +1")

    def compose(self, other: "RigidMotion") -> "RigidMotion":
        # (t1, r1) . (t2, r2) = (t1 + r1 t2, r1 r2)
        t = tuple(
            self.translation[k] + mat_vec(self.rotation, other.translation)[k]
            for k in AXES
        )
        return RigidMotion(mat_mul(self.rotation, other.rotation), t)  # type: ignore[arg-type]

    def inverse(self) -> "RigidMotion":
        rinv = mat_transpose(self.rotation)
        t = mat_vec(rinv, [-v for v in self.translation])
        return RigidMotion(rinv, tuple(t))  # type: ignore[arg-type]

    def apply_doubled(self, p2x: Sequence[int]) -> IntTriple:
        img = mat_vec(self.rotation, p2x)
        return tuple(img[k] + 4 * self.translation[k] for k in AXES)  # type: ignore[return-value]

    def apply_face(self, f: Face) -> Face:
        c = self.apply_doubled(f.center2x)
        axis_img = mat_vec(self.rotation, _axis_vec(f.axis))
        new_axis = next(k for k in AXES if axis_img[k] != 0)
        out = Face(c, new_axis)
        if not is_face(out.center2x, out.axis):
            raise InternalGeometryError(f"motion maps face {f} off the surface")
        return out

    def order(self) -> Optional[int]:
        """The motion's order, or None when it is infinite.

        The rotation has order k <= 4, so the k-th power is a translation.
        The motion has order k when that translation is zero; otherwise the
        powers m k are nonzero translations and the others rotate, so no
        power is the identity.
        """
        acc, k = self, 1
        while acc.rotation != IDENTITY_ROT:
            acc, k = acc.compose(self), k + 1
        return k if acc.translation == (0, 0, 0) else None


def _axis_vec(axis: int) -> IntTriple:
    v = [0, 0, 0]
    v[axis] = 1
    return tuple(v)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Charts and points on faces
# ---------------------------------------------------------------------------

def outward_sign(face: Face) -> int:
    """Sign of the outward normal along the face axis.

    The complement of the surface has two congruent labyrinth components;
    cells (unit cubes of the half-integer grid, centered at integer points)
    with at most one odd center coordinate form the component of the origin,
    which is taken to be the outside.  This fixes the orientation of every
    chart and hence all intersection signs.
    """
    for s in (1, -1):
        cell = list(face.center2x)
        cell[face.axis] += s
        odd = sum(1 for k in AXES if (cell[k] // 2) % 2)
        if odd <= 1:
            return s
    raise InternalGeometryError(f"no outward side at {face}")


def _cross(u: Sequence[int], v: Sequence[int]) -> IntTriple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


Chart = tuple[IntTriple, IntTriple]  # (u, v): ambient unit vectors


def default_chart(face: Face) -> Chart:
    """Right-handed chart with u along the smaller in-plane axis."""
    i, j = face.in_plane_axes()
    u = _axis_vec(i)
    v = _axis_vec(j)
    normal = tuple(outward_sign(face) * c for c in _axis_vec(face.axis))
    if _cross(u, v) != normal:
        v = tuple(-c for c in v)  # type: ignore[assignment]
    return (u, v)


def chart_is_valid(face: Face, chart: Chart) -> bool:
    u, v = chart
    i, j = face.in_plane_axes()
    if sorted((max(range(3), key=lambda k: abs(u[k])), max(range(3), key=lambda k: abs(v[k])))) != sorted((i, j)):
        return False
    normal = tuple(outward_sign(face) * c for c in _axis_vec(face.axis))
    return _cross(u, v) == normal


@dataclass(frozen=True)
class Point3:
    """A point on a face, in one of its four right-handed charts."""

    face: Face
    chart: Chart
    u: Fraction
    v: Fraction

    def __post_init__(self):
        if not chart_is_valid(self.face, self.chart):
            raise ValueError("chart is not a right-handed chart of this face")
        if not (0 <= self.u <= 1 and 0 <= self.v <= 1):
            raise ValueError("chart coordinates must lie in [0, 1]")

    def corner(self) -> tuple[Fraction, Fraction, Fraction]:
        cu, cv = self.chart
        return tuple(
            Fraction(self.face.center2x[k], 2) - Fraction(cu[k], 2) - Fraction(cv[k], 2)
            for k in AXES
        )  # type: ignore[return-value]

    def ambient(self) -> tuple[Fraction, Fraction, Fraction]:
        c = self.corner()
        cu, cv = self.chart
        return tuple(c[k] + self.u * cu[k] + self.v * cv[k] for k in AXES)  # type: ignore[return-value]

    @classmethod
    def face_center(cls, face: Face, chart: Optional[Chart] = None) -> "Point3":
        return cls(face, chart or default_chart(face), Fraction(1, 2), Fraction(1, 2))


# The seed face and chart shared by the tracer and the quotient surfaces.
SEED_FACE = Face((0, 2, 1), 2)
SEED_CHART: Chart = default_chart(SEED_FACE)  # u = +x, v = -y


# ---------------------------------------------------------------------------
# Exact tracing
# ---------------------------------------------------------------------------

@dataclass
class Trajectory3D:
    """Polygonal trajectory of the straight-line flow, embedded in R^3."""

    direction: tuple[int, int]
    closed: bool
    drift_vector: Optional[IntTriple]
    s_total: Fraction  # arc length is s_total * sqrt(p^2 + q^2)
    stop_reason: str  # closed | drift | cone_point | arc_bound
    cone_point: Optional[tuple[Fraction, Fraction, Fraction]] = None
    # The first pass at each face center: doubled center, direction vector.
    center_visits: list[tuple[IntTriple, IntTriple]] = field(default_factory=list)
    crossings: int = 0
    # What the trace walked, which the views below fold again on first use:
    # the start's doubled face center, chart frame (see ``_fold``) and chart
    # position (in units of 1/scale), the scale and the cutting word.
    walk: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def arc_length(self) -> SqrtLength:
        p, q = self.direction
        return SqrtLength.of(self.s_total, p * p + q * q)

    def _frames(self):
        """The doubled face center and chart frame at the start and after each crossing."""
        c0, frame, *_, kinds = self.walk
        c = list(c0)
        yield c0, frame
        for g in range(self.crossings):
            frame = _fold([kinds[g % len(kinds)]], c, frame, *self.direction, [])
            yield tuple(c), frame

    @cached_property
    def vertices(self) -> list[tuple[Fraction, Fraction, Fraction]]:
        """The start, each crossing and the stop; one period if closed or drifting."""
        _, _, u0, v0, sc, times, kinds = self.walk
        (p, q), half = self.direction, sc // 2
        # The point where crossing g enters its face, in that face's chart.
        entries = [
            (0 if p > 0 else sc, (v0 + q * t) % sc) if kind else ((u0 + p * t) % sc, 0 if q > 0 else sc)
            for t, kind in zip(times, kinds)
        ]
        scaled = []
        for g, (cc, (_, au, su, av, sv)) in enumerate(self._frames()):
            eu, ev = entries[(g - 1) % len(times)] if g else (u0, v0)
            v = [ck * half for ck in cc]
            v[au] += (eu - half) * su
            v[av] += (ev - half) * sv
            scaled.append(tuple(v))
        if self.stop_reason in ("closed", "drift"):
            # Trim to one period: from the start point back to its image.
            shift = self.drift_vector or (0, 0, 0)
            scaled[self.crossings:] = [tuple(x + 2 * sc * t for x, t in zip(scaled[0], shift))]
        vertices = [tuple(Fraction(x, sc) for x in v) for v in scaled]
        if self.cone_point is not None:
            vertices.append(self.cone_point)
        return vertices

    @cached_property
    def face_path(self) -> list[Face]:
        """The start's face and the face entered at each crossing."""
        return [Face(cc, frame[0]) for cc, frame in self._frames()]


def _next_face(face_c2x: IntTriple, axis: int, wall_axis: int, wall2x: int) -> tuple[IntTriple, int]:
    """The face on the other side of an edge, in raw tuple form."""
    for da in (1, -1):
        cand = list(face_c2x)
        cand[wall_axis] = wall2x
        cand[axis] = face_c2x[axis] + da
        if is_face(cand, wall_axis):
            return tuple(cand), wall_axis  # type: ignore[return-value]
    raise InternalGeometryError(
        f"no face across edge of {face_c2x}/{axis} at axis {wall_axis}={wall2x}"
    )


def _wall_steps(sc: int, z: int, d: int) -> range:
    """Step counts in (0, sc] at which a chart coordinate that starts at
    ``z`` and moves by ``d`` per step lies on a wall (a multiple of sc)."""
    if not d:
        return range(0)
    first, rem = divmod(sc - z if d > 0 else z, abs(d))
    if rem:
        raise InternalGeometryError("non-integral step; scaling invariant broken")
    return range(first, first + sc, sc // abs(d))


def _crossing_word(sc: int, u0: int, v0: int, p: int, q: int):
    """The walls the leaf from chart point ``(u0, v0)`` (units of ``1/sc``)
    in chart direction (p, q) crosses in one unit of s, 0 < t <= sc.

    Returns ``(times, kinds, corner)``: per crossing in order its step
    count, and 1 for a wall u = const or 0 for a wall v = const.  A step
    count shared by both families is a corner: ``corner`` is the first one,
    and the lists stop before it; otherwise ``corner`` is None.
    """
    u_walls, v_walls = _wall_steps(sc, u0, p), _wall_steps(sc, v0, q)
    on_u = set(u_walls)
    ties = on_u.intersection(v_walls)
    corner = min(ties) if ties else None
    times = sorted([*u_walls, *v_walls])
    if corner is not None:
        times = times[: bisect_left(times, corner)]
    return times, [1 if t in on_u else 0 for t in times], corner


def _center_time(sc: int, u0: int, v0: int, p: int, q: int) -> Optional[int]:
    """The step count in [0, sc) at which the leaf passes a face center, or
    None if it never does.

    The leaf passes the center (1/2 + a, 1/2 + b) of the developed square
    (a, b) when u0 + p t = (1/2 + a) sc and v0 + q t = (1/2 + b) sc, which
    needs a q - b p = K = (q (u0 - sc/2) - p (v0 - sc/2)) / sc, an integer.
    Then a = K q^-1 mod |p|, and the solutions for a differ by whole units.
    """
    half = sc // 2
    k, rem = divmod(q * (u0 - half) - p * (v0 - half), sc)
    if rem:
        return None
    if p == 0:
        return (half - v0) // q % sc
    a = k * pow(q, -1, abs(p)) % abs(p)
    return (half - u0 + a * sc) // p % sc


def _fold(codes, c, frame, p, q, visits):
    """Walk the letters ``codes`` from the chart frame ``frame``, folding the
    face center ``c`` (in place) and the frame across each wall; returns the
    new frame.

    ``frame`` is ``(axis, au, su, av, sv)``: the face's normal axis and the
    chart's u = su e_au and v = sv e_av.  Code 1 crosses a wall u = const,
    on axis au: the center steps by sign(p) su along au and by the turn
    ``da`` along the old normal, which becomes the chart's u axis with sign
    da sign(p), since the direction keeps its length.  Code 0 does the same
    for v.  Code 2 records a pass of the face center in ``visits``.

    The turn in closed form: the new face has normal w, the wall's axis, and
    in-plane axes ``axis`` and o, the in-plane axis that is not w.  Its
    doubled center keeps c[o] and has c[axis] + da, both even, so by
    ``is_face`` it needs (c[axis] + da)/2 + c[o]/2 odd.  As c[axis] is odd,
    exactly one da = +-1 does that, and da = +1 when c[axis] + c[o] + 1 is
    2 mod 4: da = ((c[axis] + c[o] + 1) & 2) - 1.
    """
    axis, au, su, av, sv = frame
    sp, sq = (1 if p > 0 else -1), (1 if q > 0 else -1)
    for code in codes:
        if code == 1:
            da = ((c[axis] + c[av] + 1) & 2) - 1
            c[au] += sp * su
            c[axis] += da
            axis, au, su = au, axis, da * sp
        elif code == 0:
            da = ((c[axis] + c[au] + 1) & 2) - 1
            c[av] += sq * sv
            c[axis] += da
            axis, av, sv = av, axis, da * sq
        else:
            d = [0, 0, 0]
            d[au], d[av] = p * su, q * sv
            visits.append((tuple(c), tuple(d)))
    return axis, au, su, av, sv


def trace3d(
    start: Point3,
    direction: tuple[int, int],
    max_arc_s: Optional[Fraction] = None,
) -> Trajectory3D:
    """Trace the straight-line flow from ``start`` in chart direction (p, q).

    ``max_arc_s`` bounds the *unfolded parameter* s (arc length divided by
    sqrt(p^2+q^2)), checked at edge crossings only: the trace stops at the
    first edge crossing past the bound, so its last segment can overshoot
    it.  A closure exactly at the bound is still found, since closure is
    tested at that first crossing past it.
    Stops at closure (same point, same direction), at a drift revisit (same
    point up to a translation in (2Z)^3, same direction), at a cone point, or
    at the arc bound.  A leaf that does none of these within 24 units of its
    first crossing breaks the lemma below and raises InternalGeometryError.

    The walk reads the direction's cutting word.  Every edge of the surface
    is a fold of the plane, so the flow, developed into the start's chart,
    is the line of slope q/p, and in one unit of s it crosses |p| walls
    u = const and |q| walls v = const in an order fixed by (p, q) and the
    start (``_crossing_word``, built once per trace); a tie is a corner, a
    stop like the arc bound.  The state is the doubled face center and the
    chart frame (cu, cv), folded in one loop with the closed-form turn at
    each letter (``_fold``); positions come from the word.

    Lemma: a post-crossing state repeats, exactly or up to (2Z)^3, only after
    a whole number of units.  Proof: two such crossings are the same point
    of the quotient by (2Z)^3 with the same direction.  The leaf between them
    develops into the plane from a point z to g(z), where g, the holonomy of
    the developing map, is z -> +-z + v with v in Z^2; the direction is the
    same at both ends, so g is the translation by v, and v lies on the line:
    v = lam (p, q), with lam an integer as gcd(p, q) = 1.  lam is the number
    of units between the crossings.  So closure and drift are tested once
    per unit, at the anchor's letter (the first crossing), where equal frames
    mean equal position and direction.  The arc bound is per crossing, from
    the word's step counts, and a pass of a face center is read from the word
    too (``_center_time``); from a face center it is every unit boundary.

    Lemma: the trace closes or drifts within 24 units of the anchor, unless
    it meets a corner in its first unit; that is, within 24(|p| + |q|) + 1
    crossings.  Proof: the 12-square quotient X is the quotient of the
    surface by the even translations (2Z)^3, and a face's direction vector in
    space fixes its sheet of X (square and orientation).  So a drift revisit
    or a closure here is exactly a closure on X.  A leaf of X crosses
    |p| + |q| walls per unit, and one unit permutes X's 24 sheets for a fixed
    position, so the leaf meets a corner in its first unit or closes within
    24 units (the lemma of the ``flow`` module).  On all primitive
    |p|, |q| <= 40, from ``seed_start``, from (1/3, 2/7) and on X, no trace
    used more than 4(|p| + |q|) + 1 crossings.
    """
    p, q = direction
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError("direction must be primitive")
    if not (0 < start.u < 1 and 0 < start.v < 1):
        raise ConePointStart("start must lie in the open face (edges are rejected)")

    den = (start.u.denominator * start.v.denominator) // gcd(
        start.u.denominator, start.v.denominator
    )
    sc = 2 * den * max(abs(p), 1) * max(abs(q), 1)
    half = sc // 2

    cu, cv = start.chart
    u0 = start.u.numerator * (sc // start.u.denominator)
    v0 = start.v.numerator * (sc // start.v.denominator)
    times, kinds, corner = _crossing_word(sc, u0, v0, p, q)
    n = len(times)

    # The crossing count the trace stops at unless it closes or drifts first:
    # the first crossing past the arc bound, the corner's, or the lemma's last.
    stop, reason = 24 * n + 1, None
    if max_arc_s is not None:
        # s_scaled > max_arc_s * sc exactly when s_scaled > its floor.
        bound = floor(Fraction(max_arc_s) * sc)
        units = max(bound, 0) // sc
        first = units * n + bisect_right(times, bound - units * sc)
        if first < stop:
            stop, reason = first + 1, "arc_bound"
    if corner is not None and n < stop:
        # The corner lies in the first unit, before any closure.
        stop, reason = n, "cone_point"

    t_c = _center_time(sc, u0, v0, p, q)
    at = None if t_c is None or corner is not None and t_c > corner else bisect_right(times, t_c)

    c = list(start.face.center2x)
    au = next(k for k in AXES if cu[k])
    av = next(k for k in AXES if cv[k])
    start_frame = frame = (start.face.axis, au, cu[au], av, cv[av])
    visits: list[tuple[IntTriple, IntTriple]] = []
    drift = None
    count = min(1, stop)
    frame = _fold([2] * (at == 0) + kinds[:count], c, frame, p, q, visits)
    anchor_c, anchor_frame = c[:], frame
    # Letters 1 .. n-1, then the next unit's letter 0, the anchor's letter; a
    # center pass in segment ``at`` comes before block position (at - 1) mod
    # n, and counts once crossing ``at`` is made, or at == n at the corner.
    # A block runs even when empty, for that pass right after the anchor.
    unit = kinds[1:] + kinds[:1]
    mark = None if at is None or not n else (at - 1) % n
    marked = unit if mark is None else unit[:mark] + [2] + unit[mark:]
    at_corner = at == n and reason == "cone_point"
    while True:
        take = min(n, stop - count)
        codes = marked[: take + (at_corner or mark is not None and mark < take)]
        frame = _fold(codes, c, frame, p, q, visits)
        count += take
        if 0 < take == n and frame == anchor_frame:
            diff = [c[k] - anchor_c[k] for k in AXES]
            if not any(diff):
                reason = "closed"
                break
            if all(v % 4 == 0 for v in diff):
                reason, drift = "drift", tuple(v // 4 for v in diff)
                break
        if count == stop:
            break
    if reason is None:
        raise InternalGeometryError(
            f"leaf in direction {(p, q)} did not close or drift within 24 units"
        )
    cone = None
    if reason == "cone_point":
        s_scaled = corner
        axis, au, su, av, sv = frame
        cone = [ck * half for ck in c]
        cone[au] += (half if p > 0 else -half) * su
        cone[av] += (half if q > 0 else -half) * sv
        cone = tuple(Fraction(x, sc) for x in cone)
    else:
        s_scaled = (count - 1) // n * sc
        if reason == "arc_bound":
            s_scaled += times[(count - 1) % n]
    # The first direction seen at each center, in the order of first passes.
    first_pass = {}
    for cc, dvec in visits:
        first_pass.setdefault(cc, dvec)
    return Trajectory3D(
        direction=tuple(direction),
        closed=reason == "closed",
        drift_vector=drift,
        s_total=Fraction(s_scaled, sc),
        stop_reason=reason,
        cone_point=cone,
        center_visits=list(first_pass.items()),
        crossings=count,
        walk=(start.face.center2x, start_frame, u0, v0, sc, times, kinds),
    )


# ---------------------------------------------------------------------------
# Derived trajectory quantities
# ---------------------------------------------------------------------------

def trajectory_diameter(traj: Trajectory3D) -> Fraction:
    """Sup-norm diameter of a closed trajectory (max coordinate extent)."""
    if not traj.closed:
        raise ValueError("diameter is defined for closed trajectories only")
    return polyline_diameter(traj.vertices)


def polyline_diameter(vertices: Sequence[Sequence[Fraction]]) -> Fraction:
    if not vertices:
        return Fraction(0)
    return max(
        max(v[k] for v in vertices) - min(v[k] for v in vertices) for k in AXES
    )


# Lines of odd/odd slope through a square center run into corners; for
# those the oracle starts at an exactly safe interior point instead.
_SEED_CENTER = Point3.face_center(SEED_FACE, SEED_CHART)
_SEED_ODD_ODD = Point3(SEED_FACE, SEED_CHART, Fraction(1, 2), Fraction(1, 3))


def seed_start(p: int, q: int) -> Point3:
    """Start point of the oracle's trace in direction (p, q) on the seed face."""
    return _SEED_ODD_ODD if p % 2 and q % 2 else _SEED_CENTER


def drift_vector(direction: tuple[int, int]) -> IntTriple:
    """The half-translation (in Z^3) that shifts the maximal strip of a
    drift-periodic direction onto itself.  Errors on periodic directions."""
    traj = trace3d(seed_start(*direction), direction)
    if traj.stop_reason == "closed":
        raise PeriodicDirectionError(f"direction {direction} is periodic")
    if traj.stop_reason != "drift":
        raise InternalGeometryError(
            f"drift trace for {direction} stopped with {traj.stop_reason}"
        )
    return traj.drift_vector  # type: ignore[return-value]


class PeriodicDirectionError(ValueError):
    """drift_vector was called on a periodic direction."""


def find_quarter_symmetry(traj: Trajectory3D) -> Optional[RigidMotion]:
    """An order-4 rigid motion cycling the four face centers of a closed core
    trajectory by a quarter period, or None if no certificate exists.

    The search runs on doubled centers, where g is c -> R c + 4 t.  A motion
    that cycles c0 -> c1 -> c2 -> c3 -> c0 has order exactly 4: g^4 is a
    translation (R^4 = 1 for a quarter turn R) fixing c0, so the identity,
    and g^2 moves c0 to c2, another center, as the four are distinct.
    """
    if not traj.closed or len(traj.center_visits) != 4:
        return None
    centers = [c for c, _ in traj.center_visits]
    dirs = [d for _, d in traj.center_visits]
    for rot in QUARTER_TURNS:
        img = mat_vec(rot, centers[0])
        t4 = [centers[1][k] - img[k] for k in AXES]
        if any(v % 4 for v in t4):
            continue
        if all(
            tuple(x + t for x, t in zip(mat_vec(rot, centers[m]), t4)) == centers[(m + 1) % 4]
            and mat_vec(rot, dirs[m]) == dirs[(m + 1) % 4]
            for m in range(4)
        ):
            return RigidMotion(rot, tuple(v // 4 for v in t4))
    return None


# ---------------------------------------------------------------------------
# The twist operation on slopes and the exact length of twisted trajectories
# ---------------------------------------------------------------------------

INFINITE_SLOPE = None  # slope of a direction parallel to the twisting axis "vertical"

Slope = Optional[Fraction]  # None encodes the infinite slope


def twist_slope(s: Slope, axis: str, k: int) -> Slope:
    """Slope of the k-fold twist of a trajectory of slope ``s`` around the
    cylinders of the vertical or horizontal axis direction."""
    if axis not in ("vertical", "horizontal"):
        raise ValueError("axis must be 'vertical' or 'horizontal'")
    if k == 0:
        return s
    if axis == "vertical":
        if s is INFINITE_SLOPE:
            raise ValueError("slope is parallel to the vertical axis")
        return 4 * k + Fraction(s)
    if s == 0:
        raise ValueError("slope is parallel to the horizontal axis")
    inv = Fraction(0) if s is INFINITE_SLOPE else 1 / Fraction(s)
    denom = 4 * k + inv
    if denom == 0:
        return INFINITE_SLOPE
    return 1 / denom


def _as_sqrt(x) -> SqrtLength:
    return x if isinstance(x, SqrtLength) else SqrtLength.of(x)


def twist_length_prediction(
    len_v,
    wid_v,
    pair: tuple[tuple[int, int], tuple[int, int]],
    k: int,
    len_o,
) -> SqrtLength:
    """Exact length of the k-fold twist of a closed trajectory around the
    cylinders of a transverse periodic direction.

    ``pair`` is (direction of the twisting cylinders V, direction of the
    trajectory O); the sine and cotangent of the angle between them are
    handled through the integer components, so the result is an exact square
    root.  For k > 0 the twist is ``twist_slope``'s: O + 4kq (1, 0) turns as
    O + cross(V, O) V does, O + 4kp (0, 1) the other way, so the cotangent
    dot / cross changes sign for V = (0, 1).
    """
    (va, vb), (oa, ob) = pair
    cross = va * ob - vb * oa
    if cross == 0:
        raise ValueError("directions must be transverse")
    dot = va * oa + vb * ob
    nv = va * va + vb * vb
    no = oa * oa + ob * ob
    lv = _as_sqrt(len_v).multiplier_of_sqrt(nv)
    wv = _as_sqrt(wid_v).multiplier_of_sqrt(nv)
    lo = _as_sqrt(len_o).multiplier_of_sqrt(no)
    mu = k * lv + Fraction(dot, cross if va else -cross) * wv
    value_sq = Fraction(cross * cross) * lo * lo / (wv * wv) * (wv * wv + mu * mu) / nv
    return SqrtLength(value_sq)


def twist_length_ratio_sq(
    len_v, wid_v, pair, k: int, len_o
) -> Fraction:
    """(predicted length / asymptotic model)^2, an exact rational.

    The asymptotic model is k * sin(theta) * (len V / wid V) * len O; the
    ratio tends to 1 as k grows.
    """
    (va, vb), (oa, ob) = pair
    cross = va * ob - vb * oa
    dot = va * oa + vb * ob
    nv = va * va + vb * vb
    lv = _as_sqrt(len_v).multiplier_of_sqrt(nv)
    wv = _as_sqrt(wid_v).multiplier_of_sqrt(nv)
    mu = k * lv + Fraction(dot, cross if va else -cross) * wv
    return (wv * wv + mu * mu) / (k * k * lv * lv)
