"""Exact straight-line flow on finite square-tiled half-translation surfaces.

A surface here is anything with attributes ``n`` (number of unit squares),
``glue`` (a dict mapping (square, side) to (square', side', flip)) and
optionally ``cocycle`` (a dict mapping (square, side) to an integer triple,
added up whenever the flow exits through that side).

Sides are 0=L, 1=R, 2=B, 3=T in the chart [0,1]^2 of each square.  A gluing
without flip identifies a side with the opposite side of the partner square
by translation; a gluing with flip identifies it with the *same* side type by
a rotation by pi, which negates the direction of the flow.

All tracing is integer arithmetic: positions are scaled by an even integer
``sc`` chosen so that every crossing coordinate is integral.  One leaf
kernel, ``_leaf``, steps from wall to wall for both the surface tracer and
the cores of the cylinder decomposition.  The decomposition traces no
separatrix: in a primitive direction (p, q), the separatrices cut every
transversal edge at the multiples of 1/max(|p|, |q|), so its intervals are
known slots, and only one core leaf per cylinder is walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd
from typing import Optional, Sequence

from .exact import SqrtLength

L, R, B, T = 0, 1, 2, 3
SIDE_NAMES = ("L", "R", "B", "T")
OPPOSITE = (R, L, T, B)
VERTICAL_SIDES = (L, R)
HORIZONTAL_SIDES = (B, T)


class DegenerateIntersection(Exception):
    """A crossing count hit a segment endpoint or a collinear overlap."""


class FlowBudgetError(RuntimeError):
    """A leaf broke an invariant of the integer tracer or of the cylinder
    decomposition (a core leaf that hits a corner or revisits a slot, a
    crossing off the scale or on a cut)."""


@dataclass(frozen=True)
class SurfacePoint:
    square: int
    x: Fraction
    y: Fraction

    def __post_init__(self):
        if not (0 <= self.x <= 1 and 0 <= self.y <= 1):
            raise ValueError("chart coordinates must lie in [0, 1]")


Segment = tuple[int, Fraction, Fraction, Fraction, Fraction]  # sq, x0, y0, x1, y1


def _fraction_segments(scaled, sc: int) -> list[Segment]:
    """Exact segments from integer ones in units of 1/sc."""
    return [
        (sq, Fraction(x0, sc), Fraction(y0, sc), Fraction(x1, sc), Fraction(y1, sc))
        for sq, x0, y0, x1, y1 in scaled
    ]


@dataclass
class SurfaceTrace:
    direction: tuple[int, int]
    closed: bool
    stop_reason: str  # closed | cone_point | crossing_budget
    s_total: Fraction
    displacement: tuple[int, int, int]
    # Arc parameters and chart coordinates of the lists below are integers in
    # units of 1/scale; each list covers one period if closed.
    scale: int
    scaled_crossings: list[tuple[int, int, int]]  # (s, square, side) exited
    scaled_segments: list[tuple[int, int, int, int, int]]
    cone_point: Optional[SurfacePoint] = None

    @property
    def arc_length(self) -> SqrtLength:
        p, q = self.direction
        return SqrtLength.of(self.s_total, p * p + q * q)

    @cached_property
    def crossings(self) -> list[tuple[Fraction, int, int]]:
        sc = self.scale
        return [(Fraction(s, sc), sq, side) for s, sq, side in self.scaled_crossings]

    @cached_property
    def segments(self) -> list[Segment]:
        return _fraction_segments(self.scaled_segments, self.scale)


def _leaf(glue, sc: int, sq: int, x: int, y: int, dx: int, dy: int):
    """Wall-to-wall segments of the leaf from ``(x, y)`` in square ``sq``.

    Coordinates are integers in units of ``1/sc``.  Yields
    ``(sq, x, y, dx, dy, t, nx, ny, side)`` per segment: its square, start
    point and direction, its length ``t`` in steps of ``(dx, dy)``, its end
    point, and the side it exits through, after which the leaf continues
    across the glued edge.  The last segment yielded ends at a corner, with
    ``side`` None.
    """
    # A flip changes only the signs of dx and dy.
    adx, ady = abs(dx), abs(dy)
    while True:
        t = None
        if dx:
            t, rem = divmod(sc - x if dx > 0 else x, adx)
            side = R if dx > 0 else L
            if rem:
                raise FlowBudgetError("non-integral step; scaling invariant broken")
        if dy:
            ty, rem = divmod(sc - y if dy > 0 else y, ady)
            if rem:
                raise FlowBudgetError("non-integral step; scaling invariant broken")
            if t is None or ty < t:
                t, side = ty, (T if dy > 0 else B)
        if t is None:
            raise ValueError("zero direction")
        nx, ny = x + dx * t, y + dy * t
        if nx in (0, sc) and ny in (0, sc):
            yield sq, x, y, dx, dy, t, nx, ny, None
            return
        yield sq, x, y, dx, dy, t, nx, ny, side
        sq, side2, flip = glue[(sq, side)]
        u = ny if side in VERTICAL_SIDES else nx
        if flip:
            u, dx, dy = sc - u, -dx, -dy
        if side2 in VERTICAL_SIDES:
            x, y = (0 if side2 == L else sc), u
        else:
            x, y = u, (0 if side2 == B else sc)


def trace_surface(
    surface,
    start: SurfacePoint,
    direction: tuple[int, int],
    max_crossings: int = 100_000,
    *,
    record_segments: bool = True,
) -> SurfaceTrace:
    """Trace the flow from an interior point until it closes up.

    Closure means returning to the same point of the same square with the
    same direction.  Flip gluings negate the direction, so orientation
    bookkeeping is a single sign.
    """
    p, q = direction
    if p == 0 and q == 0 or gcd(abs(p), abs(q)) != 1:
        raise ValueError("direction must be primitive")
    if not (0 < start.x < 1 and 0 < start.y < 1):
        raise ValueError("start must lie in the open square")

    den_x, den_y = start.x.denominator, start.y.denominator
    den = den_x * den_y // gcd(den_x, den_y)
    sc = 2 * den * max(abs(p), 1) * max(abs(q), 1)
    x0, y0 = int(start.x * sc), int(start.y * sc)
    cocycle = getattr(surface, "cocycle", None)
    s_scaled = 0
    acc = anchor_acc = (0, 0, 0)
    anchor = None
    anchor_s = 0
    n_cross = 0
    crossings: list[tuple[int, int, int]] = []  # (s_scaled, sq, side)
    segments: list[tuple[int, int, int, int, int]] = []

    def finish(reason, s, disp, cone_point=None):
        nonlocal crossings, segments
        closed = reason == "closed"
        if closed:
            # Trim everything to one period [0, s_total): crossings 1 .. n-1
            # and the segments from the start point back to itself.
            crossings = crossings[: n_cross - 1]
            if segments:
                last = segments[n_cross - 1]
                segments = segments[: n_cross - 1] + [(*last[:3], x0, y0)]
        return SurfaceTrace(
            direction=(p, q),
            closed=closed,
            stop_reason=reason,
            s_total=Fraction(s, sc),
            displacement=disp,
            scale=sc,
            scaled_crossings=crossings,
            scaled_segments=segments,
            cone_point=cone_point,
        )

    for sq, x, y, dx, dy, t, nx, ny, side in _leaf(surface.glue, sc, start.square, x0, y0, p, q):
        if n_cross:
            # (sq, x, y, dx, dy) is the state just after the last crossing.
            state = (sq, x, y, dx, dy)
            if anchor is None:
                anchor, anchor_s, anchor_acc = state, s_scaled, acc
            elif state == anchor:
                return finish(
                    "closed", s_scaled - anchor_s,
                    tuple(a - b for a, b in zip(acc, anchor_acc)),
                )
            if n_cross >= max_crossings:
                return finish("crossing_budget", s_scaled, acc)
        s_scaled += t
        if record_segments:
            segments.append((sq, x, y, nx, ny))
        if side is None:
            cone = SurfacePoint(sq, Fraction(nx, sc), Fraction(ny, sc))
            return finish("cone_point", s_scaled, acc, cone)
        n_cross += 1
        crossings.append((s_scaled, sq, side))
        if cocycle is not None:
            w = cocycle[(sq, side)]
            acc = (acc[0] + w[0], acc[1] + w[1], acc[2] + w[2])


# ---------------------------------------------------------------------------
# Cylinder decomposition in a rational direction
# ---------------------------------------------------------------------------

@dataclass
class Cylinder:
    direction: tuple[int, int]
    circumference_multiplier: int  # circumference = multiplier * sqrt(p^2+q^2)
    width: SqrtLength
    area: Fraction
    squares: list[int]
    # Edge parameters and chart coordinates below are integers in units of
    # 1/scale, an even integer.
    scale: int
    scaled_intervals: list[tuple[tuple[int, int], int, int]]  # (edge, lo, hi)
    core_segments: list[tuple[int, int, int, int, int]]  # one period of the core leaf

    @property
    def circumference(self) -> SqrtLength:
        p, q = self.direction
        return SqrtLength.of(self.circumference_multiplier, p * p + q * q)

    @cached_property
    def intervals(self) -> list[tuple[tuple[int, int], Fraction, Fraction]]:
        sc = self.scale
        return [
            (edge, Fraction(lo, sc), Fraction(hi, sc)) for edge, lo, hi in self.scaled_intervals
        ]

    @cached_property
    def core_chain(self) -> list[Segment]:
        return _fraction_segments(self.core_segments, self.scale)


@dataclass
class Decomposition:
    direction: tuple[int, int]
    cylinders: list[Cylinder]

    @property
    def total_area(self) -> Fraction:
        return sum((c.area for c in self.cylinders), Fraction(0))


def _canonical_edge(surface, sq, side):
    sq2, side2, flip = surface.glue[(sq, side)]
    a, b = (sq, side), (sq2, side2)
    return min(a, b)


def _canonical_param(surface, sq, side, t, sc):
    """Parameter of an edge point measured on the canonical side of its pair."""
    sq2, side2, flip = surface.glue[(sq, side)]
    if (sq, side) <= (sq2, side2):
        return (sq, side), t
    return (sq2, side2), (sc - t if flip else t)


def cylinder_decomposition(surface, direction: tuple[int, int]) -> Decomposition:
    """Decompose the surface into maximal cylinders in a primitive direction.

    The transversal is all vertical edges, or all horizontal edges when the
    direction is closer to vertical.  The separatrices (the rays from every
    corner of every square, both ways) cut it into intervals, and grouping
    the intervals along the first-return map yields the cylinders with exact
    widths and integer circumference multipliers.

    No separatrix is traced: the cuts are the multiples of 1/m on every
    transversal edge, m = max(|p|, |q|).  Take the vertical transversal, so
    m = |p| (the horizontal one is the same with x and y swapped).  Developed
    into the plane, the gluings are translations and rotations by pi that
    preserve Z^2, so a leaf is a line of slope q/p, and the set of wall
    points (j, k/p) with j, k integers is preserved.  The line through
    (0, k/p) meets x = j at height (k + j q)/p, an integer for some j since
    gcd(p, q) = 1: every such wall point lies on a corner ray, and every
    corner ray meets the walls only at such points.  So the intervals are
    the m slots of width 1/m on each canonical edge, in sorted order, and a
    crossing finds its slot by integer division.  The corner-ray
    construction is kept in ``tests/test_flow.py`` as
    ``_ref_cylinder_decomposition``, the reference this one is tested
    against.

    Each cylinder's core leaf starts at the midpoint of the first slot not
    yet visited and is walked until it re-enters that slot in the same
    state.  The return map sends slots isometrically onto slots, so the core
    crosses every slot at its midpoint.  Every slot is entered at most once
    ("slot revisited" raises otherwise), and the leaf crosses the
    transversal at least every other segment, so a core closes within the
    n m slots and needs no crossing budget.
    """
    p, q = direction
    if (p, q) == (0, 0) or gcd(abs(p), abs(q)) != 1:
        raise ValueError("direction must be primitive")
    n = surface.n
    glue = surface.glue
    vertical_transversal = abs(p) >= abs(q)
    transversal = VERTICAL_SIDES if vertical_transversal else HORIZONTAL_SIDES
    m = abs(p) if vertical_transversal else abs(q)

    # Twice the tracer's scale, so slot midpoints are integral too.
    sc2 = 4 * max(abs(p), 1) * max(abs(q), 1)
    slot2 = sc2 // m
    keys = sorted({_canonical_edge(surface, sq, side) for sq in range(n) for side in transversal})
    slots = [(key, j * slot2, (j + 1) * slot2) for key in keys for j in range(m)]
    # Per transversal side: the index of its edge's first slot, and whether
    # the side measures the edge parameter backwards (see _canonical_param).
    key_base = {key: i * m for i, key in enumerate(keys)}
    side_slots = {}
    for sq in range(n):
        for side in transversal:
            key, back = _canonical_param(surface, sq, side, 0, sc2)
            side_slots[(sq, side)] = (key_base[key], back == sc2)

    def entry_state(key, t2):
        """State just inside the square after crossing the canonical side."""
        sq_c, side_c = key
        if side_c == L:
            d_in = (p, q) if p > 0 else (-p, -q)
            return (sq_c, 0, t2, d_in[0], d_in[1])
        if side_c == R:
            d_in = (p, q) if p < 0 else (-p, -q)
            return (sq_c, sc2, t2, d_in[0], d_in[1])
        if side_c == B:
            d_in = (p, q) if q > 0 else (-p, -q)
            return (sq_c, t2, 0, d_in[0], d_in[1])
        d_in = (p, q) if q < 0 else (-p, -q)
        return (sq_c, t2, sc2, d_in[0], d_in[1])

    half = slot2 // 2
    width = SqrtLength(Fraction(1, p * p + q * q))
    visited = [False] * len(slots)
    cylinders: list[Cylinder] = []

    for k0, slot0 in enumerate(slots):
        if visited[k0]:
            continue
        state0 = entry_state(slot0[0], slot0[1] + half)
        group = []
        squares = []
        core_segments = []
        closing = False
        for sq, x, y, dx, dy, t, nx, ny, side in _leaf(glue, sc2, *state0):
            if closing and (sq, x, y, dx, dy) == state0:
                break
            if side is None:
                raise FlowBudgetError("core leaf hit a cone point")
            core_segments.append((sq, x, y, nx, ny))
            if side in transversal:
                base, back = side_slots[(sq, side)]
                t2 = ny if vertical_transversal else nx
                j, rem = divmod(sc2 - t2 if back else t2, slot2)
                if not rem:
                    raise FlowBudgetError("transversal crossing landed on a cut")
                if rem != half:
                    raise FlowBudgetError("return map is not measure-preserving")
                k = base + j
                if visited[k]:
                    raise FlowBudgetError("slot revisited before closure")
                visited[k] = True
                group.append(slots[k])
                squares.append(sq)
                closing = k == k0

        steps = len(group)
        mult, rem = divmod(steps, m)
        if rem:
            raise FlowBudgetError("circumference is not an integer multiple")
        cylinders.append(
            Cylinder(
                direction=(p, q),
                circumference_multiplier=mult,
                width=width,
                area=Fraction(steps, m),
                squares=squares,
                scale=sc2,
                scaled_intervals=group,
                core_segments=core_segments,
            )
        )

    deco = Decomposition(direction=(p, q), cylinders=cylinders)
    if deco.total_area != n:
        raise FlowBudgetError(
            f"decomposition areas {deco.total_area} do not add up to {n}"
        )
    return deco


def reverse_chain(chain: Sequence[Segment]) -> list[Segment]:
    return [(sq, x1, y1, x0, y0) for sq, x0, y0, x1, y1 in reversed(chain)]


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
    from .mucube3d import QUARTER_TURNS, mat_vec

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
