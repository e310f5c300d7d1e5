"""Exact straight-line flow on finite square-tiled half-translation surfaces.

A surface here is anything with attributes ``n`` (number of unit squares),
``glue`` (a dict mapping (square, side) to (square', side', flip)),
optionally ``cocycle`` (a dict mapping (square, side) to an integer triple,
added up whenever the flow exits through that side), and ``_cache``, a dict
in which the tracers keep the tables they read from ``glue`` and
``cocycle``: one sheet record, the origami that every sign quadrant of the
direction is a view of (``_sheet_tables``), and one entry per transversal
(``_transversal_edges``), built on first use and shared by every later call
as tuples.

Sides are 0=L, 1=R, 2=B, 3=T in the chart [0,1]^2 of each square.  A gluing
without flip identifies a side with the opposite side of the partner square
by translation; a gluing with flip identifies it with the *same* side type by
a rotation by pi, which negates the direction of the flow.

All tracing is integer arithmetic: positions are scaled by an even integer
``sc`` chosen so that every crossing coordinate is integral.  Both the
surface tracer and the cores of the cylinder decomposition walk the
direction's cutting word (``_unit_word``), the order in which a line of
slope q/p crosses the walls of the square lattice.  Every gluing is a
translation, or a translation composed with a rotation by pi, and both
preserve Z^2.  So a leaf in direction (p, q), developed into the plane, is
a straight line, and in one unit of the parameter s it moves by (p, q) and
crosses |p| vertical and |q| horizontal walls.  Their order depends only on
(p, q) and the start's position in its chart, so the word is built once per
call; a tie in it is a corner, where the leaf stops at a cone point.  Along
the walk the leaf's only state is its sheet: the square and the sign of the
direction in that square's chart.  A letter moves the sheet by one lookup in
flat gluing tables (``_sheet_tables``); a flip switches the sign, and the
chart coordinates are then the word's, reflected through the square's
center.

Lemma: a post-crossing state repeats only after a whole number of units.
Proof: the two crossings are at the same point of the same square with the
same direction.  The leaf between them develops to a segment from a point z
to g(z), where g is the holonomy of the developing map, z -> +-z + v with v
in Z^2.  The direction is the same at both ends, so g is the translation by
v, and v lies on the line: v = lam (p, q), with lam an integer because
gcd(p, q) = 1.  lam is the number of units between the crossings.  So
closure is tested once per unit, at the same letter of the word, and the
leaf has closed exactly when its sheet there is the same.  Every sheet
walks the same word, so when it has no corner, one unit maps the 2n sheets
of the n squares injectively to themselves: it permutes them, the leaf
closes within 2n units, and a walk past them breaks an invariant.

The decomposition traces no separatrix: in a primitive direction (p, q),
the separatrices cut every transversal edge at the multiples of
1/max(|p|, |q|), so its intervals are known slots, and only one core leaf
per cylinder is walked.  A trace and a cylinder keep their summary and what
they walked; their lists of crossings, segments, squares and intervals are
views read from the walk on first use.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, cycle
from math import gcd
from operator import getitem, itemgetter
from typing import Optional

from .exact import SqrtLength

L, R, B, T = 0, 1, 2, 3
SIDE_NAMES = ("L", "R", "B", "T")
OPPOSITE = (R, L, T, B)
_FAN_SIDE = {0: L, 1: B, 2: R, 3: T}  # side crossed when rotating around corner c
VERTICAL_SIDES = (L, R)
HORIZONTAL_SIDES = (B, T)


class DegenerateIntersection(Exception):
    """A crossing count hit a segment endpoint or a collinear overlap."""


class FlowBudgetError(RuntimeError):
    """A leaf broke an invariant of the integer tracer or of the cylinder
    decomposition (a leaf that does not close within 2n units, a core leaf
    that hits a corner or revisits a slot, a crossing off the scale or on a
    cut, an odd number of sheet cylinders)."""


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
    stop_reason: str  # closed | cone_point; a leaf that does neither raises
    s_total: Fraction
    displacement: tuple[int, int, int]
    # Arc parameters and chart coordinates of the views below are integers in
    # units of 1/scale; each view covers one period if closed.
    scale: int
    cone_point: Optional[SurfacePoint] = None
    # What the trace walked, which the views are read from on first use: the
    # start square and point, the cutting word (step counts and kinds) and
    # the sheet of each segment.
    walk: Optional[tuple] = field(default=None, repr=False, compare=False)

    def _period(self):
        """A closed period as whole letters of the cutting word:
        ``(word, first, sheets, count)``, where segment g < count runs along
        the piece (see ``_pieces``) of letter (first + g) mod n of the word
        ``(x0, y0, dx, dy, times, kinds)`` of n letters, on sheet
        ``sheets[g]``.  The period's first and last segments are the two
        halves of letter 0's piece, on the start's sheet, and count as that
        piece."""
        _, x0, y0, times, kinds, sheets = self.walk
        p, q = self.direction
        return (x0, y0, p, q, times, kinds), 0, sheets, len(sheets) - 2

    @property
    def arc_length(self) -> SqrtLength:
        p, q = self.direction
        return SqrtLength.of(self.s_total, p * p + q * q)

    @cached_property
    def scaled_crossings(self) -> list[tuple[int, int, int]]:
        """(s, square, side exited) per crossing; a closed trace keeps
        crossings 0 .. count-2, which lie in (0, s_total)."""
        _, _, _, times, kinds, sheets = self.walk
        n, sc, exits = len(times), self.scale, _exit_sides(*self.direction)
        return [
            (g // n * sc + times[g % n], st >> 1, exits[kinds[g % n]][st & 1])
            for g, st in enumerate(sheets[: len(sheets) - 1 - self.closed])
        ]

    @cached_property
    def scaled_segments(self) -> list[tuple[int, int, int, int, int]]:
        """(square, x0, y0, x1, y1) per segment; a closed trace's run from
        the start point back to itself."""
        square, x0, y0, times, kinds, sheets = self.walk
        sc, (p, q), n = self.scale, self.direction, len(times)
        # Piece i starts where letter i - 1 entered its square.
        pieces = _pieces(sc, x0, y0, p, q, times, kinds)
        segments = [(st >> 1,) + pc[st & 1] for st, pc in zip(sheets[:-1], cycle(pieces))]
        if segments:
            segments[0] = (square, x0, y0, *pieces[0][0][2:])
        if self.closed:
            segments[-1] = (*segments[-1][:3], x0, y0)
        cone = self.cone_point
        if cone is not None:
            # The corner ends the first unit's letters, on the last sheet.
            x, y = pieces[0][sheets[-1] & 1][:2] if n else (x0, y0)
            segments.append((cone.square, x, y, int(cone.x * sc), int(cone.y * sc)))
        return segments

    @cached_property
    def crossings(self) -> list[tuple[Fraction, int, int]]:
        sc = self.scale
        return [(Fraction(s, sc), sq, side) for s, sq, side in self.scaled_crossings]

    @cached_property
    def segments(self) -> list[Segment]:
        return _fraction_segments(self.scaled_segments, self.scale)


def _unit_word(sc: int, x0: int, y0: int, dx: int, dy: int):
    """One unit of the cutting word of the leaf from ``(x0, y0)`` in direction
    ``(dx, dy)``: the walls it crosses with 0 < t <= sc, in order.

    Coordinates are integers in units of ``1/sc`` in the developed chart of
    the start square, where the leaf is the line ``(x0 + dx t, y0 + dy t)``.
    Returns ``(times, kinds, corner)``: per crossing its step count t and 1
    for a vertical wall or 0 for a horizontal one.  When the two families
    tie, the leaf meets a corner: ``corner`` is the first such t and the
    lists stop before it; otherwise ``corner`` is None.
    """
    # A wall at step t is the integer 2 t + kind, so one sort merges both.
    walls = []
    for kind, d, z in ((0, dy, y0), (1, dx, x0)):
        if d:
            first, rem = divmod(sc - z if d > 0 else z, abs(d))
            if rem:
                raise FlowBudgetError("non-integral step; scaling invariant broken")
            walls.append(range(2 * first + kind, 2 * (first + sc), 2 * (sc // abs(d))))
    events = sorted(chain(*walls))
    corner = None
    # The line meets a corner (a sc, b sc) iff a dy - b dx = (dy x0 - dx y0) / sc
    # has an integer solution, that is iff sc divides dy x0 - dx y0.
    if dx and dy and (dy * x0 - dx * y0) % sc == 0:
        horizontal, vertical = walls
        corner = min(set(range(horizontal.start, horizontal.stop, horizontal.step)).intersection(
            range(vertical.start - 1, vertical.stop, vertical.step)
        )) >> 1
        events = events[: bisect_left(events, 2 * corner)]
    return [e >> 1 for e in events], [e & 1 for e in events], corner


def _pieces(sc: int, x0: int, y0: int, dx: int, dy: int, times, kinds) -> list:
    """Per letter, the segment that ends at its crossing, from the point where
    the previous letter entered the square (cyclically) to the point where
    this one leaves it: ``(x0, y0, x1, y1)`` in the chart of a + sheet, and
    reflected through the square's center for a - sheet."""
    wx, wy = (sc if dx > 0 else 0), (sc if dy > 0 else 0)
    out = []
    if not times:
        return out
    t = times[-1]
    if kinds[-1]:
        px, py = sc - wx, (y0 + dy * t) % sc
    else:
        px, py = (x0 + dx * t) % sc, sc - wy
    for t, vertical in zip(times, kinds):
        if vertical:
            y = (y0 + dy * t) % sc
            out.append(((px, py, wx, y), (sc - px, sc - py, sc - wx, sc - y)))
            px, py = sc - wx, y
        else:
            x = (x0 + dx * t) % sc
            out.append(((px, py, x, wy), (sc - px, sc - py, sc - x, sc - wy)))
            px, py = x, sc - wy
    return out


def _exit_sides(dx: int, dy: int):
    """Per letter kind (1 for a vertical wall), the side a leaf in direction
    ``(dx, dy)`` leaves a + sheet by and a - sheet by (see ``_sheet_tables``)."""
    return ((T, B) if dy > 0 else (B, T)), ((R, L) if dx > 0 else (L, R))


def _sheet_tables(surface, dx: int, dy: int):
    """The gluings as flat tables over the sheets, for the sign quadrant of
    ``(dx, dy)``: picked by sign from one record per surface, built on first
    use and kept in ``surface._cache["origami"]``.

    Sheet ``2 sq + neg`` is square ``sq`` with the leaf running along
    ``(dx, dy)`` in its chart, or along ``-(dx, dy)`` when ``neg`` is 1.
    Returns ``(steps, weights)``, each indexed by the letter kind (1 for a
    vertical wall): per sheet the sheet it enters, and the cocycle's weight
    at the side it leaves by, ``_exit_sides(dx, dy)[kind][neg]`` (None
    without a cocycle).  A flip gluing switches ``neg`` and keeps the side
    type, so the side of the next square follows from the next letter.

    The record ``(steps, weights)`` is the origami (r, u): per letter kind,
    the inverse and the step of quadrant (+, +) across a wall, and their
    weight columns (b and a, and those of the inverse letters).  Lemma:
    quadrant (sx, sy) steps by r^sx and u^sy on the same sheets (0 counts
    as -), and r^-1 weighs -a(r^-1(t)) at t, u^-1 -b(u^-1(t)).  Proof, for
    r and dx < 0: a + sheet leaves by L, a - sheet by R, the sides r enters
    by.  A gluing is an involution: if (sq, L) is glued to (sq', s', flip),
    then (sq', s') is glued to (sq, L) by the same flip, and s' is R without
    a flip and L with one, so r(2 sq' + flip) = 2 sq; likewise on the -
    sheet.  The cocycle is negated across a gluing, so the side left weighs
    minus its partner, the side r leaves r^-1(t) by.
    """
    record = surface._cache.get("origami")
    if record is None:
        n, glue, cocycle = surface.n, surface.glue, getattr(surface, "cocycle", None)
        steps, weights = [], []
        for sides in _exit_sides(1, 1):
            ends = [(sq, side) for sq in range(n) for side in sides]
            forward = [2 * glue[e][0] + (s & 1 ^ glue[e][2]) for s, e in enumerate(ends)]
            inverse = sorted(range(2 * n), key=forward.__getitem__)  # inverse[forward[s]] = s
            steps.append((tuple(inverse), tuple(forward)))
            if cocycle is not None:
                w = [cocycle[e] for e in ends]
                weights.append((tuple(tuple(-c for c in w[s]) for s in inverse), tuple(w)))
        record = surface._cache["origami"] = tuple(steps), tuple(weights) or None
    steps, weights = record
    up, right = dy > 0, dx > 0
    return (steps[0][up], steps[1][right]), weights and (weights[0][up], weights[1][right])


def _walk(unit: list, sheets: list, home, units: int) -> bool:
    """The stepping kernel: walk the letters of ``unit`` (their sheet
    tables) from the last sheet of ``sheets``, appending the sheet after
    each crossing, for at most ``units`` rounds.  It stops after a round
    that ends on the sheet ``home``, and returns True then."""
    sheet = sheets[-1]
    append = sheets.append
    for _ in range(units):
        for step in unit:
            sheet = step[sheet]
            append(sheet)
        if sheet == home:
            return True
    return False


# Past this exponent a power of a sheet permutation is read off its cycles
# rather than composed once per factor: on Y's 8 sheets, composing is the
# faster of the two up to about a dozen factors.
_COMPOSED_POWERS = 12


def _cycles(perm) -> list[list[int]]:
    """The cycles of a permutation of ``range(len(perm))``."""
    left = set(range(len(perm)))
    out = []
    while left:
        s = left.pop()
        cyc = [s]
        t = perm[s]
        while t != s:
            left.remove(t)
            cyc.append(t)
            t = perm[t]
        out.append(cyc)
    return out


def _after_power(f, g, k: int) -> tuple[int, ...]:
    """The permutation f after g^k, as the tuple s -> f(g^k(s)), for
    permutations of at least two points: k compositions for small k, and
    for large k one pass over g's cycles, so O(len(g)) whatever k is."""
    if k > _COMPOSED_POWERS:
        power = [0] * len(g)
        for cyc in _cycles(g):
            shift = k % len(cyc)
            for s, image in zip(cyc, cyc[shift:] + cyc[:shift]):
                power[s] = image
        g, k = power, 1
    after_g = itemgetter(*g)  # f -> (f[g[0]], f[g[1]], ...)
    for _ in range(k):
        f = after_g(f)
    return f


def cylinder_count(surface, direction: tuple[int, int]) -> int:
    """The number of cylinders of ``cylinder_decomposition(surface,
    direction)``, found along Euclid's algorithm on (|p|, |q|) with no leaf
    walked: O(n) per partial quotient on n squares.

    Let r and u be the steps across a vertical and a horizontal wall in the
    sign quadrant of the direction, read from the sheet record.  While
    both entries are nonzero, ``k, p = divmod(p, q)`` sets u to u after r^k
    when p >= q, and ``k, q = divmod(q, p)`` sets r to r after u^k
    otherwise.  The loop ends at (1, 0) or (0, 1), and the count is half
    the number of cycles of r, or of u.

    Lemma: this is the decomposition's count.  Proof.
    (1) ``cylinder_decomposition`` cuts its transversal at the multiples of
    1/m, which are the points of the corner rays.  So its cylinders are the
    maximal cylinders of the surface with every square corner counted as
    singular, whether its cone angle is 2 pi or not.
    (2) The 2n sheets, each a square with one sign of the direction, form
    the orientation double cover, and the sheet record is an origami on it.
    In a sheet's frame (its chart, rotated by pi on a - sheet, and reflected
    in each axis along which the direction is negative) the leaf runs along
    (|p|, |q|), and right and up neighbours are the record's r^+-1 and u^+-1
    (the lemma of ``_sheet_tables``): again a translation origami (r, u),
    whose squares are unit squares developed into Z^2.
    (3) With h = [[1, 1], [0, 1]], the image of the origami under h^-k is
    again tiled by unit squares on the same corners: h^-k lies in SL2(Z),
    so it maps Z^2, and the set of corners with it, onto itself.  The new
    square on the bottom edge of s has its top edge, in s's old frame, from
    (k, 1) to (k + 1, 1): the bottom edge of u(r^k(s)).  So
    h^-k (r, u) = (r, u r^k), and the cylinders in direction (p, q), cut at
    the corners, are those of h^-k (r, u) in direction (p - k q, q).  The
    same holds for v = [[1, 0], [1, 1]], with v^-k (r, u) = (r u^k, u) and
    direction (p, q - k p).
    (4) Euclid's algorithm ends at (1, 0) or (0, 1).  In direction (1, 0)
    every leaf runs along a row of squares, and cut at the corners, the
    cylinders are the rows: the cycles of r.  In (0, 1) they are the
    cycles of u.
    (5) A cylinder's core is a closed leaf that meets no corner, and it
    closes with the direction it started with (the module lemma), so its
    holonomy is trivial.  Its preimage in the cover is therefore two
    cylinders, one per sign of the direction, and every cover cylinder
    lies over one cylinder.  So the cover has twice the cylinders.
    An odd number of cycles breaks (5) and raises FlowBudgetError.
    """
    p, q = direction
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError("direction must be primitive")
    (u, r), _ = _sheet_tables(surface, p, q)
    p, q = abs(p), abs(q)
    while p and q:
        if p >= q:
            k, p = divmod(p, q)
            u = _after_power(u, r, k)
        else:
            k, q = divmod(q, p)
            r = _after_power(r, u, k)
    count, odd = divmod(len(_cycles(r if p else u)), 2)
    if odd:
        raise FlowBudgetError(f"odd number of sheet cylinders in direction {direction}")
    return count


def trace_surface(surface, start: SurfacePoint, direction: tuple[int, int]) -> SurfaceTrace:
    """Trace the flow from an interior point until it closes up or meets a
    corner.

    Closure means returning to the same point of the same square with the
    same direction.  The leaf walks the direction's cutting word, one sheet
    lookup per crossing (see the module docstring), and the closure test,
    the sheet after a unit's first crossing against the first unit's, runs
    once per unit.  A leaf that meets no corner closes within 2n units on n
    squares (the module lemma); one that has not raises FlowBudgetError.
    """
    p, q = direction
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError("direction must be primitive")
    if not (0 < start.x < 1 and 0 < start.y < 1):
        raise ValueError("start must lie in the open square")

    den_x, den_y = start.x.denominator, start.y.denominator
    den = den_x * den_y // gcd(den_x, den_y)
    sc = 2 * den * max(abs(p), 1) * max(abs(q), 1)
    x0, y0 = start.x.numerator * (sc // den_x), start.y.numerator * (sc // den_y)
    times, kinds, corner = _unit_word(sc, x0, y0, p, q)
    n_squares = surface.n
    steps, weights = _sheet_tables(surface, p, q)
    n = len(times)
    tables = [steps[k] for k in kinds]

    # sheets[g] is the sheet of segment g, the one that ends at crossing g.
    sheets = [2 * start.square]
    closed = corner is None
    if closed:
        # The anchor is the sheet after crossing 0; a round runs over
        # letters 1 .. n-1 and the next unit's letter 0, where the sheet is
        # compared with it.
        sheets.append(tables[0][sheets[0]])
        if not _walk(tables[1:] + tables[:1], sheets, sheets[1], 2 * n_squares):
            raise FlowBudgetError(
                f"leaf in direction {(p, q)} did not close within {2 * n_squares} units"
            )
    else:
        # The corner lies in the first unit, before any closure can happen.
        _walk(tables, sheets, None, 1)
    count = len(sheets) - 1
    sheet = sheets[-1]
    s_total = (count - 1) // n * sc if closed else corner
    # The closing crossing repeats crossing 0 (same sheet, same letter), so
    # the crossings after the anchor weigh what the kept ones weigh.
    kept = count - closed
    disp = (0, 0, 0)
    if weights is not None and kept:
        disp = tuple(map(sum, zip(*map(getitem, cycle(weights[k] for k in kinds), sheets[:kept]))))

    cone_point = None
    if not closed:
        cx, cy = (sc if p > 0 else 0), (sc if q > 0 else 0)
        if sheet & 1:
            cx, cy = sc - cx, sc - cy
        cone_point = SurfacePoint(sheet >> 1, Fraction(cx, sc), Fraction(cy, sc))
    return SurfaceTrace(
        direction=(p, q),
        closed=closed,
        stop_reason="closed" if closed else "cone_point",
        s_total=Fraction(s_total, sc),
        displacement=disp,
        scale=sc,
        cone_point=cone_point,
        walk=(start.square, x0, y0, times, kinds, sheets),
    )


# ---------------------------------------------------------------------------
# Cylinder decomposition in a rational direction
# ---------------------------------------------------------------------------

@dataclass
class Cylinder:
    direction: tuple[int, int]
    circumference_multiplier: int  # circumference = multiplier * sqrt(p^2+q^2)
    width: SqrtLength
    area: Fraction
    # Edge parameters and chart coordinates of the views below are integers
    # in units of 1/scale, an even integer.
    scale: int
    # What the core walked, which the views are read from on first use: the
    # cutting word every core of the decomposition walks (start point,
    # direction, step counts and kinds), the transversal's canonical edges,
    # the letter before the core's first, the sheet of each segment, and per
    # transversal crossing its sheet and slot index.
    walk: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def circumference(self) -> SqrtLength:
        p, q = self.direction
        return SqrtLength.of(self.circumference_multiplier, p * p + q * q)

    def _period(self):
        """The core's period as whole letters of the cutting word:
        ``(word, first, sheets, count)``, where segment g < count runs along
        the piece (see ``_pieces``) of letter (first + g) mod n of the word
        ``(x0, y0, dx, dy, times, kinds)`` of n letters, on sheet
        ``sheets[g]``."""
        word, _, last, sheets, _, _ = self.walk
        return word, last + 1, sheets, len(sheets) - 1

    @cached_property
    def squares(self) -> list[int]:
        """The square of each transversal crossing of the core, in order."""
        return [st >> 1 for st in self.walk[4]]

    @cached_property
    def scaled_intervals(self) -> list[tuple[tuple[int, int], int, int]]:
        """(edge, lo, hi) per transversal crossing of the core: the slot it
        crosses, on the edge's canonical side."""
        _, keys, _, _, _, ks = self.walk
        m = max(map(abs, self.direction))
        slot = self.scale // m
        return [(keys[k // m], k % m * slot, (k % m + 1) * slot) for k in ks]

    @cached_property
    def core_segments(self) -> list[tuple[int, int, int, int, int]]:
        """(square, x0, y0, x1, y1) per segment of one period of the core."""
        word, first, sheets, count = self._period()
        pieces = _pieces(self.scale, *word)
        n = len(pieces)
        return [
            (st >> 1,) + pieces[(first + g) % n][st & 1] for g, st in enumerate(sheets[:count])
        ]

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


def _canonical_param(surface, sq, side, t, sc):
    """Parameter of an edge point measured on the canonical side of its pair."""
    sq2, side2, flip = surface.glue[(sq, side)]
    if (sq, side) <= (sq2, side2):
        return (sq, side), t
    return (sq2, side2), (sc - t if flip else t)


def _transversal_edges(surface, vertical: bool):
    """The canonical sides of the vertical (or horizontal) edges, sorted, and
    per side ``4 sq + side`` of the transversal the index of its edge among
    them and whether it measures the edge parameter backwards: its point 0
    is the canonical side's 1 (see ``_canonical_param``).  Built once per
    transversal and kept in ``surface._cache``."""
    key = ("transversal", vertical)
    edges = surface._cache.get(key)
    if edges is None:
        canonical = {}
        for sq in range(surface.n):
            for side in VERTICAL_SIDES if vertical else HORIZONTAL_SIDES:
                edge, t = _canonical_param(surface, sq, side, 0, 1)
                canonical[4 * sq + side] = edge, t == 1
        keys = tuple(sorted({edge for edge, _ in canonical.values()}))
        index = {edge: i for i, edge in enumerate(keys)}
        sides = [None] * (4 * surface.n)
        for at, (edge, back) in canonical.items():
            sides[at] = index[edge], back
        edges = surface._cache[key] = (keys, tuple(sides))
    return edges


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
    the m slots of width 1/m on each canonical edge, in sorted order.  The
    corner-ray construction is kept in ``tests/test_flow.py`` as
    ``_ref_cylinder_decomposition``, the reference this one is tested
    against.

    Each cylinder's core leaf starts at the midpoint of the first slot not
    yet visited and is walked until it re-enters that slot in the same
    state.  The return map sends slots isometrically onto slots, so the core
    crosses every slot at its midpoint.  By the same computation the lines
    through the midpoints (0, (k + 1/2)/p) are one line up to Z^2, so every
    core walks one cutting word, from the letter after the one that enters
    its start: a transversal letter's slot, within its edge, is read from
    the word, and the core closes when its sheet is the start's at the end
    of a unit.  Every slot is entered at most once ("slot revisited" raises
    otherwise) and every unit crosses the transversal, so a core closes
    within the n m slots and needs no crossing budget.

    A cylinder keeps its summary and its core's walk: the sheet of each
    segment and the index of each slot crossed, on which the checks run.
    Its squares, intervals and core segments are views built from the walk
    on first use, so a caller that reads the summary builds none of them.
    The gluing tables come from the surface's cache (``_sheet_tables``,
    ``_transversal_edges``).
    """
    p, q = direction
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError("direction must be primitive")
    n = surface.n
    vertical_transversal = abs(p) >= abs(q)
    m = abs(p) if vertical_transversal else abs(q)

    # Twice the tracer's scale, so slot midpoints are integral too.
    sc2 = 4 * max(abs(p), 1) * max(abs(q), 1)
    slot2 = sc2 // m
    half = slot2 // 2
    keys, edges = _transversal_edges(surface, vertical_transversal)
    n_slots = len(keys) * m

    # The word of the line that runs into the canonical L (or B) sides,
    # from the midpoint of their first slot.
    dx, dy = (p, q) if (p if vertical_transversal else q) > 0 else (-p, -q)
    x0, y0 = (0, half) if vertical_transversal else (half, 0)
    times, kinds, corner = _unit_word(sc2, x0, y0, dx, dy)
    if corner is not None:
        raise FlowBudgetError("core leaf hit a cone point")
    steps, _ = _sheet_tables(surface, dx, dy)
    # The word's transversal letters, in order: the k-th crosses the edge
    # parameter (its coordinate moves by e per step) at (k + 1) e slots past
    # the start's midpoint, so at the midpoint of slot (k + 1) e mod m.
    e = dy if vertical_transversal else dx
    cross_at = [i for i, kind in enumerate(kinds) if kind == vertical_transversal]
    offsets = [(k + 1) * e % m for k in range(m)]
    params = [(half + e * times[i]) % sc2 for i in cross_at]
    if params != [j * slot2 + half for j in offsets]:
        if any(u % slot2 == 0 for u in params):
            raise FlowBudgetError("transversal crossing landed on a cut")
        raise FlowBudgetError("return map is not measure-preserving")
    letter_of = dict(zip(offsets, cross_at))  # by slot offset, the letter entering it
    # Per sheet, its exit edge's slot at offset 0 and the slot order: reversed
    # for a - sheet and for a side that measures the edge backwards,
    # forwards when both or neither hold.
    slot_first, slot_sign = [], []
    for sheet, side in enumerate(_exit_sides(dx, dy)[vertical_transversal] * n):
        index, back = edges[4 * (sheet >> 1) + side]
        forwards = back == (sheet & 1)
        slot_first.append(index * m + (0 if forwards else m - 1))
        slot_sign.append(1 if forwards else -1)

    tables = [steps[k] for k in kinds]
    word_len = len(times)
    word = (x0, y0, dx, dy, times, kinds)
    width = SqrtLength(Fraction(1, p * p + q * q))
    visited: set[int] = set()
    cylinders: list[Cylinder] = []

    for k0 in range(n_slots):
        if len(visited) == n_slots:
            break
        if k0 in visited:
            continue
        # Slot k0 is slot k0 mod m of edge k0 // m.  A core entering a
        # canonical R (or T) side runs against the word's direction: a -
        # sheet, on the reflected slot.  Its units run from the letter after
        # the one that enters its start.
        sq0, side0 = keys[k0 // m]
        neg0 = side0 in (R, T)
        last = letter_of[m - 1 - k0 % m if neg0 else k0 % m]
        sheet0 = 2 * sq0 + neg0
        sheets = [sheet0]
        # Each unit crosses m slots, so a core that enters no slot twice
        # closes within one unit per canonical edge.
        if not _walk(tables[last + 1:] + tables[: last + 1], sheets, sheet0, len(keys)):
            raise FlowBudgetError("slot revisited before closure")
        # The sheets at each transversal letter, unit by unit, and the slots
        # they cross.  From the letter after ``last`` the transversal letters
        # are ``cross_at`` rotated to the first one past ``last``.
        units = (len(sheets) - 1) // word_len
        turn = bisect_left(cross_at, last + 1)
        at = [i - last - 1 for i in cross_at[turn:]] + [
            i + word_len - last - 1 for i in cross_at[:turn]
        ]
        crossed = [sheets[g + r] for g in range(0, units * word_len, word_len) for r in at]
        ks = [
            slot_first[st] + slot_sign[st] * j
            for st, j in zip(crossed, (offsets[turn:] + offsets[:turn]) * units)
        ]
        entered = set(ks)
        if len(entered) < len(ks) or not visited.isdisjoint(entered):
            raise FlowBudgetError("slot revisited before closure")
        visited |= entered

        mult, rem = divmod(len(ks), m)
        if rem:
            raise FlowBudgetError("circumference is not an integer multiple")
        cylinders.append(
            Cylinder(
                direction=(p, q),
                circumference_multiplier=mult,
                width=width,
                area=Fraction(len(ks), m),
                scale=sc2,
                walk=(word, keys, last, sheets, crossed, ks),
            )
        )

    deco = Decomposition(direction=(p, q), cylinders=cylinders)
    # The areas are slot counts over m, and the cores enter distinct slots,
    # so they add up to n exactly when the slots entered number n m.
    if len(visited) != n * m:
        raise FlowBudgetError(
            f"decomposition areas {deco.total_area} do not add up to {n}"
        )
    return deco
