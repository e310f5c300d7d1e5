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
``sc`` chosen so that every crossing coordinate is integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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
    """A separatrix or orbit failed to close within its combinatorial budget."""


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
    scaled_weights: list[tuple[int, tuple[int, int, int]]]  # cocycle weight per crossing
    scaled_segments: list[tuple[int, int, int, int, int]]
    cone_point: Optional[SurfacePoint] = None
    center_visits: list[SurfacePoint] = field(default_factory=list)

    @property
    def arc_length(self) -> SqrtLength:
        p, q = self.direction
        return SqrtLength.of(self.s_total, p * p + q * q)

    @cached_property
    def crossings(self) -> list[tuple[Fraction, int, int]]:
        sc = self.scale
        return [(Fraction(s, sc), sq, side) for s, sq, side in self.scaled_crossings]

    @cached_property
    def weights(self) -> list[tuple[Fraction, tuple[int, int, int]]]:
        sc = self.scale
        return [(Fraction(s, sc), w) for s, w in self.scaled_weights]

    @cached_property
    def segments(self) -> list[Segment]:
        return _fraction_segments(self.scaled_segments, self.scale)


def _transfer(pos_x: int, pos_y: int, side: int, glue_entry, sc: int):
    """Coordinates and direction sign after crossing out through ``side``."""
    sq2, side2, flip = glue_entry
    t = pos_y if side in VERTICAL_SIDES else pos_x
    if flip:
        t = sc - t
    if side2 == L:
        new = (0, t)
    elif side2 == R:
        new = (sc, t)
    elif side2 == B:
        new = (t, 0)
    else:
        new = (t, sc)
    return sq2, new[0], new[1], (-1 if flip else 1)


def _exit_side(d: tuple[int, int], wall_axis: int) -> int:
    if wall_axis == 0:
        return R if d[0] > 0 else L
    return T if d[1] > 0 else B


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
    pos = (start.square, int(start.x * sc), int(start.y * sc))

    cocycle = getattr(surface, "cocycle", None)
    return _run_trace(
        surface, pos, (p, q), sc, max_crossings,
        record_segments=record_segments, cocycle=cocycle,
    )


def _run_trace(surface, pos, d0, sc, max_crossings, *, record_segments, cocycle):
    p, q = d0
    sq, x, y = pos
    dx, dy = p, q
    s_scaled = 0
    acc = (0, 0, 0)
    anchor = None
    anchor_s = 0
    anchor_acc = (0, 0, 0)
    anchor_idx = 0
    n_cross = 0
    crossings: list[tuple[int, int, int]] = []  # (s_scaled, sq, side)
    weights: list[tuple[int, tuple[int, int, int]]] = []
    segments: list[tuple[int, int, int, int, int]] = []
    centers: list[tuple[int, int, int]] = []
    start_state = (sq, x, y)
    glue = surface.glue

    while True:
        best_axis = None
        best_delta = None
        for axis, dd, coord in ((0, dx, x), (1, dy, y)):
            if dd == 0:
                continue
            dist = (sc - coord) if dd > 0 else coord
            delta = dist // abs(dd)
            if dist % abs(dd):
                raise FlowBudgetError("non-integral step; scaling invariant broken")
            if best_delta is None or delta < best_delta:
                best_axis, best_delta = axis, delta
        if best_delta is None:
            raise ValueError("zero direction")

        # Center pass within this segment.
        half = sc // 2
        t_hit = None
        ok = True
        for dd, coord in ((dx, x), (dy, y)):
            if dd == 0:
                if coord != half:
                    ok = False
                    break
            else:
                num = half - coord
                if num % dd:
                    ok = False
                    break
                t = num // dd
                if t_hit is None:
                    t_hit = t
                elif t != t_hit:
                    ok = False
                    break
        if ok and t_hit is not None and 0 <= t_hit < best_delta:
            centers.append((sq, half, half))

        nx, ny = x + dx * best_delta, y + dy * best_delta
        s_scaled += best_delta
        if record_segments:
            segments.append((sq, x, y, nx, ny))

        if nx in (0, sc) and ny in (0, sc):
            return _finish_surface_trace(
                d0, sc, "cone_point", s_scaled, crossings, weights, segments,
                centers, acc, cone=(sq, nx, ny), n_cross=n_cross,
                anchor_idx=anchor_idx, anchor_s=anchor_s, anchor_acc=anchor_acc,
                start_state=start_state,
            )

        side = _exit_side((dx, dy), best_axis)
        n_cross += 1
        crossings.append((s_scaled, sq, side))
        if cocycle is not None:
            w = cocycle[(sq, side)]
            acc = (acc[0] + w[0], acc[1] + w[1], acc[2] + w[2])
            weights.append((s_scaled, w))
        sq, x, y, sign = _transfer(nx, ny, side, glue[(sq, side)], sc)
        if sign < 0:
            dx, dy = -dx, -dy

        state = (sq, x, y, dx, dy)
        if anchor is None:
            anchor = state
            anchor_s = s_scaled
            anchor_acc = acc
            anchor_idx = n_cross
        elif state == anchor:
            return _finish_surface_trace(
                d0, sc, "closed", s_scaled - anchor_s, crossings, weights,
                segments, centers,
                tuple(a - b for a, b in zip(acc, anchor_acc)),
                n_cross=n_cross, anchor_idx=anchor_idx, anchor_s=anchor_s,
                anchor_acc=anchor_acc, start_state=start_state,
            )
        if n_cross >= max_crossings:
            return _finish_surface_trace(
                d0, sc, "crossing_budget", s_scaled, crossings, weights,
                segments, centers, acc, n_cross=n_cross,
                anchor_idx=anchor_idx, anchor_s=anchor_s, anchor_acc=anchor_acc,
                start_state=start_state,
            )


def _finish_surface_trace(
    d0, sc, reason, s_scaled, crossings, weights, segments, centers, acc,
    *, cone=None, n_cross, anchor_idx, anchor_s, anchor_acc, start_state,
):
    closed = reason == "closed"

    def fr(v):
        return Fraction(v, sc)

    if closed:
        # Trim everything to one period [0, s_total): crossings 1 .. n-1 and
        # the segments from the start point back to itself.
        crossings = crossings[: n_cross - 1]
        weights = weights[: n_cross - 1]
        if segments:
            last = segments[n_cross - 1]
            segments = segments[: n_cross - 1] + [
                (last[0], last[1], last[2], start_state[1], start_state[2])
            ]

    seen = set()
    visits = []
    for sq, cx, cy in centers:
        if (sq, cx, cy) not in seen:
            seen.add((sq, cx, cy))
            visits.append(SurfacePoint(sq, fr(cx), fr(cy)))

    return SurfaceTrace(
        direction=d0,
        closed=closed,
        stop_reason=reason,
        s_total=fr(s_scaled),
        displacement=tuple(acc),
        scale=sc,
        scaled_crossings=crossings,
        scaled_weights=weights,
        scaled_segments=segments,
        cone_point=SurfacePoint(cone[0], fr(cone[1]), fr(cone[2])) if cone else None,
        center_visits=visits,
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
    squares: list[int]
    core_visits: list[SurfacePoint]
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


def _ray_until_corner(surface, sq, x, y, d, sc, budget, record_cuts):
    """Trace a separatrix ray until it reaches a corner; record transversal cuts."""
    dx, dy = d
    glue = surface.glue
    steps = 0
    while True:
        best_axis = None
        best_delta = None
        for axis, dd, coord in ((0, dx, x), (1, dy, y)):
            if dd == 0:
                continue
            dist = (sc - coord) if dd > 0 else coord
            delta = dist // abs(dd)
            if best_delta is None or delta < best_delta:
                best_axis, best_delta = axis, delta
        x, y = x + dx * best_delta, y + dy * best_delta
        if x in (0, sc) and y in (0, sc):
            return
        side = _exit_side((dx, dy), best_axis)
        record_cuts(sq, side, x, y)
        sq, x, y, sign = _transfer(x, y, side, glue[(sq, side)], sc)
        if sign < 0:
            dx, dy = -dx, -dy
        steps += 1
        if steps > budget:
            raise FlowBudgetError("separatrix failed to reach a cone point in budget")


def cylinder_decomposition(surface, direction: tuple[int, int]) -> Decomposition:
    """Decompose the surface into maximal cylinders in a primitive direction.

    Separatrices traced from every cone point cut a transversal (all vertical
    edges, or all horizontal edges when the direction is closer to vertical)
    into intervals; grouping the intervals along the first-return map yields
    the cylinders with exact widths and integer circumference multipliers.
    """
    p, q = direction
    if (p, q) == (0, 0) or gcd(abs(p), abs(q)) != 1:
        raise ValueError("direction must be primitive")
    n = surface.n
    vertical_transversal = abs(p) >= abs(q)
    transversal = VERTICAL_SIDES if vertical_transversal else HORIZONTAL_SIDES
    step_div = abs(p) if vertical_transversal else abs(q)

    sc = 2 * max(abs(p), 1) * max(abs(q), 1)
    budget = 4 * n * (abs(p) + abs(q)) + 16

    cuts: dict[tuple[int, int], set[int]] = {}
    for sq in range(n):
        for side in transversal:
            cuts.setdefault(_canonical_edge(surface, sq, side), set())

    def record(sq, side, xx, yy):
        if side not in transversal:
            return
        t = yy if side in VERTICAL_SIDES else xx
        key, tc = _canonical_param(surface, sq, side, t, sc)
        if 0 < tc < sc:
            cuts[key].add(tc)

    for d in ((p, q), (-p, -q)):
        dx, dy = d
        xs = [0] if dx > 0 else [sc] if dx < 0 else [0, sc]
        ys = [0] if dy > 0 else [sc] if dy < 0 else [0, sc]
        for sq in range(n):
            for cx in xs:
                for cy in ys:
                    _ray_until_corner(surface, sq, cx, cy, d, sc, budget, record)

    # Interval lists per canonical edge, in doubled scale so midpoints stay
    # integral.
    sc2 = 2 * sc
    intervals: list[tuple[tuple[int, int], int, int]] = []
    bounds: dict[tuple[int, int], list[int]] = {}
    for key in sorted(cuts):
        params = sorted({0, sc} | cuts[key])
        bounds[key] = [2 * v for v in params]
        for lo, hi in zip(params, params[1:]):
            intervals.append((key, 2 * lo, 2 * hi))
    index = {iv: k for k, iv in enumerate(intervals)}

    from bisect import bisect_left

    def locate(key, t2):
        bs = bounds[key]
        i = bisect_left(bs, t2)
        if i == 0 or i == len(bs) or bs[i] == t2:
            raise FlowBudgetError("transversal crossing landed on a cut")
        return (key, bs[i - 1], bs[i])

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

    glue = surface.glue
    visited: set[int] = set()
    cylinders: list[Cylinder] = []

    for iv0 in intervals:
        if index[iv0] in visited:
            continue
        key0 = iv0[0]
        mid = (iv0[1] + iv0[2]) // 2
        state0 = entry_state(key0, mid)
        sq, x, y, dx, dy = state0
        group = []
        squares = []
        core_segments = []
        core_visits = []
        steps = 0
        half = sc2 // 2
        while True:
            # advance to next wall
            best_axis = None
            best_delta = None
            for axis, dd, coord in ((0, dx, x), (1, dy, y)):
                if dd == 0:
                    continue
                dist = (sc2 - coord) if dd > 0 else coord
                delta = dist // abs(dd)
                if best_delta is None or delta < best_delta:
                    best_axis, best_delta = axis, delta
            # center pass
            t_hit = None
            ok = True
            for dd, coord in ((dx, x), (dy, y)):
                if dd == 0:
                    if coord != half:
                        ok = False
                        break
                else:
                    num = half - coord
                    if num % dd:
                        ok = False
                        break
                    t = num // dd
                    if t_hit is None:
                        t_hit = t
                    elif t != t_hit:
                        ok = False
                        break
            if ok and t_hit is not None and 0 <= t_hit < best_delta:
                core_visits.append(SurfacePoint(sq, Fraction(1, 2), Fraction(1, 2)))
            nx, ny = x + dx * best_delta, y + dy * best_delta
            if nx in (0, sc2) and ny in (0, sc2):
                raise FlowBudgetError("core leaf hit a cone point")
            core_segments.append((sq, x, y, nx, ny))
            side = _exit_side((dx, dy), best_axis)
            if side in transversal:
                tpar = ny if side in VERTICAL_SIDES else nx
                key, tc = _canonical_param(surface, sq, side, tpar // 2, sc)
                iv = locate(key, tc * 2)
                k = index[iv]
                if k in visited:
                    raise FlowBudgetError("interval revisited before closure")
                visited.add(k)
                group.append(iv)
                squares.append(sq)
                steps += 1
            sq, nx2, ny2, sign = _transfer(nx, ny, side, glue[(sq, side)], sc2)
            x, y = nx2, ny2
            if sign < 0:
                dx, dy = -dx, -dy
            if side in transversal and (sq, x, y, dx, dy) == state0:
                break
            if steps > 16 * n * (abs(p) + abs(q)) + 64:
                raise FlowBudgetError("core leaf failed to close in budget")

        length0 = Fraction(iv0[2] - iv0[1], sc2)
        for iv in group:
            if iv[2] - iv[1] != iv0[2] - iv0[1]:
                raise FlowBudgetError("return map is not measure-preserving")
        mult, rem = divmod(steps, step_div)
        if rem:
            raise FlowBudgetError("circumference is not an integer multiple")
        nsq = p * p + q * q
        width = SqrtLength(length0 * length0 * step_div * step_div / nsq)
        area = Fraction(steps) * length0
        cylinders.append(
            Cylinder(
                direction=(p, q),
                circumference_multiplier=mult,
                width=width,
                area=area,
                squares=squares,
                core_visits=core_visits,
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


# ---------------------------------------------------------------------------
# Signed crossing counts between polygonal chains
# ---------------------------------------------------------------------------

def signed_crossings(moving: Sequence[Segment], rep: Sequence[Segment]) -> int:
    """Algebraic crossing number of ``moving`` over ``rep``.

    A crossing is +1 when the moving curve passes from the right-hand side of
    the representative to its left-hand side.  Crossings at segment endpoints
    or collinear overlaps raise DegenerateIntersection; callers retry with a
    perturbed representative.
    """
    by_square: dict[int, list[Segment]] = {}
    for seg in rep:
        by_square.setdefault(seg[0], []).append(seg)
    total = 0
    for sq, ax0, ay0, ax1, ay1 in moving:
        ux, uy = ax1 - ax0, ay1 - ay0
        if ux == 0 and uy == 0:
            continue
        for _, bx0, by0, bx1, by1 in by_square.get(sq, ()):
            vx, vy = bx1 - bx0, by1 - by0
            if vx == 0 and vy == 0:
                continue
            denom = ux * vy - uy * vx
            wx, wy = bx0 - ax0, by0 - ay0
            if denom == 0:
                if wx * uy - wy * ux == 0:
                    # Collinear: overlapping portions are degenerate.
                    raise DegenerateIntersection("collinear segments")
                continue
            t = (wx * vy - wy * vx) / denom
            s = (wx * uy - wy * ux) / denom
            if 0 < t < 1 and 0 < s < 1:
                total += 1 if (vx * uy - vy * ux) > 0 else -1
            elif (t == 0 or t == 1) and 0 <= s <= 1:
                raise DegenerateIntersection("crossing at a segment endpoint")
            elif (s == 0 or s == 1) and 0 <= t <= 1:
                raise DegenerateIntersection("crossing at a segment endpoint")
    return total


def reverse_chain(chain: Sequence[Segment]) -> list[Segment]:
    return [(sq, x1, y1, x0, y0) for sq, x0, y0, x1, y1 in reversed(chain)]


# ---------------------------------------------------------------------------
# Quarter-period displacement symmetry on the 12-square quotient
# ---------------------------------------------------------------------------

def _cell(point) -> tuple[int, int, int]:
    """Net count of odd-integer walls up to each coordinate."""
    out = []
    for c in point:
        f = Fraction(c) + 1
        out.append(f.numerator // (2 * f.denominator))
    return tuple(out)


def _lift_polyline(surface, trace: SurfaceTrace):
    """Vertices of the lifted orbit, with the arc parameter of each vertex."""
    from .mucube3d import Point3

    p, q = trace.direction
    acc = (0, 0, 0)
    widx = 0
    s = Fraction(0)
    pts = []
    for k, (sq, x0, y0, x1, y1) in enumerate(trace.segments):
        a = Point3(surface.reps[sq], surface.charts[sq], x0, y0).ambient()
        pts.append((s, tuple(a[m] + 2 * acc[m] for m in range(3))))
        ds = abs(x1 - x0) / abs(p) if p else abs(y1 - y0) / abs(q)
        s += ds
        if widx < len(trace.weights) and trace.weights[widx][0] <= s:
            w = trace.weights[widx][1]
            acc = (acc[0] + w[0], acc[1] + w[1], acc[2] + w[2])
            widx += 1
    sq, x0, y0, x1, y1 = trace.segments[-1]
    end = Point3(surface.reps[sq], surface.charts[sq], x1, y1).ambient()
    prev_acc = pts[-1][1]
    base = Point3(surface.reps[sq], surface.charts[sq], x0, y0).ambient()
    off = tuple(prev_acc[m] - base[m] for m in range(3))
    pts.append((s, tuple(end[m] + off[m] for m in range(3))))
    return pts


def quarter_displacement_check(surface, trace: SurfaceTrace):
    """Check the displacement quarter-cycling law of a closed traced orbit.

    v(t) is the net signed count of fundamental-domain wall crossings of the
    lifted orbit on [0, t].  Marks are taken just past the exact quarter times
    (the orbit may start on a wall, where the count is ambiguous); the offset
    is chosen below every wall-crossing event so the four window sums are
    exactly the quantities cycled by the quarter turn.  Returns
    (True, rotation) if some coordinate quarter-turn ``theta`` satisfies
    v((i+1)T/4) - v(iT/4) = theta^i v(T/4); (False, None) otherwise.
    """
    from .mucube3d import QUARTER_TURNS, mat_vec

    if not trace.closed:
        raise ValueError("quarter check needs a closed trace")
    period = trace.s_total
    pts = _lift_polyline(surface, trace)

    events: list[Fraction] = []
    for (s0, a), (s1, b) in zip(pts, pts[1:]):
        for k in range(3):
            if a[k] == b[k]:
                continue
            lo, hi = sorted((a[k], b[k]))
            w = 2 * (lo.numerator // (2 * lo.denominator)) + 1  # first odd >= lo - 1
            while w < lo:
                w += 2
            while w <= hi:
                events.append(s0 + (Fraction(w) - a[k]) / (b[k] - a[k]) * (s1 - s0))
                w += 2

    quarter = period / 4
    residues = sorted({e % quarter for e in events if e % quarter != 0})
    delta = (residues[0] if residues else quarter) / 2

    def pos_at(s):
        for (s0, a), (s1, b) in zip(pts, pts[1:]):
            if s <= s1:
                t = (s - s0) / (s1 - s0)
                return tuple(a[m] + t * (b[m] - a[m]) for m in range(3))
        return pts[-1][1]

    # Shifted marks; the last one wraps around the period and is offset by the
    # period displacement of the lift (an even translation, under which the
    # wall count is exactly equivariant).
    cells = [_cell(pos_at(quarter * i + delta)) for i in range(4)]
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
