"""The wall-to-wall leaf stepper the tracers used before the cutting-word
walk, and the two tracers built on it, kept as references.

``_leaf`` finds every wall by a division and yields each segment with the
full state it starts in.  ``ref_trace_surface`` and
``ref_cylinder_decomposition`` are ``flow.trace_surface`` and
``flow.cylinder_decomposition`` as they were on top of it.  Each returns
its result without a walk, with the lists the result's views must give, and
the package's word walk is tested against them field by field and view by
view.  ``_canonical_edge`` names an edge by the smaller of its two sides, as
the references do.  ``reverse_chain`` runs a chain of segments backwards.
``ref_classify_y`` is the 4-square decider that walks every cylinder of the
decomposition, the reference for ``classify.classify_y``, which counts them
along Euclid's algorithm first.  ``ref_sheet_tables`` reads the gluing
tables of one sign quadrant from ``glue`` and ``cocycle`` on their own, the
reference for ``flow._sheet_tables``, which picks them by sign from one
sheet record.  ``point_from_ambient`` places an ambient point on a face of
the surface in 3D, in a given chart.
"""

from fractions import Fraction
from math import gcd

from mucube.classify import DRIFT, PERIODIC, Classification
from mucube.exact import SqrtLength
from mucube.flow import (
    B,
    HORIZONTAL_SIDES,
    L,
    R,
    T,
    VERTICAL_SIDES,
    Cylinder,
    Decomposition,
    FlowBudgetError,
    SurfacePoint,
    SurfaceTrace,
    _canonical_param,
    cylinder_decomposition,
)
from mucube.homology import gamma0_intersection
from mucube.mucube3d import AXES, Point3
from mucube.surfaces import build_y


def _canonical_edge(surface, sq, side):
    sq2, side2, flip = surface.glue[(sq, side)]
    a, b = (sq, side), (sq2, side2)
    return min(a, b)


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


def ref_trace_surface(
    surface,
    start: SurfacePoint,
    direction: tuple[int, int],
    max_crossings: int = 100_000,
):
    """Trace the flow from an interior point until it closes up.

    Closure means returning to the same point of the same square with the
    same direction.  Flip gluings negate the direction, so orientation
    bookkeeping is a single sign.  Returns a ``SurfaceTrace`` without its
    walk, then the crossings and the segments its views must give.
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
            last = segments[n_cross - 1]
            segments = segments[: n_cross - 1] + [(*last[:3], x0, y0)]
        return SurfaceTrace(
            direction=(p, q),
            closed=closed,
            stop_reason=reason,
            s_total=Fraction(s, sc),
            displacement=disp,
            scale=sc,
            cone_point=cone_point,
        ), crossings, segments

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
        segments.append((sq, x, y, nx, ny))
        if side is None:
            cone = SurfacePoint(sq, Fraction(nx, sc), Fraction(ny, sc))
            return finish("cone_point", s_scaled, acc, cone)
        n_cross += 1
        crossings.append((s_scaled, sq, side))
        if cocycle is not None:
            w = cocycle[(sq, side)]
            acc = (acc[0] + w[0], acc[1] + w[1], acc[2] + w[2])


def ref_cylinder_decomposition(surface, direction: tuple[int, int]):
    """The slot-lattice decomposition with one core leaf per cylinder, each
    crossing's slot found by integer division.  Returns the decomposition
    and, per cylinder, the lists its views should hold: (squares,
    scaled_intervals, core_segments)."""
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
    views = []

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
                scale=sc2,
            )
        )
        views.append((squares, group, core_segments))

    deco = Decomposition(direction=(p, q), cylinders=cylinders)
    if deco.total_area != n:
        raise FlowBudgetError(
            f"decomposition areas {deco.total_area} do not add up to {n}"
        )
    return deco, views


def reverse_chain(chain):
    return [(sq, x1, y1, x0, y0) for sq, x0, y0, x1, y1 in reversed(chain)]


def ref_classify_y(d) -> Classification:
    """Decide periodicity on the 4-square quotient from its full cylinder
    decomposition: one core leaf walked per cylinder, and the marked-curve
    intersection of the core when there is a single cylinder."""
    p, q = d
    surf = build_y()
    deco = cylinder_decomposition(surf, (p, q))
    single = len(deco.cylinders) == 1
    inter = gamma0_intersection(surf, deco.cylinders[0]) if single else None
    verdict = PERIODIC if single and inter == 0 else DRIFT
    return Classification(
        (p, q),
        verdict,
        "y",
        {"cylinders": len(deco.cylinders), "core_intersection": inter},
    )


def _per_sheet(table, n: int, exits) -> list:
    """Per letter kind and sheet, the value of ``table`` (keyed by square and
    side) at the side the leaf leaves by: ``exits[kind]`` for a + and a -
    sheet."""
    flat = [None] * (4 * n)
    for (sq, side), value in table.items():
        flat[4 * sq + side] = value
    rows = []
    for plus, minus in exits:
        row = [None] * (2 * n)
        row[0::2] = flat[plus::4]
        row[1::2] = flat[minus::4]
        rows.append(row)
    return rows


def ref_sheet_tables(surface, dx: int, dy: int):
    """The sheet tables of the sign quadrant of ``(dx, dy)``, read for that
    quadrant alone: ``(exits, steps, weights)``, each indexed by the letter
    kind (1 for a vertical wall), with the side a + and a - sheet leave by,
    per sheet the sheet entered, and per sheet the cocycle's weight at the
    side left by (None without a cocycle).  A zero component counts as
    negative."""
    n = surface.n
    exits = ((T, B) if dy > 0 else (B, T)), ((R, L) if dx > 0 else (L, R))
    steps = tuple(
        tuple(2 * sq2 + (sheet & 1 ^ flip) for sheet, (sq2, _, flip) in enumerate(row))
        for row in _per_sheet(surface.glue, n, exits)
    )
    cocycle = getattr(surface, "cocycle", None)
    weights = None if cocycle is None else tuple(map(tuple, _per_sheet(cocycle, n, exits)))
    return exits, steps, weights


def point_from_ambient(face, chart, p) -> Point3:
    """The point of ``face`` at the ambient point ``p``, in ``chart``."""
    cu, cv = chart
    corner = Point3(face, chart, Fraction(0), Fraction(0)).corner()
    d = [Fraction(p[k]) - corner[k] for k in AXES]
    u = sum(d[k] * cu[k] for k in AXES)
    v = sum(d[k] * cv[k] for k in AXES)
    pt = Point3(face, chart, u, v)
    if pt.ambient() != tuple(Fraction(c) for c in p):
        raise ValueError("point does not lie on the face")
    return pt
