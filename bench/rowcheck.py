"""Independent re-derivation of scan CSV rows.

Each row is re-traced from its own ``(p, q)``, never from its canonical
representative, with plain ``Fraction`` arithmetic in the 3D model.  Faces
are found from the point-set definition of the surface
(``face_patch_in_surface``), not from the derived integer predicate, and no
stepping code is shared with ``mucube.mucube3d.trace3d``.  A row is correct
when it equals, byte for byte, the row re-derived here.
"""

from __future__ import annotations

from fractions import Fraction

from mucube.mucube3d import IN_PLANE, SEED_CHART, SEED_FACE, Point3, face_patch_in_surface

HALF = Fraction(1, 2)


class SlowTraceError(RuntimeError):
    """The slow tracer met a state the surface model does not allow."""


def _face_across(center2x, axis, wall_axis, wall2x):
    found = []
    for step in (1, -1):
        cand = list(center2x)
        cand[wall_axis] = wall2x
        cand[axis] += step
        if face_patch_in_surface(cand, wall_axis, grid=1):
            found.append(tuple(cand))
    if len(found) != 1:
        raise SlowTraceError(f"{len(found)} faces across the edge of {center2x}")
    return found[0]


def slow_verdict(p: int, q: int):
    """``("periodic", period, (0, 0, 0))``, ``("drift", None, t)`` with the
    translation ``t`` in ``Z^3``, or ``("cone", None, None)``.

    The start point is the one the library's deciders use: the seed face
    center, or ``(1/2, 1/3)`` for odd/odd directions whose center line runs
    into corners.
    """
    odd_odd = p % 2 and q % 2
    u0, v0 = (HALF, Fraction(1, 3)) if odd_odd else (HALF, HALF)
    pos = list(Point3(SEED_FACE, SEED_CHART, u0, v0).ambient())
    cu, cv = SEED_CHART
    d = [p * cu[k] + q * cv[k] for k in range(3)]
    center, axis = SEED_FACE.center2x, SEED_FACE.axis
    anchor = None
    t = t_anchor = Fraction(0)
    for _ in range(500 * (abs(p) + abs(q)) + 1000):
        hits = []
        for w in IN_PLANE[axis]:
            if d[w]:
                wall = Fraction(center[w] + (1 if d[w] > 0 else -1), 2)
                hits.append(((wall - pos[w]) / d[w], w, wall))
        dt = min(h[0] for h in hits)
        first = [h for h in hits if h[0] == dt]
        if len(first) > 1:
            return ("cone", None, None)
        _, w, wall = first[0]
        pos = [pos[k] + d[k] * dt for k in range(3)]
        t += dt
        new_center = _face_across(center, axis, w, int(2 * wall))
        new_d = list(d)
        new_d[axis] = (new_center[axis] - center[axis]) * abs(d[w])
        new_d[w] = 0
        center, axis, d = new_center, w, new_d
        state = (tuple(pos), tuple(d))
        if anchor is None:
            anchor, t_anchor = state, t
        elif state == anchor:
            return ("periodic", t - t_anchor, (0, 0, 0))
        elif state[1] == anchor[1]:
            diff = [a - b for a, b in zip(state[0], anchor[0])]
            if any(diff) and all(x.denominator == 1 and x.numerator % 2 == 0 for x in diff):
                return ("drift", None, tuple(x.numerator // 2 for x in diff))
    raise SlowTraceError(f"({p}, {q}) neither closed nor drifted within budget")


def expected_row(p: int, q: int) -> str:
    """The scan CSV row that is true of the direction ``(p, q)`` itself."""
    verdict, period, t = slow_verdict(p, q)
    if verdict == "periodic" and period == 4:
        return f"{p},{q},periodic,4,0,0,0"
    if verdict == "drift":
        return f"{p},{q},drift,0,{t[0]},{t[1]},{t[2]}"
    return f"{p},{q},{verdict}"


def row_error(line: str):
    """None when ``line`` is the row re-derived from its own direction, else
    a message naming both rows."""
    try:
        p, q = (int(v) for v in line.split(",")[:2])
        want = expected_row(p, q)
    except (ValueError, SlowTraceError) as exc:
        return f"row {line!r}: {exc}"
    if line != want:
        return f"row {line!r} != re-derived {want!r}"
    return None
