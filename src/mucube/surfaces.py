"""Finite square-tiled quotients of the triply periodic surface.

``build_x`` constructs the 12-square genus-3 quotient by the lattice of even
translations, together with the Z^3 edge cocycle that measures how a path
moves between fundamental domains upstairs.  ``build_y`` constructs the
4-square genus-1 quotient of X by the order-3 coordinate rotation, with the
horizontal mid-height curve marked.

Both surfaces are generated from the 3D model rather than transcribed from
square pictures: representative faces are chosen per orbit, charts are
propagated by unfolding from a fixed seed, and every chart transition is
required to be plus or minus the identity (this is exactly the statement that
parallel direction fields exist).  The construction aborts if any structural
check fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Optional

from .flow import (
    _FAN_SIDE,
    B,
    L,
    OPPOSITE,
    R,
    SIDE_NAMES,
    SurfacePoint,
    SurfaceTrace,
    T,
    trace_surface,
)
from .homology import gamma0_intersection
from .mucube3d import (
    AXES,
    Chart,
    Face,
    IDENTITY_ROT,
    IN_PLANE,
    InternalGeometryError,
    Mat3,
    RigidMotion,
    ROT3_XYZ,
    SEED_CHART,
    SEED_FACE,
    _next_face,
    chart_is_valid,
    mat_mul,
    mat_transpose,
    mat_vec,
)

IntTriple = tuple[int, int, int]


class SurfaceConstructionError(RuntimeError):
    pass


@dataclass
class Surface:
    """A square-tiled half-translation surface given by its gluing table."""

    name: str
    glue: dict[tuple[int, int], tuple[int, int, bool]]
    cocycle: Optional[dict[tuple[int, int], IntTriple]] = None
    reps: Optional[list[Face]] = None
    charts: Optional[list[Chart]] = None
    # gamma0 on Y: the closed horizontal trace through square 0's center.
    marked_curves: dict[str, SurfaceTrace] = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def n(self) -> int:
        return 1 + max(sq for sq, _ in self.glue)

    # -- structural checks -------------------------------------------------

    def validate(self) -> None:
        n = self.n
        for sq in range(n):
            for side in (L, R, B, T):
                if (sq, side) not in self.glue:
                    raise SurfaceConstructionError(f"missing gluing at {(sq, side)}")
        for (sq, side), (sq2, side2, flip) in self.glue.items():
            back = self.glue[(sq2, side2)]
            if back != (sq, side, flip):
                raise SurfaceConstructionError(
                    f"gluing is not an involution at {(sq, side)}"
                )
            expected = side if flip else OPPOSITE[side]
            if side2 != expected:
                raise SurfaceConstructionError(
                    f"side pairing {(sq, side)} -> {(sq2, side2)} "
                    f"inconsistent with flip={flip}"
                )
        self._vertex_fans()  # raises if some corner fan fails to close evenly
        if self.cocycle is not None:
            self._validate_cocycle()

    def _validate_cocycle(self) -> None:
        assert self.cocycle is not None
        for (sq, side), w in self.cocycle.items():
            sq2, side2, flip = self.glue[(sq, side)]
            w2 = self.cocycle[(sq2, side2)]
            if tuple(w2) != tuple(-v for v in w):
                raise SurfaceConstructionError("cocycle is not antisymmetric")
        # The loop around every vertex must have zero total weight.
        for corners, _ in self._vertex_fans():
            acc = (0, 0, 0)
            for sq, c in corners:
                w = self.cocycle[(sq, _FAN_SIDE[c])]
                acc = (acc[0] + w[0], acc[1] + w[1], acc[2] + w[2])
            if acc != (0, 0, 0):
                raise SurfaceConstructionError(
                    f"vertex loop has nonzero cocycle weight {acc}"
                )

    # -- vertices and genus -------------------------------------------------

    def _vertex_fans(self):
        if "fans" in self._cache:
            return self._cache["fans"]
        n = self.n
        seen = set()
        fans = []
        for sq in range(n):
            for c in range(4):
                if (sq, c) in seen:
                    continue
                cycle = []
                cur = (sq, c)
                while cur not in seen:
                    seen.add(cur)
                    cycle.append(cur)
                    cur = self._fan_step(cur)
                if cur != (sq, c):
                    raise SurfaceConstructionError("corner fan did not close")
                if len(cycle) % 2:
                    raise SurfaceConstructionError("vertex angle not a multiple of pi")
                fans.append((cycle, len(cycle) // 2))  # angle = (len/2) * pi
        self._cache["fans"] = fans
        return fans

    def _fan_step(self, corner):
        sq, c = corner
        side = _FAN_SIDE[c]
        sq2, side2, flip = self.glue[(sq, side)]
        par = _CORNER_PARAM[(c, side)]
        par2 = 1 - par if flip else par
        return (sq2, _CORNER_AT[(side2, par2)])

    def singularity_signature(self) -> tuple[int, ...]:
        """Sorted cone angles (multiples of pi), omitting regular points."""
        return tuple(sorted(k for _, k in self._vertex_fans() if k != 2))

    def genus(self) -> int:
        v = len(self._vertex_fans())
        chi = v - self.n  # V - E + F with E = 2n, F = n
        if chi % 2:
            raise SurfaceConstructionError("odd Euler characteristic")
        return (2 - chi) // 2

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"# surface {self.name} squares={self.n}"]
        for sq in range(self.n):
            for side in (L, R, B, T):
                sq2, side2, flip = self.glue[(sq, side)]
                line = f"{sq} {SIDE_NAMES[side]} -> {sq2} {SIDE_NAMES[side2]} flip={int(flip)}"
                if self.cocycle is not None:
                    w = self.cocycle[(sq, side)]
                    line += f" w={w[0]},{w[1]},{w[2]}"
                lines.append(line)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Surface":
        glue = {}
        cocycle = {}
        name = "surface"
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split()
                if len(parts) >= 3:
                    name = parts[2]
                continue
            toks = line.split()
            sq, side = int(toks[0]), SIDE_NAMES.index(toks[1])
            sq2, side2 = int(toks[3]), SIDE_NAMES.index(toks[4])
            flip = bool(int(toks[5].split("=")[1]))
            glue[(sq, side)] = (sq2, side2, flip)
            for tok in toks[6:]:
                if tok.startswith("w="):
                    w = tuple(int(v) for v in tok[2:].split(","))
                    cocycle[(sq, side)] = w
        return cls(name=name, glue=glue, cocycle=cocycle or None)


_CORNER_PARAM = {
    (0, L): 0, (3, L): 1, (1, R): 0, (2, R): 1,
    (0, B): 0, (1, B): 1, (3, T): 0, (2, T): 1,
}
_CORNER_AT = {
    (L, 0): 0, (L, 1): 3, (R, 0): 1, (R, 1): 2,
    (B, 0): 0, (B, 1): 1, (T, 0): 3, (T, 1): 2,
}


# ---------------------------------------------------------------------------
# Quotient construction from the 3D model
# ---------------------------------------------------------------------------

THETA_ROT = ROT3_XYZ  # (x, y, z) -> (z, x, y), the order-3 coordinate rotation
# theta^k for k = 0, 1, 2; theta^-k is _THETA_POWERS[-k].
_THETA_POWERS = (
    RigidMotion(IDENTITY_ROT), RigidMotion(THETA_ROT), RigidMotion(mat_mul(THETA_ROT, THETA_ROT)),
)


def _pull_back(rotation: Mat3, chart: Chart) -> Chart:
    """The chart's two vectors under ``rotation``."""
    return (mat_vec(rotation, chart[0]), mat_vec(rotation, chart[1]))


def _flip(pulled: Chart, existing: Chart) -> Optional[bool]:
    """False if ``pulled`` is ``existing``, True if it is its negative, else None."""
    if pulled == existing:
        return False
    return True if pulled == tuple(tuple(-c for c in vec) for vec in existing) else None


def _x_canonical(face: Face) -> tuple[Face, RigidMotion]:
    """Representative of a face modulo even translations, and the motion
    g with face = g(rep)."""
    rep_c = tuple(v % 4 for v in face.center2x)
    t = tuple((face.center2x[k] - rep_c[k]) // 4 for k in AXES)
    return Face(rep_c, face.axis), RigidMotion(IDENTITY_ROT, t)  # type: ignore[arg-type]


def _y_canonical(face: Face) -> tuple[Face, RigidMotion]:
    """Representative modulo even translations and the order-3 rotation."""
    best = None
    for k, g_rot in enumerate(_THETA_POWERS):
        rep, g_tr = _x_canonical(_THETA_POWERS[-k].apply_face(face))
        # face = g_rot( g_tr( rep ) )
        key = (rep.axis, rep.center2x)
        if best is None or key < best[0]:
            best = (key, rep, g_rot.compose(g_tr))
    _, rep, g = best
    return rep, g


def rotation_square_action() -> list[tuple[int, bool]]:
    """Action induced on the squares of the 12-square quotient by the
    order-3 coordinate rotation: square index plus a chart-flip bit."""
    surf = build_x()
    rot = _THETA_POWERS[1]
    index = {rep: k for k, rep in enumerate(surf.reps)}
    out = []
    for rep, chart in zip(surf.reps, surf.charts):
        # The image's representative differs from it by a translation only.
        sq2 = index[_x_canonical(rot.apply_face(rep))[0]]
        flip = _flip(_pull_back(rot.rotation, chart), surf.charts[sq2])
        if flip is None:
            raise SurfaceConstructionError("rotation action is not +-identity on charts")
        out.append((sq2, flip))
    return out


def _side_wall(face: Face, chart: Chart, side: int):
    """Ambient wall (in-plane axis, doubled coordinate, exit sign) of a chart side."""
    u, v = chart
    vec = u if side in (L, R) else v
    sign = 1 if side in (R, T) else -1
    w = max(AXES, key=lambda k: abs(vec[k]))
    s_exit = sign * vec[w]
    wall2x = face.center2x[w] + s_exit
    return w, wall2x, s_exit


def _transport_chart(face: Face, chart: Chart, w: int, s_exit: int, nbr: Face) -> Chart:
    """Continue the chart across the edge by unfolding.

    Crossing the wall on in-plane axis w with exit sign s_exit sends the exit
    vector s_exit*e_w to sign_a*e_a (into the neighbor) and fixes the edge
    direction, where a is the old normal axis.
    """
    a = face.axis
    sign_a = nbr.center2x[a] - face.center2x[a]

    def tmap(vec):
        out = [0, 0, 0]
        j = next(k for k in IN_PLANE[a] if k != w)
        out[j] = vec[j]
        out[a] = sign_a * s_exit * vec[w]
        return tuple(out)

    return (tmap(chart[0]), tmap(chart[1]))


# Side of a chart whose midpoint lies at (x u + y v) / 2 from the center.
_MID_SIDE = {(-1, 0): L, (1, 0): R, (0, -1): B, (0, 1): T}


def _chart_side_of_edge(rep: Face, chart: Chart, mid2x) -> int:
    """The chart side whose doubled midpoint is ``mid2x``."""
    d = [m - c for m, c in zip(mid2x, rep.center2x)]
    side = _MID_SIDE.get(tuple(sum(d[k] * vec[k] for k in AXES) for vec in chart))
    if side is None:
        raise InternalGeometryError("edge midpoint not on the chart boundary")
    return side


def _build_quotient(
    name: str,
    canonical: Callable[[Face], tuple[Face, RigidMotion]],
    expect_squares: int,
    with_cocycle: bool,
) -> Surface:
    seed_rep, seed_g = canonical(SEED_FACE)
    seed_chart = _pull_back(seed_g.inverse().rotation, SEED_CHART)
    if not chart_is_valid(seed_rep, seed_chart):
        raise SurfaceConstructionError("transported seed chart is not right-handed")

    reps: list[Face] = [seed_rep]
    charts: list[Chart] = [seed_chart]
    idx = {seed_rep: 0}
    glue: dict[tuple[int, int], tuple[int, int, bool]] = {}
    cocycle: dict[tuple[int, int], IntTriple] = {}

    queue = [0]
    head = 0
    while head < len(queue):
        sq = queue[head]
        head += 1
        rep, chart = reps[sq], charts[sq]
        for side in (L, R, B, T):
            if (sq, side) in glue:
                continue
            w, wall2x, s_exit = _side_wall(rep, chart, side)
            nbr_c2x, nbr_axis = _next_face(rep.center2x, rep.axis, w, wall2x)
            nbr = Face(nbr_c2x, nbr_axis)
            cont_chart = _transport_chart(rep, chart, w, s_exit, nbr)

            rep2, g2 = canonical(nbr)
            pulled = _pull_back(mat_transpose(g2.rotation), cont_chart)
            if rep2 not in idx:
                if not chart_is_valid(rep2, pulled):
                    raise SurfaceConstructionError("transported chart not right-handed")
                idx[rep2] = len(reps)
                reps.append(rep2)
                charts.append(pulled)
                queue.append(idx[rep2])
            sq2 = idx[rep2]
            existing = charts[sq2]
            flip = _flip(pulled, existing)
            if flip is None:
                raise SurfaceConstructionError(
                    f"chart transition at {(sq, side)} is not +-identity"
                )

            # Side of the partner square along the shared edge.
            mid2x = list(rep.center2x)
            mid2x[w] = wall2x
            side2 = _chart_side_of_edge(rep2, existing, g2.inverse().apply_doubled(mid2x))
            expected = side if flip else OPPOSITE[side]
            if side2 != expected:
                raise SurfaceConstructionError(
                    f"edge side mismatch at {(sq, side)}: got {side2}"
                )

            glue[(sq, side)] = (sq2, side2, flip)
            glue[(sq2, side2)] = (sq, side, flip)
            if with_cocycle:
                if g2.rotation != IDENTITY_ROT:
                    raise SurfaceConstructionError("cocycle needs translation quotient")
                t = g2.translation
                cocycle[(sq, side)] = t
                cocycle[(sq2, side2)] = tuple(-v for v in t)

    if len(reps) != expect_squares:
        raise SurfaceConstructionError(
            f"{name}: expected {expect_squares} squares, found {len(reps)}"
        )
    surf = Surface(
        name=name,
        glue=glue,
        cocycle=cocycle if with_cocycle else None,
        reps=reps,
        charts=charts,
    )
    surf.validate()
    return surf


@cache
def build_x() -> Surface:
    """The 12-square quotient by even translations, with its Z^3 cocycle."""
    surf = _build_quotient("X", _x_canonical, 12, with_cocycle=True)
    if surf.genus() != 3:
        raise SurfaceConstructionError("X must have genus 3")
    if surf.singularity_signature() != (3,) * 8:
        raise SurfaceConstructionError("X must have eight cone points of angle 3*pi")
    return surf


_CENTER = SurfacePoint(0, Fraction(1, 2), Fraction(1, 2))


@cache
def build_y() -> Surface:
    """The 4-square quotient of X by the order-3 rotation, with the
    horizontal mid-height curve marked as ``marked_curves["gamma0"]``: the
    closed trace from square 0's center in direction (1, 0), or (-1, 0)
    when calibration finds that one oriented against the deck directions."""
    surf = _build_quotient("Y", _y_canonical, 4, with_cocycle=False)
    if surf.genus() != 1:
        raise SurfaceConstructionError("Y must have genus 1")
    if surf.singularity_signature() != (1, 1, 3, 3):
        raise SurfaceConstructionError(
            "Y must have two cone points of angle pi and two of angle 3*pi"
        )

    mid = trace_surface(surf, _CENTER, (1, 0))
    if not mid.closed:
        raise SurfaceConstructionError("horizontal mid-height curve does not close")
    if len({seg[0] for seg in mid.scaled_segments}) != 4 or mid.s_total != 4:
        raise SurfaceConstructionError("horizontal flow is not a single area-4 cylinder")
    surf.marked_curves["gamma0"] = mid

    # Orient the marked curve coherently with the deck directions upstairs:
    # the signed crossing count of a projected path must equal the coordinate
    # sum of its displacement on the 12-square quotient.
    x_surf = build_x()
    for probe_dir in ((1, 2), (2, 1), (1, 6), (2, 5), (5, 2), (6, 1)):
        probe = trace_surface(x_surf, _CENTER, probe_dir)
        if not probe.closed:
            continue
        abc = sum(probe.displacement)
        if abc == 0:
            continue
        i_val = gamma0_intersection(surf, trace_surface(surf, _CENTER, probe_dir))
        if abs(i_val) != abs(abc):
            raise SurfaceConstructionError(
                f"marked-curve calibration failed: i={i_val}, a+b+c={abc}"
            )
        if i_val != abc:
            surf.marked_curves["gamma0"] = trace_surface(surf, _CENTER, (-1, 0))
            # The count above cached weights read from the other curve.
            surf._cache.clear()
        break
    else:
        raise SurfaceConstructionError("no usable calibration probe")
    return surf


# ---------------------------------------------------------------------------
# Minimal translation cover
# ---------------------------------------------------------------------------

def minimal_translation_cover(s: Surface) -> Surface:
    """Double cover gluing the surface to its -Id copy along flip edges.

    Squares 0..n-1 are the original sheet, n..2n-1 the rotated sheet (chart
    related by z -> (1,1) - z).  The result has no flip gluings.  For an input
    that already is a translation surface the two sheets are disjoint copies.
    """
    n = s.n
    glue: dict[tuple[int, int], tuple[int, int, bool]] = {}
    rot_side = OPPOSITE  # the -Id copy sees each side as its opposite

    for (sq, side), (sq2, side2, flip) in s.glue.items():
        if flip:
            glue[(sq, side)] = (sq2 + n, rot_side[side2], False)
            glue[(sq + n, rot_side[side])] = (sq2, side2, False)
        else:
            glue[(sq, side)] = (sq2, side2, False)
            glue[(sq + n, rot_side[side])] = (sq2 + n, rot_side[side2], False)

    cover = Surface(name=f"{s.name}~", glue=glue)
    cover.validate()
    for (sq, side), (sq2, side2, flip) in cover.glue.items():
        if flip:
            raise SurfaceConstructionError("cover still has flip gluings")
    return cover
