"""Homology bookkeeping on the genus-1 quotient.

The basis used everywhere is {sigma, eta}: sigma is the class of the
horizontal mid-height curve, eta the class of the core of the area-1
cylinder in the (1,1) direction, oriented so that their algebraic
intersection is +1.  Coordinates of a traced closed curve c are

    alpha = i(c, eta),    beta = -i(c, sigma).

beta is the signed count of the curve's passes of height 1/2, where the
marked curve gamma0 runs, and it is exact with no degenerate case.  Every
gluing preserves the height 1/2 (a flip maps y to 1 - y), so a pass through
an edge at mid-height shows on both sides of the edge and is counted once,
on the segment that leaves it.  Every corner of the quotient is a cone
point, which a closed leaf never meets.

alpha is an integer edge cochain summed over the edges the curve exits.
Since every corner is a cone point, the quotient minus its corners retracts
onto the dual graph (square centers joined across glued edges), so a class
in H^1 is one integer weight per glued edge, negated across the gluing and
summing to zero around every corner fan.  alpha is the class that is 1 on
sigma and 0 on eta; its weights are found on first use, among weights in
{-1, 0, 1}, and cached on the surface.  The same mechanism carries the Z^3
displacement cocycle of the 12-square quotient.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import product
from math import lcm
from typing import Sequence, Union

from .flow import (
    _FAN_SIDE,
    B,
    Cylinder,
    DegenerateIntersection,
    L,
    R,
    Segment,
    SurfaceTrace,
    T,
    _exit_sides,
    cylinder_decomposition,
)


class HomologyError(RuntimeError):
    pass


def _closed(c: Union[Cylinder, SurfaceTrace]) -> Union[Cylinder, SurfaceTrace]:
    if isinstance(c, SurfaceTrace) and not c.closed:
        raise ValueError("homology needs a closed curve")
    return c


def _exits(c: Union[Cylinder, SurfaceTrace, Sequence[Segment]]) -> list[tuple[int, int]]:
    """The edges ``(square, side)`` a closed curve exits, one per crossing:
    per segment of a core's or a closed trace's period, the side its sheet
    leaves by at its letter (``flow._exit_sides``), or the segment ends of
    a chain that lie on a wall."""
    if isinstance(c, (Cylinder, SurfaceTrace)):
        (_, _, dx, dy, _, kinds), first, sheets, count = _closed(c)._period()
        exits, n = _exit_sides(dx, dy), len(kinds)
        return [
            (st >> 1, exits[kinds[(first + g) % n]][st & 1]) for g, st in enumerate(sheets[:count])
        ]
    exits = []
    for sq, _, _, x, y in c:
        if x in (0, 1) and y in (0, 1):
            raise ValueError("chain passes through a corner")
        if x in (0, 1):
            exits.append((sq, R if x else L))
        elif y in (0, 1):
            exits.append((sq, T if y else B))
    return exits


def _eta_weights(surface) -> dict[tuple[int, int], int]:
    """Weight per glued edge ``(square, side)`` of the cochain that is 1 on
    sigma and 0 on eta, derived on first use."""
    weights = surface._cache.get("eta_weights")
    if weights is None:
        cores = [
            cyl for cyl in cylinder_decomposition(surface, (1, 1)).cylinders
            if cyl.area == 1 and abs(gamma0_intersection(surface, cyl)) == 1
        ]
        if not cores:
            raise HomologyError("no area-1 cylinder pairs with sigma")
        fans = [[(sq, _FAN_SIDE[c]) for sq, c in corners] for corners, _ in surface._vertex_fans()]
        sigma = _exits(surface.marked_curves["gamma0"])
        weights = _cocycle(surface.glue, fans, sigma, _exits(cores[0]))
        surface._cache["eta_weights"] = weights
    return weights


def _cocycle(glue, fans, one, zero) -> dict[tuple[int, int], int]:
    """The first weights in {-1, 0, 1} per glued edge pair, in a fixed order,
    that are negated across each gluing, sum to zero around every corner fan
    (lists of crossed edges), and sum to 1 over the exits ``one`` and to 0
    over the exits ``zero``.  Solutions differ by coboundaries, which vanish
    on closed curves."""
    pairs = sorted({min(edge, glue[edge][:2]) for edge in glue})
    for values in product((-1, 0, 1), repeat=len(pairs)):
        w = {}
        for edge, v in zip(pairs, values):
            w[edge] = v
            w[glue[edge][:2]] = -v
        if (
            all(w[edge] == -w[glue[edge][:2]] for edge in glue)
            and all(sum(w[edge] for edge in fan) == 0 for fan in fans)
            and sum(w[edge] for edge in one) == 1
            and sum(w[edge] for edge in zero) == 0
        ):
            return w
    raise HomologyError("no edge cocycle in {-1, 0, 1} is 1 on sigma and 0 on eta")


def _mid_letters(sc: int, y0: int, dy: int, times) -> list[int]:
    """The letters of a word (see ``flow._pieces``) whose piece passes height
    sc / 2.

    The line ``y0 + dy t`` meets the heights sc / 2 + k sc at |dy| steps t
    per unit, integers at either tracer's scale.  The pieces of a unit tile
    it half-open, letter i's over ``times[i - 1] <= t < times[i]`` (letter
    0's from the previous unit's last crossing), and y is monotone along a
    piece, so a piece passes sc / 2 by the half-open rule of
    ``gamma0_intersection`` exactly when such a step lies in its range.
    """
    if not dy:
        return []
    return [
        bisect_right(times, (sc // 2 - y0 + k * sc) // dy % sc) % len(times)
        for k in range(abs(dy))
    ]


def _pass_weights(surface) -> tuple[int, ...]:
    """Per sheet, what a pass of height 1/2 in a word with dy > 0 counts
    there: its + piece passes upward, so ``eps[sq]`` on sheet ``2 sq`` and
    the negation on sheet ``2 sq + 1``, where ``eps[sq]`` is the marked
    curve's x-direction in square ``sq``, read from its integer segments.
    A word with dy < 0 passes every sheet the other way and counts the
    negation.  Built once and kept in ``surface._cache``."""
    weight = surface._cache.get("gamma0_passes")
    if weight is None:
        gamma0 = surface.marked_curves["gamma0"]
        eps = {sq: 1 if x1 > x0 else -1 for sq, x0, _, x1, _ in gamma0.scaled_segments}
        weight = surface._cache["gamma0_passes"] = tuple(
            (-1 if st & 1 else 1) * eps[st >> 1] for st in range(2 * len(eps))
        )
    return weight


def _walk_passes(surface, sc: int, word, first: int, sheets, count: int) -> int:
    """Signed passes of height sc / 2 by a walk whose segment g < count runs
    along the piece of letter (first + g) mod n of ``word`` on sheet
    ``sheets[g]`` (``_period`` of a trace or a cylinder).

    Only the letters whose piece passes (``_mid_letters``) are visited, at
    the sheets the walk holds there, one per unit, and each counts its
    sheet's ``_pass_weights``, negated when dy < 0.  A - piece is its +
    piece reflected through the square's center, which fixes height sc / 2
    and swaps the half-open ends of the rule: it passes exactly when the +
    piece does, the other way, and a piece that ends at mid-height passes
    on neither sheet, since its pass is the next letter's.
    """
    _, y0, _, dy, times, _ = word
    letters = len(times)
    weight = _pass_weights(surface)
    at = [(i - first) % letters for i in _mid_letters(sc, y0, dy, times)]
    total = sum([weight[sheets[g + r]] for g in range(0, count, letters) for r in at])
    return total if dy > 0 else -total


def gamma0_intersection(surface, c: Union[Cylinder, SurfaceTrace, Sequence[Segment]]) -> int:
    """Signed crossing number of a closed curve with the marked horizontal
    curve (upward crossings minus downward crossings).

    The marked curve is a closed horizontal trace at height 1/2 through
    every square; ``eps[sq]`` is its x-direction there, read from its
    integer segments.  A pass of ``y = 1/2`` counts ``+eps[sq]`` upward and
    ``-eps[sq]`` downward; a pass at a segment endpoint is counted once, on
    the segment that leaves the endpoint.  A cylinder's core and a closed
    trace are counted on their walks, in units of 1/scale, with no segment
    built: the letters of the cutting word whose piece passes height
    scale / 2 are found once per call from the word (``_mid_letters``), and
    the walk's sheets there are summed with the sign each sheet's own piece
    passes by (``_walk_passes``, from weights cached per surface).
    """
    if isinstance(c, (Cylinder, SurfaceTrace)):
        return _walk_passes(surface, c.scale, *_closed(c)._period())
    # A + sheet's upward weight is eps of its square.
    eps = _pass_weights(surface)[0::2]
    total = 0
    for sq, _, y0, _, y1 in c:
        if 2 * y0 <= 1 < 2 * y1:
            total += eps[sq]
        elif 2 * y1 < 1 <= 2 * y0:
            total -= eps[sq]
    return total


def homology_coordinates(surface, c: Union[SurfaceTrace, Sequence[Segment]]) -> tuple[int, int]:
    """Coordinates (alpha, beta) of a closed curve in the {sigma, eta} basis.

    alpha = i_a(c, eta) and beta = -i_a(c, sigma) for the standard
    intersection form normalized by i_a(sigma, eta) = +1.  alpha is the sum
    of the edge weights over the edges the curve exits; beta is the signed
    crossing count over the marked horizontal curve.
    """
    exits = _exits(c)
    weights = _eta_weights(surface)
    return sum(weights[edge] for edge in exits), gamma0_intersection(surface, c)


def signed_crossings(moving: Sequence[Segment], rep: Sequence[Segment]) -> int:
    """Algebraic crossing number of ``moving`` over ``rep``.

    A crossing is +1 when the moving curve passes from the right-hand side of
    the representative to its left-hand side.  Crossings at segment endpoints
    or collinear overlaps raise DegenerateIntersection; a caller retries with
    a perturbed representative.  This geometric count is independent of the
    edge cochain above, which makes it a reference for it.  Coordinates
    (ints or Fractions) are scaled by their common denominator, so the count
    is exact in integers and divides nothing.
    """
    den = lcm(*(c.denominator for seg in (*moving, *rep) for c in seg[1:]))
    by_square: dict[int, list] = {}
    for sq, *xy in rep:
        by_square.setdefault(sq, []).append([c.numerator * (den // c.denominator) for c in xy])
    total = 0
    for sq, *xy in moving:
        ax0, ay0, ax1, ay1 = (c.numerator * (den // c.denominator) for c in xy)
        ux, uy = ax1 - ax0, ay1 - ay0
        if ux == 0 and uy == 0:
            continue
        for bx0, by0, bx1, by1 in by_square.get(sq, ()):
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
            # The crossing is at t = tn / denom along moving, s = sn / denom
            # along rep; the sign is that of vx uy - vy ux = -denom.
            tn, sn, sign = wx * vy - wy * vx, wx * uy - wy * ux, -1
            if denom < 0:
                denom, tn, sn, sign = -denom, -tn, -sn, 1
            if 0 < tn < denom and 0 < sn < denom:
                total += sign
            elif tn in (0, denom) and 0 <= sn <= denom:
                raise DegenerateIntersection("crossing at a segment endpoint")
            elif sn in (0, denom) and 0 <= tn <= denom:
                raise DegenerateIntersection("crossing at a segment endpoint")
    return total
