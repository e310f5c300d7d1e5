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

alpha is a signed crossing count against a fixed leaf representing eta.
That representative is pushed off the special leaves (which pass through
square centers and edge midpoints) so that crossings stay transverse; on a
degenerate configuration the computation retries with a different pushoff.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence, Union

from .flow import (
    B,
    Cylinder,
    DegenerateIntersection,
    L,
    R,
    Segment,
    SurfaceTrace,
    _fraction_segments,
    _leaf,
    cylinder_decomposition,
    reverse_chain,
    signed_crossings,
)

# Denominators here are even multiples of primes that rarely divide trace
# coordinates; collisions are caught and retried anyway.  The two lists are
# kept disjoint so the sigma and eta representatives never degenerate against
# each other.
_PUSHOFFS = tuple(Fraction(1, 2) + Fraction(1, 2 * p) for p in (7, 11, 13, 17, 19, 23, 29, 31))
_PUSHOFFS_ETA = tuple(Fraction(1, 2) + Fraction(1, 2 * p) for p in (37, 41, 43, 47, 53, 59, 61, 67))


class HomologyError(RuntimeError):
    pass


def trace_leaf(surface, sq: int, x: Fraction, y: Fraction, d: tuple[int, int],
               budget: int = 100_000) -> list[Segment]:
    """Trace the closed leaf through an edge or interior point, exactly.

    The starting state may sit on an edge (just after a crossing); closure is
    detected when the post-crossing state repeats.
    """
    p, q = d
    den = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    sc = 2 * den * max(abs(p), 1) * max(abs(q), 1)
    x0, y0 = int(x * sc), int(y * sc)
    chain: list[tuple[int, int, int, int, int]] = []
    anchor = None
    for steps, (sq_i, xi, yi, dx, dy, _, nx, ny, side) in enumerate(
        _leaf(surface.glue, sc, sq, x0, y0, p, q)
    ):
        if steps:
            # (sq_i, xi, yi, dx, dy) is the state just after the last crossing.
            state = (sq_i, xi, yi, dx, dy)
            if anchor is None:
                anchor = state
            elif state == anchor:
                # One full period: segments from the start point back to
                # itself.  (For an edge start the final segment degenerates to
                # a point and is dropped.)
                last = chain[steps - 1]
                segs = chain[: steps - 1] + [(*last[:3], x0, y0)]
                return _fraction_segments([s for s in segs if s[1:3] != s[3:]], sc)
            if steps > budget:
                raise HomologyError("leaf failed to close")
        if side is None:
            raise HomologyError("leaf hit a cone point")
        chain.append((sq_i, xi, yi, nx, ny))


def _sigma_rep(surface, attempt: int) -> list[Segment]:
    key = ("sigma_rep", attempt)
    if key in surface._cache:
        return surface._cache[key]
    gamma0 = surface.marked_curves["gamma0"]
    sq0, x0, y0, x1, y1 = gamma0[0]
    eps = 1 if x1 > x0 else -1
    h = _PUSHOFFS[attempt]
    chain = trace_leaf(surface, sq0, (x0 + x1) / 2, h, (eps, 0))
    surface._cache[key] = chain
    return chain


def _eta_rep(surface, attempt: int) -> list[Segment]:
    key = ("eta_rep", attempt)
    if key in surface._cache:
        return surface._cache[key]
    deco = surface._cache.get("eta_deco")
    if deco is None:
        deco = cylinder_decomposition(surface, (1, 1))
        surface._cache["eta_deco"] = deco
    lam = _PUSHOFFS_ETA[attempt]
    last_error = None
    for cyl in deco.cylinders:
        if cyl.area != 1:
            continue
        (edge, lo, hi) = cyl.intervals[0]
        par = lo + lam * (hi - lo)
        sq_c, side_c = edge
        if side_c == L:
            start = (sq_c, Fraction(0), par, (1, 1))
        elif side_c == R:
            start = (sq_c, Fraction(1), par, (-1, -1))
        elif side_c == B:
            start = (sq_c, par, Fraction(0), (1, 1))
        else:
            start = (sq_c, par, Fraction(1), (-1, -1))
        chain = trace_leaf(surface, start[0], start[1], start[2], start[3])
        try:
            # Standard intersection form: i_a(sigma, eta) = +1.
            pairing = signed_crossings(chain, _sigma_rep(surface, attempt))
        except DegenerateIntersection as exc:
            last_error = exc
            continue
        if pairing == 1:
            surface._cache[key] = chain
            return chain
        if pairing == -1:
            chain = reverse_chain(chain)
            surface._cache[key] = chain
            return chain
    if last_error is not None:
        raise last_error
    raise HomologyError("no area-1 cylinder pairs with sigma")


def _as_chain(surface, c) -> list[Segment]:
    if isinstance(c, SurfaceTrace):
        if not c.closed:
            raise ValueError("homology needs a closed curve")
        return c.segments
    return list(c)


def gamma0_intersection(surface, c: Union[Cylinder, SurfaceTrace, Sequence[Segment]]) -> int:
    """Signed crossing number of a closed curve with the marked horizontal
    curve (upward crossings minus downward crossings).

    The marked curve runs at height 1/2 in every square, with x-direction
    ``eps[sq]``.  A pass of ``y = 1/2`` counts ``+eps[sq]`` upward and
    ``-eps[sq]`` downward; a pass at a segment endpoint is counted once, on
    the segment that leaves the endpoint.  A cylinder is counted on the
    integer form of its core.
    """
    if isinstance(c, Cylinder):
        chain, half = c.core_segments, c.scale // 2
    else:
        chain, half = _as_chain(surface, c), Fraction(1, 2)
    eps = {sq: 1 if x1 > x0 else -1 for sq, x0, _, x1, _ in surface.marked_curves["gamma0"]}
    total = 0
    for sq, _, y0, _, y1 in chain:
        if y0 <= half < y1:
            total += eps[sq]
        elif y1 < half <= y0:
            total -= eps[sq]
    return total


def homology_coordinates(surface, c: Union[SurfaceTrace, Sequence[Segment]]) -> tuple[int, int]:
    """Coordinates (alpha, beta) of a closed curve in the {sigma, eta} basis.

    alpha = i_a(c, eta) and beta = -i_a(c, sigma) for the standard
    intersection form normalized by i_a(sigma, eta) = +1.  With the
    marked-curve orientation the beta coordinate coincides with the signed
    crossing count over the horizontal curve.
    """
    chain = _as_chain(surface, c)
    beta = gamma0_intersection(surface, chain)
    for attempt in range(len(_PUSHOFFS)):
        try:
            alpha = -signed_crossings(chain, _eta_rep(surface, attempt))
            return alpha, beta
        except DegenerateIntersection:
            continue
    raise HomologyError("all pushoffs degenerate against the curve")
