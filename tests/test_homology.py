"""The exact marked-curve count against the pushoff crossing count."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from mucube.flow import (
    DegenerateIntersection,
    SurfacePoint,
    cylinder_decomposition,
    signed_crossings,
    trace_surface,
)
from mucube.homology import _PUSHOFFS, _sigma_rep, gamma0_intersection


def pushoff_gamma0_count(Y, chain) -> int:
    """Reference count: signed crossings of the chain over a horizontal leaf
    pushed off mid-height, retried with another pushoff when the leaf meets
    the chain at a segment endpoint."""
    if all(y0 == y1 for _, _, y0, _, y1 in chain):
        return 0
    for attempt in range(len(_PUSHOFFS)):
        try:
            return signed_crossings(chain, _sigma_rep(Y, attempt))
        except DegenerateIntersection:
            continue
    raise AssertionError("all pushoffs degenerate against the chain")


def primitive(n):
    return [
        (p, q)
        for p in range(-n, n + 1)
        for q in range(-n, n + 1)
        if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1
    ]


def test_count_matches_pushoffs_up_to_25(Y):
    starts = (
        SurfacePoint(0, Fraction(1, 2), Fraction(1, 2)),
        SurfacePoint(0, Fraction(1, 2), Fraction(1, 3)),
    )
    chains = 0
    endpoint_passes = 0
    for d in primitive(25):
        for cyl in cylinder_decomposition(Y, d).cylinders:
            assert gamma0_intersection(Y, cyl) == pushoff_gamma0_count(Y, cyl.core_chain)
            assert gamma0_intersection(Y, cyl.core_chain) == gamma0_intersection(Y, cyl)
            chains += 1
        for start in starts:
            t = trace_surface(Y, start, d, 10_000)
            if not t.closed:
                assert t.stop_reason == "cone_point"
                continue
            assert gamma0_intersection(Y, t) == pushoff_gamma0_count(Y, t.segments)
            endpoint_passes += sum(
                x1 in (0, 1) and y1 == Fraction(1, 2) for _, _, _, x1, y1 in t.segments
            )
            chains += 1
    assert chains >= 5000
    # The sweep reaches passes of mid-height through edge midpoints, the case
    # a half-open count has to get right.
    assert endpoint_passes > 1000


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(st.integers(-2000, 2000), st.integers(-2000, 2000)).filter(
        lambda d: gcd(abs(d[0]), abs(d[1])) == 1
    )
)
def test_count_matches_pushoffs_on_large_cores(Y, d):
    for cyl in cylinder_decomposition(Y, d).cylinders:
        assert gamma0_intersection(Y, cyl) == pushoff_gamma0_count(Y, cyl.core_chain)
