#!/usr/bin/env python3
"""The twist operation: building large periodic trajectories.

Twisting a periodic trajectory around the cylinders of a transverse
periodic direction yields a new periodic trajectory; around the vertical
direction slopes move by s -> 4k + s.  Alternating vertical and horizontal
twists grows the diameter by exactly two per step, and the exact length of
a k-fold twist is a closed-form square root.
"""

from fractions import Fraction

from mucube import (
    Point3,
    SEED_CHART,
    SEED_FACE,
    trace3d,
    trajectory_diameter,
    twist_length_prediction,
    twist_slope,
)

print("== alternating twists from the horizontal trajectory ==")
slope = Fraction(0)
for step in range(6):
    axis = "vertical" if step % 2 == 0 else "horizontal"
    slope = twist_slope(slope, axis, 1)
    d = (slope.denominator, slope.numerator)
    t = trace3d(Point3.face_center(SEED_FACE, SEED_CHART), d)
    print(f"step {step + 1} ({axis:>10}): slope {str(slope):>8}  "
          f"arc {str(t.arc_length):>14}  diameter {trajectory_diameter(t)}")

print()
print("== exact twist lengths around the horizontal axis ==")
for k in (1, 2, 3, 10):
    pred = twist_length_prediction(4, 1, ((1, 0), (0, 1)), k, 4)
    print(f"k = {k:>2}: predicted length {pred}")
    if k <= 3:
        traced = trace3d(Point3.face_center(SEED_FACE, SEED_CHART), (4 * k, 1))
        assert pred == traced.arc_length
        print(f"        traced length    {traced.arc_length}  (exact match)")
