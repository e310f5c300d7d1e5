#!/usr/bin/env python3
"""Trace straight-line orbits through the 3D model and export them.

The surface is tiled by unit squares; a direction (p, q) is read in the
chart of a seed face and has slope q/p.  Orbits either close up after arc
length exactly 4*sqrt(p^2+q^2), hit a cone point, or drift: they repeat
shifted by a translation in (2Z)^3.
"""

import json
from fractions import Fraction

from mucube import Point3, SEED_CHART, SEED_FACE, frac_str, trace3d, trajectory_diameter

center = Point3.face_center(SEED_FACE, SEED_CHART)

print("== the horizontal core orbit ==")
t = trace3d(center, (1, 0))
print("closed:", t.closed, " arc length:", t.arc_length, " diameter:", trajectory_diameter(t))
print("vertices:")
for v in t.vertices:
    print("   ", tuple(frac_str(c) for c in v))

print()
print("== slope 1/4: the first twisted trajectory ==")
t = trace3d(center, (4, 1))
print("closed:", t.closed, " arc length:", t.arc_length)
# Centers are stored doubled, so that they are integer triples.
print("face centers visited:",
      [tuple(frac_str(Fraction(c, 2)) for c in pt) for pt, _ in t.center_visits])

print()
print("== slope 2 drifts ==")
t = trace3d(center, (1, 2))
print("closed:", t.closed, " drift vector:", t.drift_vector)
print("one period runs from", tuple(frac_str(c) for c in t.vertices[0]),
      "to", tuple(frac_str(c) for c in t.vertices[-1]))

payload = {
    "direction": [1, 2],
    "closed": t.closed,
    "drift_vector": list(t.drift_vector),
    "arc_length": str(t.arc_length),
    "vertices": [[frac_str(c) for c in v] for v in t.vertices],
}
print()
print("JSON export of the drifting orbit:")
print(json.dumps(payload, indent=2)[:400], "...")
