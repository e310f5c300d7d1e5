"""Exact analysis of the straight-line flow on the triply periodic
half-translation surface built from unit squares in 3-space.

The package decides, for any primitive integer direction, whether the flow
is periodic or drift-periodic, by three mutually cross-checking methods:
exact tracing in the 3D embedding, the displacement cocycle on the
12-square quotient, and the cylinder/intersection criterion on the 4-square
quotient.  It also carries the matrix-group side of the story: witness
words, the homology representation, and the continued fractions with
partial quotients in 4Z.
"""

from .exact import SqrtLength, frac_str
from .mucube3d import (
    Face,
    Point3,
    RigidMotion,
    SEED_CHART,
    SEED_FACE,
    Trajectory3D,
    cone_points_in_box,
    drift_vector,
    faces_in_box,
    find_quarter_symmetry,
    is_face,
    face_patch_in_surface,
    point_in_surface,
    trace3d,
    trajectory_diameter,
    twist_length_prediction,
    twist_slope,
)
from .surfaces import Surface, build_x, build_y, minimal_translation_cover
from .flow import (
    Cylinder,
    Decomposition,
    SurfacePoint,
    SurfaceTrace,
    cylinder_decomposition,
    trace_surface,
)
from .homology import gamma0_intersection, homology_coordinates
from .classify import (
    Classification,
    MethodDisagreement,
    classify_all,
    classify_group,
    classify_oracle,
    classify_x,
    classify_y,
    quarter_displacement_check,
    three_cylinder_check,
    verify_certificate,
)
from .grouptheory import (
    ContinuedFraction,
    GroupWord,
    column_has_witness,
    column_witness,
    convergents,
    eval_word,
    find_witness,
    fourey_direction,
    fourey_word,
    hurwitz_check,
    is_in_gamma,
    recurrence_classify,
    rho,
    witness_table,
)

__version__ = "0.1.0"
