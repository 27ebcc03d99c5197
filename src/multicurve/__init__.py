"""Multicurve monoids on punctured surfaces and their boundary polytopes.

The package computes, from an ideal triangulation of a punctured surface:
the admissible-coloring coordinates of multicurves, the barbell-tree
generators of the coloring monoid and of its rational cone, the face
lattice and boundary polytope complexes of that cone (with sphere
certificates), coloring transfer under diagonal flips, combinatorial GIT
stability of weighted point configurations on the line, and numerically or
exactly verified identities of the quadric trace parametrization.
"""

from .triangulation import (
    Triangulation,
    DualGraph,
    build,
    dual_graph,
    fixture,
    flip,
    flower,
    is_isomorphic,
    load,
)
from .coloring import (
    Coloring,
    corner_coords,
    degree,
    enumerate_admissible,
    from_corners,
    is_admissible,
    is_interior,
    peripheral_colorings,
    relative_degree,
)
from .tracing import (
    TracedComponent,
    geometric_sum,
    strip_peripheral,
    trace_components,
)
from .barbell import (
    BarbellTree,
    enumerate_barbell_trees,
    enumerate_simple,
    in_rational_cone,
    is_indecomposable,
    monoid_generates,
)
from .polytope import (
    ConeFaceLattice,
    PolytopeComplex,
    cone_face_lattice,
    mutation_transfer,
    relative_complex,
    sphere_certificate,
)
from .gitstab import (
    Stability,
    classify_partition,
    is_nondegenerate,
    is_symmetric,
    polystable_splits,
    symmetric_weights,
    toric_polytope,
)
from .quadric import (
    ConicPoint,
    MobiusMap,
    ProjectivePoint,
    QuadricPoint,
    conic_from_angle_parameter,
    conic_from_beta,
    conic_from_t_elliptic,
    equivariance_check,
    eta_matrix,
    evaluate_F,
    fricke_verify,
    gamma_involution,
    quadric_point,
    tau_matrix,
    z_relation_verify,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
