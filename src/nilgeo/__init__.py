"""Exact square-zero infinitesimal calculus on matrix groupoids.

The layers build on each other: `weil` (quotient algebras of square-zero
generators), `matrices`/`polynomials` (exact linear and polynomial data),
`models` (the shipped groupoids with their exact sequences), `microcalc`
(micro-cubes, tangents, differences, brackets, bisections), `connection`
(lifts and curvature), `forms` (kernel-valued forms and the covariant
derivative), `bianchi` (cube holonomy and both Bianchi identities), and
`cli`/`suites` (the configuration-driven verification harness).
"""

from .weil import WeilAlgebra, WeilElement, algebra
from .matrices import Matrix
from .models import Arrow, all_models, build_model, compose, compose_all, invert
from .microcalc import (
    Microcube,
    Section,
    TangentData,
    bisection_product,
    bracket,
    bracket_sections,
    degenerate_square,
    diff1,
    diff2,
    from_tangent,
    make_microcube,
    permute,
    scale_arg,
    slice_cube,
    strong_diff,
    tau,
    transpose,
)
from .connection import (
    Connection,
    curvature,
    curvature_via_strong_diff,
    lift,
    structure_equation,
)
from .sampling import preset_connection
from .forms import Form, curvature_form, d_nabla, validate_form
from .bianchi import (
    build_cube,
    face_loop,
    reduce_word,
    verify_abstract_bianchi,
    verify_classical_bianchi,
)

__version__ = "0.1.0"
