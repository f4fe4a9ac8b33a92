"""Connections on the exact sequence L -> H -> G and their curvature.

A connection is fiberwise-linear lift data: a splitting matrix on the
downstairs tangent coordinates (one-point models) or vertical coefficient
polynomials over the base (gauge models).  Every edge of a cube is lifted
in one place, `lifted_edge`: one slice down to the edge, one `apply`, read
at the edge's generator; `forms` and `bianchi` take their edges from it too.
The lift of a microsquare is the path of two lifted edges and its curvature
the loop of four, read off the top coefficient by
`microcalc.kernel_loop_tangent`.  The named presets and the random connections of
each shipped configuration live in `sampling`, next to the samplers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, Sequence

from .matrices import Matrix
from .microcalc import (
    Microcube,
    Section,
    TangentData,
    as_kernel_tangent,
    bisection_product,
    bracket_sections,
    from_tangent,
    kernel_loop_tangent,
    make_microcube,
    slice_multi,
    strong_diff,
    transpose,
)
from .models import (
    Arrow,
    GroupoidModel,
    Point,
    TrivialGaugeModel,
    compose,
    compose_all,
    invert,
)
from .polynomials import PolyMatrix
from .weil import WeilAlgebra, _exact, algebra


class ConnectionError_(ValueError):
    """Connection data violates the section or linearity contract."""


class CurvatureError(ValueError):
    """The curvature word came out structurally wrong (broken model data)."""


class SplittingConnection:
    """One-point models: a linear right inverse of the projection on
    tangent coordinates, given by images of the coordinate directions."""

    def __init__(self, model: GroupoidModel, images: Sequence):
        self.model = model
        self.images = tuple(
            tuple(tuple(Fraction(_exact(v)) for v in row) for row in img) for img in images
        )
        basis = model.lie_basis("G")
        if len(self.images) != len(basis):
            raise ConnectionError_("one image per downstairs direction required")
        alg0 = algebra([])
        for img, b in zip(self.images, basis):
            down = model.project_vert(Matrix.from_rational(img, alg0))
            if down != Matrix.from_rational(b, alg0):
                raise ConnectionError_("images do not split the projection")
        self._by_algebra: dict = {}

    def _images_in(self, alg: WeilAlgebra) -> tuple[Matrix, ...]:
        # every lift in one cube or square shares a handful of algebras
        cached = self._by_algebra.get(alg)
        if cached is None:
            cached = tuple(Matrix.from_rational(img, alg) for img in self.images)
            self._by_algebra[alg] = cached
        return cached

    def apply(self, td: TangentData) -> TangentData:
        if td.grp != "G":
            raise ConnectionError_("connections lift G-tangents")
        alg = td.algebra
        coords = self.model.g_coords(td.vert)
        vert = Matrix.zero(self.model.spec("H").size, alg)
        for c, img in zip(coords, self._images_in(alg)):
            if not c.is_zero():
                vert = vert + img * c
        return TangentData(self.model, "H", td.anchor, td.direction, vert)


class GaugeConnection:
    """Gauge models: vertical coefficient matrices, polynomial in the base
    point.  The lift of a velocity v at x has body I - d * (sum_i A_i(x) v_i),
    the parallel-transport convention that lines the curvature up with the
    classical coefficient formula dA + A^A on coordinate squares."""

    def __init__(self, model: TrivialGaugeModel, coeffs: Sequence[PolyMatrix]):
        if not isinstance(model, TrivialGaugeModel):
            raise ConnectionError_("vertical coefficients need a gauge model")
        if len(coeffs) != model.base_dim:
            raise ConnectionError_("one coefficient matrix per base axis")
        size = model.spec("H").size
        for pm in coeffs:
            if pm.size != size:
                raise ConnectionError_("coefficient size must match the structure group")
            if pm.nvars != model.base_dim:
                raise ConnectionError_("coefficients must take one variable per base axis")
            if model.structure == "sl2" and not pm.trace_is_zero():
                raise ConnectionError_("sl2 coefficients must be traceless")
        self.model = model
        self.coeffs = tuple(coeffs)
        self._at: dict = {}

    def _coefficients_at(self, x):
        # anchors repeat heavily across slices of one cube
        cached = self._at.get(x)
        if cached is None:
            cached = tuple(pm(x) for pm in self.coeffs)
            self._at[x] = cached
        return cached

    def apply(self, td: TangentData) -> TangentData:
        if td.grp != "G":
            raise ConnectionError_("connections lift G-tangents")
        alg = td.algebra
        size = self.model.spec("H").size
        vert = Matrix.zero(size, alg)
        for mat, v in zip(self._coefficients_at(td.anchor), td.direction):
            if not v.is_zero():
                vert = vert - mat * v
        return TangentData(self.model, "H", td.anchor, td.direction, vert)


Connection = SplittingConnection | GaugeConnection


class LiftedSection(Section):
    """The H-section obtained by lifting a G-section through a connection."""

    def __init__(self, conn: Connection, base: Section):
        if base.grp != "G":
            raise ConnectionError_("only G-sections lift")
        self.model = base.model
        self.grp = "H"
        self.conn = conn
        self.base = base

    def at(self, x: Point, alg: WeilAlgebra) -> TangentData:
        return self.conn.apply(self.base.at(x, alg))


# ---------------------------------------------------------------------------
# lifted edges, the lift of a microsquare and its curvature


def lifted_edge(
    conn: Connection, cube: Microcube, corner: Collection[int], k: int
) -> Arrow:
    """The lift of the edge along argument k from the corner where the
    arguments in `corner` are on and the others are 0."""
    frozen = {i: g if i in corner else 0 for i, g in enumerate(cube.args, 1) if i != k}
    td = conn.apply(from_tangent(slice_multi(cube, frozen)))
    return td.arrow_at(cube.algebra.gen(cube.args[k - 1]))


def lift(conn: Connection, cube: Microcube) -> Microcube:
    """Lift a microsquare: the path O -> A -> D of two lifted edges."""
    if cube.degree != 2:
        raise CurvatureError("lift expects a microsquare")
    arrow = compose(lifted_edge(conn, cube, {1}, 2), lifted_edge(conn, cube, (), 1))
    return make_microcube(arrow, cube.args)


def curvature(conn: Connection, cube: Microcube) -> TangentData:
    """The kernel-valued tangent measuring the holonomy defect of the lift
    around a microsquare: the loop O -> B -> D -> A -> O of lifted edges,
    read off its top coefficient."""
    if cube.degree != 2:
        raise CurvatureError("curvature expects a microsquare")
    oa, ad, bd, ob = (
        lifted_edge(conn, cube, corner, k)
        for corner, k in (((), 1), ({1}, 2), ({2}, 1), ((), 2))
    )
    word = compose_all(invert(oa), invert(ad), bd, ob)
    return kernel_loop_tangent(word, cube, CurvatureError)


def curvature_via_strong_diff(conn: Connection, cube: Microcube) -> TangentData:
    """Equivalent computation: transpose-lift-transpose against the plain
    lift, compared by strong difference."""
    lifted = lift(conn, cube)
    other = transpose(lift(conn, transpose(cube)))
    return as_kernel_tangent(strong_diff(other, lifted))


# ---------------------------------------------------------------------------
# the structure equation


def structure_equation(
    conn: Connection,
    x_sec: Section,
    y_sec: Section,
    x: Point,
    alg: WeilAlgebra,
):
    """Both sides of the curvature structure equation at the point x.

    Left: curvature of the bisection square of the two sections.
    Right: lift of the section bracket minus the bracket of the lifts.
    Returns the pair of kernel tangents (exactly comparable); raises
    `CurvatureError` unless the lift distributes over the bisection square."""
    d1 = alg.fresh_name("s1")
    ext = alg.extend(d1)
    d2 = ext.fresh_name("s2")
    ext = ext.extend(d2)
    xe = tuple(c.convert(ext) for c in x)
    square = bisection_product(y_sec, x_sec, xe, (d1, d2), ext)
    lhs = curvature(conn, square).convert(alg)

    xy = bracket_sections(x_sec, y_sec, x, alg)
    lift_x = LiftedSection(conn, x_sec)
    lift_y = LiftedSection(conn, y_sec)
    rhs_h = conn.apply(xy) - bracket_sections(lift_x, lift_y, x, alg)
    rhs = as_kernel_tangent(rhs_h)

    lifted_square = lift(conn, square)
    product_of_lifts = bisection_product(lift_y, lift_x, xe, (d1, d2), ext)
    if lifted_square.arrow != product_of_lifts.arrow:
        raise CurvatureError("lift does not distribute over the bisection square")
    return lhs, rhs
