"""Connections on the exact sequence L -> H -> G and their curvature.

A connection is fiberwise-linear lift data, one `Connection` for every
model: images of the downstairs coordinate directions, one per free cell of
G (a splitting of the projection), and vertical coefficient polynomials,
one per base axis (a gauge potential).  The model fixes both counts, so a
one-point model takes only images and a gauge model only coefficients.
The linear map is one function, `_linear_map`, which checks the data
against the Lie algebra of its target group (`MatrixGroup.lie_contains`)
and is shared with the one-form of `forms`; the two differ only in the
sign of the gauge part.  It works on integer tables: it reads the free
cells of a tangent's table by position and its images' tables (constant
matrices over `models.ALG0`) as they are, checks each monomial's
coefficient matrix of a `PolyMatrix`, and evaluates the coefficients at
one anchor from one shared monomial table.
Every edge of a cube is lifted in one place, `lifted_edge`; `forms` and
`bianchi` take their edges from it too.  Each axis is read once,
at its far corner (`microcalc.Microcube.far_edge`); the edge from any other
corner is that tangent with the off arguments dropped by a drop plan of
`weil`, a map of algebras, or read directly at the origin; both reads are
`microcalc._edge_tangent`.  Each connection keeps each distinct edge's lift,
keyed by its value, for as long as it lives (the samplers build one per
trial).  A lift not yet kept is the kept far-corner lift of its axis dropped
the same way; only when that is missing too is it one `apply`, read at the
edge's generator and checked for membership in H, since `apply` is outside
data.  `curvature` reads a square's two far-corner edges first, so a fresh
square costs two applies, and `bianchi.build_cube` lifts the far corners
first, so a fresh cube costs three applies and three checks.  Its face
curvatures and `forms.d_nabla` read the kept lifts: the faces share their
edges with the cube as equal values, and a face sliced without renaming
inherits the cube's far reads (`microcalc.slice_multi`).
`apply` must therefore be a function of its tangent (a stateful one is seen
once per distinct edge), and it must commute with dropping generators.
The linear map does: polynomial evaluation and a rational-linear map
commute with maps of algebras.
The lift of a microsquare is the path of two lifted edges, wrapped unchecked
by `microcalc._cube` since both are checked, and its curvature the loop of
four, read off the top coefficient by `microcalc.kernel_loop_tangent`.
The named presets and the random connections of each shipped configuration
live in `sampling`, next to the samplers.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Collection, Sequence

from . import microcalc
from .matrices import Matrix, _combine, _normal
from .microcalc import (
    CubeError,
    Microcube,
    Section,
    TangentData,
    _edge_tangent,
    _fresh_pair,
    _tangent_drop,
    arrow_drop,
    as_kernel_tangent,
    bisection_product,
    bracket_sections,
    kernel_loop_tangent,
    permute,
    strong_diff,
)
from .models import Arrow, GroupoidModel, Point, compose, compose_all, invert
from .polynomials import PolyMatrix
from .weil import WeilAlgebra


class ConnectionError_(ValueError):
    """Connection data violates the section or linearity contract."""


class CurvatureError(ValueError):
    """The curvature word came out structurally wrong (broken model data)."""


def _linear_map(
    model: GroupoidModel,
    grp: str,
    images: Sequence,
    coeffs: Sequence[PolyMatrix],
    error: type,
    sign: int = 1,
) -> tuple[tuple, Callable[[TangentData], Matrix]]:
    """The checked images and the map
    td -> sum_k td.vert[cell_k] * images[k] + sign * sum_i A_i(anchor) * v_i
    into the `grp` coefficients, cell_k the k-th free cell of G
    (`model.spec("G").free`) and v the base velocity.  Raises `error`
    unless each free cell has one image, a constant matrix over `ALG0` in
    the Lie algebra of `grp`, and each base axis one coefficient matrix of
    `grp`'s size in one variable per base axis, each of whose monomials'
    matrices lies in that Lie algebra.  The map reads the free cells off
    vert's table by position and writes the images' integer tables over one
    common denominator straight into the result's; the A_i are read per
    anchor, from one shared monomial table."""
    cells = model.spec("G").free
    if len(images) != len(cells):
        raise error("one image per downstairs direction required")
    images = tuple(model._lie_value(grp, img, error, "each image") for img in images)
    if len(coeffs) != model.base_dim:
        raise error("one coefficient matrix per base axis")
    spec = model.spec(grp)
    n = spec.size
    for pm in coeffs:
        if pm.size != n:
            raise error("coefficient size must match the structure group")
        if pm.nvars != model.base_dim:
            raise error("coefficients must take one variable per base axis")
        if not spec.lie_contains(pm):
            raise error(f"coefficients must lie in the Lie algebra of {grp}")
    den = lcm(*(img._den for img in images))
    g = model.spec("G").size
    # (flat position of the free cell in G, the image's nonzero flat entries)
    reads = []
    for (i, j), img in zip(cells, images):
        scale = den // img._den
        entries = tuple((k, a * scale) for k, a in enumerate(img._t.get(0, ())) if a)
        reads.append((i * g + j, entries))
    at: dict = {}  # anchors repeat heavily across slices of one cube

    def vert_map(td: TangentData) -> Matrix:
        vert = td.vert
        out: dict[int, tuple[int, ...]] = {}
        for m, v in vert._t.items():
            acc = None
            for cell, entries in reads:
                c = v[cell]
                if c:
                    if acc is None:
                        acc = [0] * (n * n)
                    for k, a in entries:
                        acc[k] += c * a
            if acc is not None:
                out[m] = tuple(acc)
        vert = _normal(vert.algebra, n, out, vert._den * den)
        if coeffs:
            mats = at.get(td.anchor)
            if mats is None:
                mono: dict = {}
                mats = at[td.anchor] = tuple(pm(td.anchor, mono) for pm in coeffs)
            for mat, v in zip(mats, td.direction):
                if not v.is_zero():
                    vert = _combine(vert, mat * v, sign)
        return vert

    return images, vert_map


class Connection:
    """A linear lift of G-tangents to H-tangents: images of the coordinate
    directions, constant matrices over `ALG0`, one per free cell of G, that
    split the projection; and vertical coefficient matrices A_i, polynomial
    in the base point, one per base axis.  A tangent at x with velocity v
    and vertical part w lifts to vertical part sigma(w) - sum_i A_i(x) v_i,
    the parallel-transport convention that lines the curvature up with the
    classical coefficient formula dA + A^A on coordinate squares."""

    def __init__(self, model: GroupoidModel, images: Sequence = (), coeffs: Sequence = ()):
        self.model = model
        # (algebra, generator, tangent) -> lifted arrow, see `lifted_edge`
        self._edges: dict = {}
        self.coeffs = tuple(coeffs)
        self.images, self._vert = _linear_map(
            model, "H", images, self.coeffs, ConnectionError_, -1
        )
        for img, b in zip(self.images, model.spec("G").lie_basis):
            if model.project_vert(img) != b:
                raise ConnectionError_("images do not split the projection")

    def apply(self, td: TangentData) -> TangentData:
        if td.grp != "G":
            raise ConnectionError_("connections lift G-tangents")
        return TangentData(self.model, "H", td.anchor, td.direction, self._vert(td))


# the benchmark tracer wraps `apply` under the names of the two former kinds
SplittingConnection = GaugeConnection = Connection


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
    arguments in `corner` are on and the others are 0.

    Each axis is read once per cube, at its far corner
    (`Microcube.far_edge`), and this edge's tangent is that read with the
    off arguments dropped.  An edge from the origin is read there instead,
    by the same `microcalc._edge_tangent` and with no inverse, until the
    cube has read its axis at the far corner.
    The lift of an edge the connection has not seen is the far-corner lift
    dropped the same way when that one is already kept, since `apply`
    commutes with dropping generators and a drop of a checked arrow stays
    in H; otherwise it is `apply` read at the edge's generator and checked
    for membership in H, since `apply` is outside data.  The memo keeps
    every distinct edge for as long as the connection lives, so each is
    applied and checked at most once."""
    if not 1 <= k <= cube.degree:
        raise CubeError(f"edge index {k} out of range")
    alg, g = cube.algebra, cube.args[k - 1]
    off = [h for i, h in enumerate(cube.args, 1) if i != k and i not in corner]
    far = cube.far_edge(k) if corner or k in cube.far_edges else None
    if far is None:
        td = _edge_tangent(arrow_drop(cube.arrow, off), (g,))
    else:
        td = _tangent_drop(far, off) if off else far
    key = (alg, g, td)  # equal tangents over distinct algebras stay apart
    arrow = conn._edges.get(key)
    if arrow is None:
        far_arrow = None if far is None else conn._edges.get((alg, g, far))
        if far_arrow is not None:
            arrow = arrow_drop(far_arrow, off)
        else:
            arrow = cube.model.check(conn.apply(td).arrow_at(alg.gen(g)))
        conn._edges[key] = arrow
    return arrow


def lift(conn: Connection, cube: Microcube) -> Microcube:
    """Lift a microsquare: the path O -> A -> D of two lifted edges.  Both
    are checked, so their composite is a cube by group closure and is
    wrapped unchecked by `microcalc._cube`, looked up at call time."""
    if cube.degree != 2:
        raise CurvatureError("lift expects a microsquare")
    arrow = compose(lifted_edge(conn, cube, {1}, 2), lifted_edge(conn, cube, (), 1))
    return microcalc._cube(arrow, cube.args)


def curvature(conn: Connection, cube: Microcube) -> TangentData:
    """The kernel-valued tangent measuring the holonomy defect of the lift
    around a microsquare: the loop O -> B -> D -> A -> O of lifted edges,
    read off its top coefficient.  The edges A -> D and B -> D are lifted
    first, so O -> A and O -> B are drops of their lifts and a fresh square
    costs two applies."""
    if cube.degree != 2:
        raise CurvatureError("curvature expects a microsquare")
    ad, bd, oa, ob = (
        lifted_edge(conn, cube, corner, k)
        for corner, k in (({1}, 2), ({2}, 1), ((), 1), ((), 2))
    )
    word = compose_all(invert(oa), invert(ad), bd, ob)
    return kernel_loop_tangent(word, cube, CurvatureError)


def curvature_via_strong_diff(conn: Connection, cube: Microcube) -> TangentData:
    """Equivalent computation: transpose-lift-transpose against the plain
    lift, compared by strong difference."""
    lifted = lift(conn, cube)
    other = permute(lift(conn, permute(cube, (2, 1))), (2, 1))
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
    ext, d1, d2 = _fresh_pair(alg, "s1", "s2")
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
