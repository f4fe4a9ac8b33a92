"""Cube holonomy: edge arrows, face loops and the two Bianchi identities.

A degree-three cube downstairs determines eight fiber points, labelled

    O at the origin, A/B/C one step along each axis, D/E/F two steps
    (D = 1+2, E = 1+3, F = 2+3) and G at the far corner.

Each of the twelve cube edges is lifted by `connection.lifted_edge` from
the corner of its first vertex to an arrow between adjacent fiber points;
the reversed letter is the inverse arrow.  The edges from the far corners
D, E and F are lifted first: every other edge is a drop of one of those
three lifts.  Face loops multiply four edges
around a face.  The curvature of the face normal to axis i is read at the
product of the other two arguments, with sign (-1)^i on the face at 0 and
the opposite sign at d_i; the face checks and the classical identity both
take their face values from that one rule.  The abstract identity says
a specific 30-letter word in the edges reduces to nothing; its symbolic
form is free cancellation, its numeric form an exact matrix identity.
The classical identity is the vanishing of the derived curvature form,
checked together with the commutation facts the reduction rides on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .connection import Connection, curvature, lifted_edge
from .forms import curvature_form, d_nabla
from .matrices import Matrix
from .microcalc import Microcube, TangentData, include_tangent, slice_cube
from .models import Arrow, Point, compose, compose_all, invert

# vertex name -> set of axes (1..3) that are "switched on" at that corner
VERTEX_AXES: dict[str, frozenset[int]] = {
    "O": frozenset(),
    "A": frozenset({1}),
    "B": frozenset({2}),
    "C": frozenset({3}),
    "D": frozenset({1, 2}),
    "E": frozenset({1, 3}),
    "F": frozenset({2, 3}),
    "G": frozenset({1, 2, 3}),
}

VERTICES = tuple(VERTEX_AXES)

# the six faces, oriented as the loop identities use them
FACES = (
    ("O", "A", "D", "B"),
    ("O", "B", "F", "C"),
    ("O", "C", "E", "A"),
    ("G", "D", "A", "E"),
    ("G", "E", "C", "F"),
    ("G", "F", "B", "D"),
)


class CubeBuildError(ValueError):
    """Edge arrows failed their endpoint bookkeeping."""


class WordError(ValueError):
    """A vertex word is not walkable on the cube."""


def _adjacent(x: str, y: str) -> bool:
    return len(VERTEX_AXES[x] ^ VERTEX_AXES[y]) == 1


@dataclass(frozen=True)
class CubeLabeling:
    """All twenty-four directed edge arrows of one lifted cube."""

    conn: Connection
    cube: Microcube
    edges: dict[tuple[str, str], Arrow]
    points: dict[str, Point]

    def edge_arrow(self, x: str, y: str) -> Arrow:
        return self.edges[(x, y)]


def vertex_point(cube: Microcube, vertex: str) -> Point:
    off = [g for k, g in enumerate(cube.args, 1) if k not in VERTEX_AXES[vertex]]
    return tuple(c.drop(off) for c in cube.arrow.target)


def build_cube(conn: Connection, cube: Microcube) -> CubeLabeling:
    """Lift the twelve edges; the edge from X along axis k is the lifted
    edge from the corner of X's axes."""
    if cube.degree != 3:
        raise CubeBuildError("the cube machinery wants a degree-three cube")
    by_axes = {axes: v for v, axes in VERTEX_AXES.items()}
    points = {v: vertex_point(cube, v) for v in VERTICES}
    edges: dict[tuple[str, str], Arrow] = {}
    # the far corners D, E and F first: each of the other edges is then a
    # drop of one of their lifts, so a fresh cube costs three applies
    for x in sorted(VERTICES, key=lambda v: len(VERTEX_AXES[v]) != 2):
        for k in sorted({1, 2, 3} - VERTEX_AXES[x]):
            y = by_axes[VERTEX_AXES[x] | {k}]
            arrow = lifted_edge(conn, cube, VERTEX_AXES[x], k)
            if arrow.source != points[x] or arrow.target != points[y]:
                raise CubeBuildError(f"edge {x}{y} endpoints disagree")
            edges[(x, y)] = arrow
            edges[(y, x)] = invert(arrow)
    return CubeLabeling(conn, cube, edges, points)


def face_loop(labeling: CubeLabeling, cycle: Sequence[str]) -> Arrow:
    """Walk the four-vertex cycle X -> Y -> Z -> W -> X around one face."""
    word = face_words(cycle)
    quad = set(cycle)
    if len(quad) != 4 or not any(quad == set(f) for f in FACES):
        raise WordError(f"{cycle} does not round a face")
    if not all(_adjacent(a, b) for a, b in word):
        raise WordError(f"{cycle} does not walk edges")
    return compose_all(*(labeling.edge_arrow(a, b) for a, b in word))


def face_words(cycle: Sequence[str]) -> list[tuple[str, str]]:
    """The edge letters of the walk X -> Y -> Z -> W -> X, in `compose_all`
    order: the last letter is walked first."""
    if len(cycle) != 4:
        raise WordError(f"{cycle} is not a four-vertex cycle")
    x, y, z, w = cycle
    return [(w, x), (z, w), (y, z), (x, y)]


# ---------------------------------------------------------------------------
# edge words and free reduction


def reduce_word(word: Sequence[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
    """Freely cancel adjacent letter/inverse pairs; confluent in any order."""
    stack: list[tuple[str, str]] = []
    for letter in word:
        if stack and stack[-1] == (letter[1], letter[0]):
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def abstract_word() -> tuple[tuple[str, str], ...]:
    """The cube-holonomy word: conjugated far-face loops against the
    near-face loops, spelled in directed edge letters."""
    word: list[tuple[str, str]] = [("A", "O"), ("D", "A"), ("G", "D")]
    word += face_words(("G", "F", "B", "D"))
    word += face_words(("G", "E", "C", "F"))
    word += face_words(("G", "D", "A", "E"))
    word += [("D", "G"), ("A", "D"), ("O", "A")]
    word += face_words(("O", "C", "E", "A"))
    word += face_words(("O", "B", "F", "C"))
    word += face_words(("O", "A", "D", "B"))
    return tuple(word)


@dataclass(frozen=True)
class AbstractReport:
    symbolic_empty: bool
    numeric_identity: bool
    residue: tuple[tuple[str, str], ...]


def verify_abstract_bianchi(labeling: CubeLabeling) -> AbstractReport:
    word = abstract_word()
    residue = reduce_word(word)
    numeric = compose_all(*[labeling.edge_arrow(*p) for p in word])
    o = labeling.points["O"]
    ok = numeric.source == o and numeric.target == o and numeric.body.is_identity()
    return AbstractReport(residue == (), ok, residue)


def corrupt_edge(
    labeling: CubeLabeling, pair: tuple[str, str], vert_rows
) -> CubeLabeling:
    """Replace one directed edge with a top-degree perturbation of itself,
    leaving its reverse untouched: the letters still cancel symbolically,
    but the matrices no longer do."""
    cube = labeling.cube
    alg = cube.algebra
    top = alg.term(1, cube.args)
    old = labeling.edges[pair]
    bump = Matrix.identity(old.body.size, alg) + Matrix.from_rational(vert_rows, alg) * top
    new_edges = dict(labeling.edges)
    new_edges[pair] = Arrow(old.model, old.grp, old.source, old.target, old.body * bump)
    cube.model.check(new_edges[pair])
    return CubeLabeling(labeling.conn, cube, new_edges, labeling.points)


# ---------------------------------------------------------------------------
# face curvature and the classical identity


def _face_value(cube: Microcube, omega: TangentData, i: int, e) -> Arrow:
    """The curvature `omega` of the face normal to axis i at e (0 or d_i),
    read at the product of the other two arguments: with sign (-1)^i at 0
    and the opposite sign at d_i."""
    others = tuple(g for k, g in enumerate(cube.args, 1) if k != i)
    sign = (-1) ** i if e == 0 else -((-1) ** i)
    return include_tangent(omega).arrow_at(cube.algebra.term(sign, others))


def face_curvature_checks(labeling: CubeLabeling) -> list[tuple[str, bool]]:
    """The three base-face loops against the curvature of the matching
    frozen slices, with the orientation signs the loop word forces."""
    conn, cube = labeling.conn, labeling.cube
    checks = []
    for cycle in FACES[:3]:
        # the base face through O normal to the one axis its corners leave off
        (axis,) = {1, 2, 3}.difference(*(VERTEX_AXES[v] for v in cycle))
        omega = curvature(conn, slice_cube(cube, axis, 0))
        value = _face_value(cube, omega, axis, 0)
        checks.append(("".join(cycle), face_loop(labeling, cycle) == value))
    return checks


def _commute(a: Arrow, b: Arrow) -> bool:
    return compose(a, b) == compose(b, a)


@dataclass(frozen=True)
class ClassicalReport:
    derivative_zero: bool
    commutations: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return self.derivative_zero and all(v for _, v in self.commutations)


def verify_classical_bianchi(conn: Connection, cube: Microcube) -> ClassicalReport:
    """Evaluate the derived curvature form on the cube (it must vanish) and
    assert the commutations of conjugated curvature values that let the
    edge word be rearranged into cancelling blocks.

    Both halves read the six face curvatures through one curvature form,
    which evaluates each distinct face once and keeps its value, so the
    derivative of that same form reads them back.  The cube is lifted
    first, far corners first, so the faces read its kept edge lifts."""
    labeling = build_cube(conn, cube)
    faces = curvature_form(conn)
    omega = {
        (i, e): faces(slice_cube(cube, i, e))
        for i, g in enumerate(cube.args, 1)
        for e in (0, g)
    }
    derivative_zero = d_nabla(conn, faces)(cube).is_zero()

    def conj(g: Arrow, loop: Arrow) -> Arrow:
        return compose_all(invert(g), loop, g)

    face = {(i, e): _face_value(cube, w, i, e) for (i, e), w in omega.items()}
    named = {}
    for (i, g), v in zip(enumerate(cube.args, 1), "ABC"):
        named[f"w{i}"] = face[(i, 0)]
        named[f"c{i}"] = conj(labeling.edge_arrow("O", v), face[(i, g)])
    commutations = []
    keys = list(named)
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            commutations.append((f"{a}~{b}", _commute(named[a], named[b])))

    # the nested conjugation pattern: the far-face value carried back to C
    d1, _, d3 = cube.args
    inner = conj(invert(labeling.edge_arrow("A", "E")), invert(face[(1, d1)]))
    nested = conj(labeling.edge_arrow("C", "E"), inner)
    commutations.append(("nested~far", _commute(nested, face[(3, d3)])))
    return ClassicalReport(derivative_zero, tuple(commutations))
