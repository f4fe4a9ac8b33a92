"""Concrete groupoids over Weil-valued points.

Three families ship, each packaged with the short exact sequence
L -> H -> G that the connection calculus runs on:

* ``heisenberg``      - 3x3 unipotent matrices over a one-point base; G is
                        the two-parameter abelianization, L the centre.
* ``direct_product``  - H = GL2 x GL1 block matrices with first-block
                        projection; a guaranteed-flat control.
* ``trivial_gauge``   - the gauge groupoid M x K x M over a 2-dimensional
                        coordinate base; G is the pair groupoid, L the
                        bundle of K-loops.  K is scalars, GL2 or SL2.

The registry at the end of this module lists each shipped configuration
once, keyed by its name: ``heisenberg``, ``direct_product`` and
``trivial_gauge[scalar|gl2|sl2]``.  `build_model`, `all_models` and the CLI
read it; `sampling` keeps each configuration's connection presets and
sampler under the same name.

An arrow is (source point, target point, matrix body); both points are
coordinate tuples of Weil elements (empty over a one-point base).
Composition follows function order: ``compose(g, h)`` applies h first and
needs the source of g to equal the target of h exactly.

A model class declares only its groups H, G and L, `base_dim` and
`_down`, the H-positions the G-coefficients are read from; `GroupoidModel`
holds the one projection, of arrows (`project`) and of coefficient
matrices (`project_vert`).  Group tests and projections read a body's
table by position (`Matrix.support`, `Matrix.gather`) and build no entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .matrices import Matrix, _det
from .weil import WeilAlgebra, WeilElement

Point = tuple[WeilElement, ...]


class CompositionError(ValueError):
    """Source/target bookkeeping failed for a groupoid operation."""


class MembershipError(ValueError):
    """A matrix body does not satisfy its group's defining equations."""


# ---------------------------------------------------------------------------
# matrix group specifications


class GeneralLinear:
    """Invertible matrices: the determinant must be a unit."""

    def __init__(self, size: int):
        self.size = size
        self.name = f"GL{size}"

    def contains(self, m: Matrix) -> bool:
        if m.size != self.size:
            return False
        # the table holds den times the constant part, so this integer
        # determinant vanishes exactly when the rational one does
        n, c = self.size, m._t.get(0)
        return c is not None and _det([c[i * n:i * n + n] for i in range(n)]) != 0

    def lie_basis(self):
        return tuple(
            _unit_matrix(self.size, i, j)
            for i in range(self.size)
            for j in range(self.size)
        )


class UnitDeterminant:
    """Matrices of determinant exactly one."""

    def __init__(self, size: int):
        self.size = size
        self.name = f"SL{size}"

    def contains(self, m: Matrix) -> bool:
        if m.size != self.size:
            return False
        return m.det() == m.algebra.one

    def lie_basis(self):
        if self.size != 2:
            raise NotImplementedError
        return (
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))),
            _unit_matrix(2, 0, 1),
            _unit_matrix(2, 1, 0),
        )


class PatternGroup:
    """Identity matrix plus free entries at fixed positions.

    Only patterns closed under multiplication are used here (strictly
    upper-triangular supports), so membership is a support check on m - I.
    """

    def __init__(self, name: str, size: int, free: Sequence[tuple[int, int]]):
        self.size = size
        self.name = name
        self.free = tuple(free)

    def contains(self, m: Matrix) -> bool:
        if m.size != self.size:
            return False
        return (m - Matrix.identity(self.size, m.algebra)).support() <= set(self.free)

    def lie_basis(self):
        return tuple(_unit_matrix(self.size, i, j) for i, j in self.free)


class BlockDiagonal:
    """Block matrix diag(A, B) with each block constrained separately."""

    def __init__(self, first, second):
        self.first = first
        self.second = second
        self.size = first.size + second.size
        self.name = f"{first.name}x{second.name}"
        self._blocks = (_cells(range(first.size)), _cells(range(first.size, self.size)))

    def contains(self, m: Matrix) -> bool:
        k = self.first.size
        if m.size != self.size or any((i < k) != (j < k) for i, j in m.support()):
            return False
        a, b = (m.gather(cells) for cells in self._blocks)
        return self.first.contains(a) and self.second.contains(b)

    def lie_basis(self):
        k = self.first.size
        out = []
        for block, offset in ((self.first, 0), (self.second, k)):
            for base in block.lie_basis():
                rows = [[Fraction(0)] * self.size for _ in range(self.size)]
                for i, row in enumerate(base):
                    for j, v in enumerate(row):
                        rows[offset + i][offset + j] = Fraction(v)
                out.append(tuple(tuple(r) for r in rows))
        return tuple(out)


class FixedIdentity:
    """The one-element group {I}."""

    def __init__(self, size: int):
        self.size = size
        self.name = f"I{size}"

    def contains(self, m: Matrix) -> bool:
        return m.size == self.size and m.is_identity()

    def lie_basis(self):
        return ()


def _unit_matrix(n, i, j):
    return tuple(
        tuple(Fraction(1) if (r, c) == (i, j) else Fraction(0) for c in range(n))
        for r in range(n)
    )


def _cells(span: range) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The positions of the square block on the rows and columns `span`."""
    return tuple(tuple((i, j) for j in span) for i in span)


# ---------------------------------------------------------------------------
# arrows


@dataclass(frozen=True)
class Arrow:
    """Groupoid arrow: matrix body travelling from source to target."""

    model: "GroupoidModel"
    grp: str  # which groupoid of the exact sequence: "H", "G" or "L"
    source: Point
    target: Point
    body: Matrix

    @property
    def algebra(self) -> WeilAlgebra:
        return self.body.algebra

    def is_identity(self) -> bool:
        return self.source == self.target and self.body.is_identity()


def compose(g: Arrow, h: Arrow) -> Arrow:
    """g after h; defined only when the source of g is the target of h."""
    if g.model is not h.model or g.grp != h.grp:
        raise CompositionError("arrows from different groupoids")
    if g.source != h.target:
        raise CompositionError("source/target mismatch")
    return Arrow(g.model, g.grp, h.source, g.target, g.body * h.body)


def compose_all(*arrows: Arrow) -> Arrow:
    """Compose right-to-left: the last argument is applied first."""
    out = arrows[-1]
    for a in reversed(arrows[:-1]):
        out = compose(a, out)
    return out


def invert(g: Arrow) -> Arrow:
    return Arrow(g.model, g.grp, g.target, g.source, g.body.inverse())


# ---------------------------------------------------------------------------
# groupoid models


class GroupoidModel:
    """Shared behaviour; concrete models declare the exact-sequence data."""

    family: str  # the `model` a configuration names
    structure: str | None = None  # its `structure_group`, if it takes one
    base_dim: int
    # G-body - I is H-body - I read at these H-positions (0 where None)
    _down: tuple[tuple[tuple[int, int] | None, ...], ...]

    @property
    def name(self) -> str:
        """The registry key: the family, with any structure group in brackets."""
        if self.structure is None:
            return self.family
        return f"{self.family}[{self.structure}]"

    def spec(self, grp: str):
        return {"H": self._h, "G": self._g, "L": self._l}[grp]

    def identity(self, grp: str, x: Point, alg: WeilAlgebra) -> Arrow:
        return Arrow(self, grp, x, x, Matrix.identity(self.spec(grp).size, alg))

    def validate(self, arrow: Arrow) -> bool:
        """Exact membership: defining equations hold identically and the
        base coordinates have the right arity (L-arrows are loops)."""
        if len(arrow.source) != self.base_dim or len(arrow.target) != self.base_dim:
            return False
        if arrow.grp == "L" and arrow.source != arrow.target:
            return False
        return self.spec(arrow.grp).contains(arrow.body)

    def check(self, arrow: Arrow) -> Arrow:
        if not self.validate(arrow):
            raise MembershipError(
                f"invalid {arrow.grp}-arrow in {self.name}: {arrow.body!r}"
            )
        return arrow

    def kernel_test(self, h: Arrow) -> bool:
        """True when the arrow projects to an identity arrow downstairs."""
        return self.project(h).is_identity()

    def lie_basis(self, grp: str):
        return self.spec(grp).lie_basis()

    def project(self, h: Arrow) -> Arrow:
        """The G-arrow under an H-arrow: I plus the `_down` cells of body - I."""
        if h.grp != "H":
            raise CompositionError("project expects an H-arrow")
        alg = h.algebra
        up = h.body - Matrix.identity(h.body.size, alg)
        body = Matrix.identity(len(self._down), alg) + self.project_vert(up)
        return Arrow(self, "G", h.source, h.target, body)

    def project_vert(self, w: Matrix) -> Matrix:
        """The G-coefficient matrix under an H-coefficient matrix."""
        return w.gather(self._down)


class HeisenbergModel(GroupoidModel):
    """Central extension over a point: unipotent 3x3 upper-triangular H."""

    family = "heisenberg"
    base_dim = 0
    # (0, 1) stays, (1, 2) moves to (0, 2)
    _down = ((None, (0, 1), (1, 2)), (None,) * 3, (None,) * 3)

    def __init__(self):
        self._h = PatternGroup("unipotent3", 3, ((0, 1), (1, 2), (0, 2)))
        self._g = PatternGroup("two-param-abelian", 3, ((0, 1), (0, 2)))
        self._l = PatternGroup("centre", 3, ((0, 2),))


class DirectProductModel(GroupoidModel):
    """H = GL2 x GL1 with first-block projection; every splitting induced
    by a Lie morphism into the scalar factor is flat."""

    family = "direct_product"
    base_dim = 0
    _down = _cells(range(2))  # the GL2 block

    def __init__(self):
        self._h = BlockDiagonal(GeneralLinear(2), GeneralLinear(1))
        self._g = GeneralLinear(2)
        self._l = BlockDiagonal(FixedIdentity(2), GeneralLinear(1))


class TrivialGaugeModel(GroupoidModel):
    """Gauge groupoid M x K x M over a coordinate base M of dimension 2;
    `group` is the structure group K, named `structure`."""

    family = "trivial_gauge"
    base_dim = 2
    _down = ((None,),)  # G is the pair groupoid: every body projects to I

    def __init__(self, structure: str, group):
        self.structure = structure
        self._h = group
        self._g = FixedIdentity(1)
        self._l = group


# ---------------------------------------------------------------------------
# registry: each shipped configuration once, keyed by name; the first
# configuration of a family is its default

_REGISTRY = {
    model.name: model
    for model in (
        HeisenbergModel(),
        DirectProductModel(),
        TrivialGaugeModel("scalar", GeneralLinear(1)),
        TrivialGaugeModel("gl2", GeneralLinear(2)),
        TrivialGaugeModel("sl2", UnitDeterminant(2)),
    )
}


def build_model(name: str, structure_group: str | None = None) -> GroupoidModel:
    """The registered configuration of the family `name` with the given
    structure group, or the family's default when none is given."""
    for model in _REGISTRY.values():
        if model.family == name and structure_group in (None, model.structure):
            return model
    wanted = name if structure_group is None else f"{name}[{structure_group}]"
    raise KeyError(f"unknown model {wanted!r}; registry has: {', '.join(_REGISTRY)}")


def all_models() -> tuple[GroupoidModel, ...]:
    """Every shipped configuration, in a fixed order."""
    return tuple(_REGISTRY.values())
