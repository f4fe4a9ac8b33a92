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

One class, `GroupoidModel`, describes every configuration: family,
structure group, `base_dim`, the groups H, G and L (each a `MatrixGroup`)
and `down`, the H-positions the G-coefficients are read from.  It holds
the one projection, of arrows (`project`) and of coefficient matrices
(`project_vert`).  The registry at the end of this module has one row per
configuration, keyed by name (``heisenberg``, ``direct_product``,
``trivial_gauge[scalar|gl2|sl2]``; `_gauge` builds the gauge rows), read
by `build_model` and `all_models`; `sampling` keys presets by that name.

An arrow is (source point, target point, matrix body); both points are
coordinate tuples of Weil elements (empty over a one-point base).  An
`Arrow` is compared and hashed by value and, like `Matrix`, is immutable by
convention: a slotted class, so building one sets no frozen field.  Its
coordinates pass through a mask plan as `weil` says: a constant comes
back unchanged from any plan that fixes the empty monomial.
Composition follows function order: ``compose(g, h)`` applies h first and
needs the source of g to equal the target of h exactly.

A `MatrixGroup` (free cells of body - I, GL or SL diagonal blocks) also
states its Lie algebra (`lie_contains`, and the basis tuple `lie_basis`),
whose elements are constant matrices over the empty algebra `ALG0`
(`_lie_value` checks one).
Group and Lie tests and projections read a table by position (`contains`,
`lie_contains`, `Matrix.gather`), with no entries built; a block's
determinant is one table over masks, summed over pairs of the table's
masks (`_det`): a GL block reads it off the constant part alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import Matrix, _normal
from .weil import WeilAlgebra, WeilElement, algebra

Point = tuple[WeilElement, ...]
ALG0 = algebra([])  # Lie-algebra data are constant matrices over it


class CompositionError(ValueError):
    """Source/target bookkeeping failed for a groupoid operation."""


class MembershipError(ValueError):
    """A matrix does not satisfy its group's or Lie algebra's equations."""


# ---------------------------------------------------------------------------
# matrix groups


class MatrixGroup:
    """The matrices I + X with X supported on the `free` cells, whose
    diagonal `blocks`, each a (span of indices, "GL" or "SL") pair, have a
    unit determinant (GL) or determinant exactly one (SL).  Its Lie
    algebra's basis, `lie_basis`, is a tuple of constant matrices over
    `ALG0`, built once in the order of `free`: the unit matrices on the
    free cells, except that in an SL block each diagonal cell but the
    last, l, carries E_ii - E_ll.

    Only patterns closed under multiplication are declared here, so
    membership is a support check plus the block determinants.  Blocks
    share no index, and an SL block's diagonal cells are all free or all
    fixed, so that each basis matrix lies in the Lie algebra.
    """

    def __init__(self, size: int, free=(), blocks=()):
        self.size = size
        self.free = tuple(free)
        self.blocks = tuple(blocks)
        if len(set(self.free)) != len(self.free):
            raise ValueError(f"repeated free cell: {self.free}")
        for i, j in self.free:
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"a free cell needs both indices below {size}: {(i, j)}")
        if any(kind not in ("GL", "SL") for _, kind in self.blocks):
            raise ValueError("a block is 'GL' or 'SL'")
        # `_det` covers sizes 1 and 2, which is every block a model needs
        for span, kind in self.blocks:
            if len(set(span) & set(range(size))) != len(span) or len(span) not in (1, 2):
                raise ValueError(f"a block spans 1 or 2 distinct indices below {size}: {span}")
            if kind == "SL" and 0 < sum((i, i) in self.free for i in span) < len(span):
                raise ValueError(f"an SL block's diagonal is all free or all fixed: {span}")
        spanned = [i for span, _ in self.blocks for i in span]
        if len(set(spanned)) != len(spanned):
            raise ValueError(f"blocks share an index: {self.blocks}")
        # flat positions off the free cells, where the table reads as I
        fixed = [k for k in range(size * size) if divmod(k, size) not in self.free]
        self._zeros = tuple(k for k in fixed if k % (size + 1))
        self._ones = tuple(k for k in fixed if not k % (size + 1))
        self._fixed = self._zeros + self._ones
        self._blank = (0,) * (size * size)
        # each block's kind and flat positions, row by row; the SL spans
        self._blocks = tuple(
            (kind, tuple(i * size + j for i in span for j in span)) for span, kind in self.blocks
        )
        self._sl = tuple(span for span, kind in self.blocks if kind == "SL")
        # the Lie basis in the order of `free`
        last = {i: span[-1] for span in self._sl for i in span}
        basis = []
        for i, j in self.free:
            l = last.get(i) if i == j else None
            if l == i:
                continue
            flat = [0] * (size * size)
            flat[i * size + j] = 1
            if l is not None:
                flat[l * size + l] = -1
            basis.append(_normal(ALG0, size, {0: tuple(flat)}, 1))
        self.lie_basis = tuple(basis)

    def contains(self, m: Matrix) -> bool:
        """Exact membership, read off the table by position."""
        if m.size != self.size:
            return False
        t, den = m._t, m._den
        # off the free cells the constant table is den * I, every other 0
        c = t.get(0, self._blank)
        for k in self._zeros:
            if c[k]:
                return False
        for k in self._ones:
            if c[k] != den:
                return False
        if self._fixed:
            for mask, v in t.items():
                if mask and any([v[k] for k in self._fixed]):
                    return False
        # den^k times a GL block's determinant has a nonzero constant term
        # exactly when the determinant does; an SL block's is exactly den^k
        for kind, flat in self._blocks:
            if kind == "GL":
                if not _det({0: c}, (), flat):
                    return False
            elif _det(t, m.algebra.killed, flat) != {0: den if len(flat) == 1 else den * den}:
                return False
        return True

    def lie_contains(self, m) -> bool:
        """Whether every coefficient of `m`, a `Matrix` or a `PolyMatrix`,
        lies in the Lie algebra: support inside the free cells, and every
        SL block traceless.  Read off the table by position."""
        step = self.size + 1  # from one diagonal flat position to the next
        return m.size == self.size and not any(
            any([v[k] for k in self._fixed])
            or any(sum(v[i * step] for i in span) for span in self._sl)
            for v in m._t.values()
        )


def _det(t: dict, killed, flat: tuple[int, ...]) -> dict[int, int]:
    """den^k times the determinant of the k x k block, k 1 or 2, at the
    row-major flat positions `flat` of a matrix table over den, as a table
    over masks with its zero entries dropped: the entry's table itself, or
    the sum of a * d - b * c over ordered pairs of disjoint masks whose
    union is not `killed` (a and b read at the first, c and d at the
    second)."""
    if len(flat) == 1:
        (k,) = flat
        return {m: v[k] for m, v in t.items() if v[k]}
    a, b, c, d = flat
    det: dict[int, int] = {}
    get = det.get
    items = list(t.items())
    for m1, x in items:
        for m2, y in items:
            if m1 & m2 or (m := m1 | m2) in killed:
                continue
            det[m] = get(m, 0) + x[a] * y[d] - x[b] * y[c]
    return {m: v for m, v in det.items() if v}


def _full(n: int, kind: str) -> MatrixGroup:
    """GL(n) or SL(n): every cell free, one block."""
    span = tuple(range(n))
    return MatrixGroup(n, [(i, j) for i in span for j in span], ((span, kind),))


# ---------------------------------------------------------------------------
# arrows


@dataclass(slots=True, unsafe_hash=True)
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
    """One configuration of the exact sequence L -> H -> G: the groups H,
    G and L, the base dimension, and `down`, the H-positions the
    G-coefficients are read from (G-body - I is H-body - I read at these
    positions, 0 where None)."""

    def __init__(
        self, family: str, base_dim: int, down, h, g, l, structure: str | None = None
    ):
        self.family = family  # the `model` a configuration names
        self.structure = structure  # its `structure_group`, if it takes one
        self.base_dim = base_dim
        self._down = down
        self._specs = {"H": h, "G": g, "L": l}

    @property
    def name(self) -> str:
        """The registry key: the family, with any structure group in brackets."""
        if self.structure is None:
            return self.family
        return f"{self.family}[{self.structure}]"

    def spec(self, grp: str) -> MatrixGroup:
        return self._specs[grp]

    def identity(self, grp: str, x: Point, alg: WeilAlgebra) -> Arrow:
        return Arrow(self, grp, x, x, Matrix.identity(self.spec(grp).size, alg))

    def validate(self, arrow: Arrow) -> bool:
        """Exact membership: defining equations hold identically, the base
        coordinates have the right arity and live over the body's algebra
        (L-arrows are loops)."""
        if len(arrow.source) != self.base_dim or len(arrow.target) != self.base_dim:
            return False
        alg = arrow.body.algebra
        if any(c.algebra is not alg for c in (*arrow.source, *arrow.target)):
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

    def _lie_value(self, grp: str, m, error: type, what: str) -> Matrix:
        """`m`, once it is checked to be a constant matrix over `ALG0` in
        the Lie algebra of `grp`; raises `error` otherwise."""
        n = self.spec(grp).size
        if not (isinstance(m, Matrix) and m.algebra is ALG0 and m.size == n):
            raise error(f"{what} must be a constant {n}x{n} matrix over ALG0")
        if not self.spec(grp).lie_contains(m):
            raise error(f"{what} must lie in the Lie algebra of {grp}")
        return m

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


def _gauge(structure: str, group: MatrixGroup) -> GroupoidModel:
    """The gauge groupoid M x K x M over a coordinate base M of dimension 2,
    K = `group`: G is the pair groupoid, so every body projects to I, and L
    is the bundle of K-loops."""
    pair = MatrixGroup(1)
    return GroupoidModel("trivial_gauge", 2, ((None,),), group, pair, group, structure)


# ---------------------------------------------------------------------------
# registry: each shipped configuration once, keyed by name; the first
# configuration of a family is its default

_GL2, _GL1 = _full(2, "GL"), ((2,), "GL")  # the factors of direct_product
_REGISTRY = {
    model.name: model
    for model in (
        # central extension over a point: unipotent 3x3 upper-triangular H;
        # (0, 1) stays, (1, 2) moves to (0, 2)
        GroupoidModel(
            "heisenberg", 0, ((None, (0, 1), (1, 2)), (None,) * 3, (None,) * 3),
            MatrixGroup(3, ((0, 1), (1, 2), (0, 2))),
            MatrixGroup(3, ((0, 1), (0, 2))),
            MatrixGroup(3, ((0, 2),)),
        ),
        # H = GL2 x GL1 projecting to the GL2 block; every splitting induced
        # by a Lie morphism into the scalar factor is flat
        GroupoidModel(
            "direct_product", 0, (((0, 0), (0, 1)), ((1, 0), (1, 1))),
            MatrixGroup(3, _GL2.free + ((2, 2),), _GL2.blocks + (_GL1,)),
            _GL2,
            MatrixGroup(3, ((2, 2),), (_GL1,)),
        ),
        _gauge("scalar", _full(1, "GL")),
        _gauge("gl2", _full(2, "GL")),
        _gauge("sl2", _full(2, "SL")),
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
