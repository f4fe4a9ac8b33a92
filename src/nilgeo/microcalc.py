"""Tangent calculus over the groupoid models.

A micro-n-cube is an arrow-valued table indexed by n designated square-zero
generators: at the origin it is an identity arrow and its source never
moves.  Degree one gives tangents; degree two the microsquares that the
connection and curvature machinery consumes.

Two views of a tangent coexist here.  `Microcube` keeps the full arrow
(needed for slicing, permuting and word building); `TangentData` keeps the
linearization (anchor, boundary velocity, vertical matrix), which is the
right shape for fiberwise-linear bookkeeping.  Both are slotted classes,
compared and hashed by value and immutable by convention, as `Arrow` is;
a cube's far reads (below) are no part of its value.  A word that is the
identity wherever one of its arguments is 0 is read off its top
coefficient by `top_tangent`: the strong difference and the bracket read
their words so, and `kernel_loop_tangent` reads curvature and the
covariant derivative.

Slicing, permuting and rescaling a cube are mask plans of `weil` (the
permutation's own, `_relabel_plan`, is built here), which `_transform`
applies throughout an arrow: one plan, since an arrow's coordinates live
over its body's algebra (`GroupoidModel.validate`).  Tangent data take a
plan the same way (`_tangent_transform`).  A constant coordinate comes back
unchanged from each of these plans, which all fix the empty monomial.

The cube invariants and group membership are checked where an arrow
enters from outside: the public `make_microcube`, which `degenerate_square`,
`diff` and `bisection_product` build through, as do `sampling.sample_microcube`
and `sampling.perturbed_square`; each arrow a connection's `apply` returns
is checked in `connection.lifted_edge`.  A cube
derived from a checked one by `slice_multi`, `permute`, `scale_arg` or `tau`
is a cube by group closure, since each reparametrizes by a map of algebras
(`permute`'s `_relabel_plan` refuses a renaming that is not one), so those four wrap
their arrow with the unchecked `_cube`; so does `connection.lift`, whose
arrow composes two checked lifted edges.

Every edge tangent is read off its arrow by `_edge_tangent`.  Each cube
reads the edge tangent of each argument once, at its far corner: the edge
along d_k with every other argument on.  `Microcube.far_edge` names that
edge by where it was read, as a pair: the read, held by a `_FarRead` that
hashes by identity, and the mask of the generators dropped from it since.
The edge from any other corner is the same read with the off arguments
added to the mask, so a cube's twelve edges cost three reads and a drop is
built (`_FarRead.dropped`) only when a tangent is needed; an edge from the
origin can be read directly, with no inverse, since its body is I at
d_k = 0.  A slice freezes each argument at 0 or at its own name, and a
rescale by 0 or 1 drops its argument or keeps it; neither renames, so each
inherits its parent's far reads with the zeroed arguments OR-ed into their
masks (`_inherit_far_edges`), and the faces of a lifted cube read none
again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

from .matrices import Matrix, _plus_identity
from .models import (
    Arrow,
    CompositionError,
    GroupoidModel,
    MembershipError,
    Point,
    compose,
    compose_all,
    invert,
)
from .polynomials import Poly
from .weil import (
    Scalar, WeilAlgebra, WeilElement, _Plan, _check_algebra, _convert_plan, _drop_plan,
    _scale_plan, _times_plan,
)


class CubeError(ValueError):
    """A would-be microcube violates the defining invariants."""


class NotNilpotent(ValueError):
    """`TangentData.arrow_at` was given a parameter with a constant term:
    a step I + wV is read only at nilpotent w."""


class DifferenceError(ValueError):
    """Precondition of a difference construction fails."""


# ---------------------------------------------------------------------------
# microcubes


@dataclass(slots=True, unsafe_hash=True)
class Microcube:
    """An n-cube of arrows: identity at the origin, source pinned.

    `far_edges` maps an argument index to the far read of its edge, as
    `far_edge` gives it, for each argument read or inherited so far on this
    cube; it is filled lazily and is no part of the cube's value."""

    arrow: Arrow
    args: tuple[str, ...]
    far_edges: dict[int, tuple["_FarRead", int]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @property
    def degree(self) -> int:
        return len(self.args)

    @property
    def anchor(self) -> Point:
        return self.arrow.source

    @property
    def algebra(self) -> WeilAlgebra:
        return self.arrow.algebra

    @property
    def model(self) -> GroupoidModel:
        return self.arrow.model

    def far_edge(self, k: int) -> tuple["_FarRead", int]:
        """The edge along argument k with every other argument on, named by
        where it was read: a far-corner read of a root cube and the mask of
        the generators dropped from it since.  A cube that holds no read of
        axis k reads one here, by `_edge_tangent`, with an empty mask."""
        far = self.far_edges.get(k)
        if far is None:
            read = _FarRead(_edge_tangent(self.arrow, (self.args[k - 1],)))
            far = self.far_edges[k] = (read, 0)
        return far


class _FarRead:
    """One edge tangent read at a root cube's far corner.  It hashes and
    compares by identity, so a memo keyed by it names an edge by where it
    was read and never hashes the tangent."""

    __slots__ = ("td",)

    def __init__(self, td: "TangentData"):
        self.td = td

    def dropped(self, mask: int) -> "TangentData":
        """The read with the generators of `mask` at 0 (`_tangent_transform`
        of a drop plan, a map of algebras)."""
        td = self.td
        return _tangent_transform(td, _drop_plan(td.algebra, mask)) if mask else td


def _edge_tangent(a: Arrow, d: tuple[str]) -> "TangentData":
    """The tangent of `a` along the generator in `d`: anchor the target at
    d = 0, direction its d-cofactor, and vert the d-cofactor of the body
    times the inverse of the body at d = 0 (none when that body is I)."""
    anchor = tuple(c.drop(d) for c in a.target)
    direction = tuple(c.coefficient(d) for c in a.target)
    vert, at_zero = a.body.coefficient(d), a.body.drop(d)
    if not at_zero.is_identity():
        vert = vert * at_zero.inverse()
    return TangentData(a.model, a.grp, anchor, direction, vert)


def _transform(a: Arrow, plan: _Plan) -> Arrow:
    """Apply `plan` to the body and to every coordinate, all over the
    arrow's algebra (`GroupoidModel.validate`)."""
    source, target = (tuple(w._apply(plan) for w in p) for p in (a.source, a.target))
    return Arrow(a.model, a.grp, source, target, a.body._apply(plan))


def arrow_drop(a: Arrow, names: Sequence[str]) -> Arrow:
    """Evaluate the listed generators at zero throughout the arrow."""
    return _transform(a, _drop_plan(a.algebra, a.algebra.mask(names)))


def _tangent_transform(td: "TangentData", plan: _Plan) -> "TangentData":
    """`_transform` for tangent data."""
    anchor, direction = (tuple(w._apply(plan) for w in p) for p in (td.anchor, td.direction))
    return TangentData(td.model, td.grp, anchor, direction, td.vert._apply(plan))


@lru_cache(maxsize=None)
def _relabel_plan(alg: WeilAlgebra, pairs: tuple[tuple[str, str], ...]) -> _Plan:
    """Rename each generator `old` to `new` over the (old, new) pairs, a
    permutation of generators, at once.  Refused with `CubeError` unless it
    sends each killed monomial of `alg` to a killed one: only then is it a
    map of algebras, so that it keeps a cube a cube."""
    bits = [(alg.gen_bit(old), alg.gen_bit(new)) for old, new in pairs]
    moved = sum(b for b, _ in bits)  # distinct bits: the sum is their union

    def image(m: int) -> int:
        return (m & ~moved) | sum(new for old, new in bits if m & old)

    if any(image(m) not in alg.killed for m in alg.killed):
        raise CubeError(f"renaming {dict(pairs)} does not respect the killed monomials")
    return _Plan(alg, lambda m: (image(m), 1))


def _cube_args(args: Sequence[str], alg: WeilAlgebra) -> tuple[str, ...]:
    """The arguments as a tuple; raises `CubeError` unless they are distinct
    generators of `alg`."""
    args = tuple(args)
    if len(set(args)) != len(args):
        raise CubeError(f"repeated cube arguments: {args}")
    for g in args:
        if g not in alg.names:
            raise CubeError(f"argument {g} not in the ambient algebra")
    return args


def make_microcube(arrow: Arrow, args: Sequence[str]) -> Microcube:
    """Validate the cube invariants and wrap the arrow.  Membership is
    checked first: it also checks that the coordinates live over the body's
    algebra, which the drop to the origin assumes."""
    args = _cube_args(args, arrow.algebra)
    arrow.model.check(arrow)
    at_zero = arrow_drop(arrow, args)
    if at_zero.source != arrow.source:
        raise CubeError("source must not depend on the cube arguments")
    if at_zero.target != arrow.source or not at_zero.body.is_identity():
        raise CubeError("cube is not an identity arrow at the origin")
    return Microcube(arrow, args)


def _cube(arrow: Arrow, args: tuple[str, ...]) -> Microcube:
    """Wrap an arrow built from a checked cube by slicing, permuting,
    rescaling or zeroing its arguments, or composed of checked lifted edges
    (`connection.lift`), without re-checking it: group closure keeps such
    an arrow a cube.  The five callers look this name up at call time, so
    rebinding it to `make_microcube` checks them all."""
    return Microcube(arrow, args)


# ---------------------------------------------------------------------------
# slicing and reparametrization


def slice_multi(cube: Microcube, frozen: dict[int, object]) -> Microcube:
    """Freeze each argument i of `frozen` at its value, 0 or the argument's
    own name, and renormalize by the frozen arrow.  An argument frozen at
    its own name stays a symbolic parameter of the lower cube."""
    args = cube.args
    for i in frozen:
        if not 1 <= i <= len(args):
            raise CubeError(f"slice index {i} out of range")
    remaining = tuple(g for k, g in enumerate(args, 1) if k not in frozen)
    zeroed: list[str] = []
    for i, e in frozen.items():
        g = args[i - 1]
        if e == 0:
            zeroed.append(g)
        elif e != g:
            raise CubeError(f"frozen value must be 0 or the argument's own name {g}")
    if not remaining:
        raise CubeError("cannot slice away every argument")
    a = cube.arrow
    if zeroed:
        a = arrow_drop(a, zeroed)
    if len(zeroed) == len(frozen):
        # frozen arrow is the identity; no correction factor needed
        out = _cube(a, remaining)
    else:
        corr = arrow_drop(a, remaining)
        out = _cube(compose(a, invert(corr)), remaining)
    _inherit_far_edges(cube, out, cube.algebra.mask(zeroed))
    return out


def _inherit_far_edges(parent: Microcube, child: Microcube, zeroed: int) -> None:
    """Hand `child`, a slice of `parent` or a rescale by 0 or 1, each far
    read the parent holds along an argument of the child that is not in the
    mask `zeroed` of the zeroed arguments, with `zeroed` added to its drops:
    neither renames, so drops compose as a mask OR, and no tangent is built.
    A slice's correction by the frozen arrow does not change the read,
    since that arrow is free of the slice's arguments and cancels between
    the read's two factors."""
    kept = parent.far_edges
    if not kept:
        return
    alg = child.algebra
    index = {g: j for j, g in enumerate(child.args, 1) if not alg.gen_bit(g) & zeroed}
    reads = child.far_edges
    for k, (read, mask) in kept.items():
        j = index.get(parent.args[k - 1])
        if j is not None:
            reads[j] = (read, mask | zeroed)


def permute(cube: Microcube, theta: Sequence[int]) -> Microcube:
    """Precompose with the coordinate permutation theta (1-based images)."""
    args = cube.args
    if sorted(theta) != list(range(1, len(args) + 1)):
        raise CubeError(f"not a permutation of 1..{len(args)}: {theta}")
    pairs = tuple(zip(args, (args[t - 1] for t in theta)))
    arrow = _transform(cube.arrow, _relabel_plan(cube.algebra, pairs))
    return _cube(arrow, args)


def perm_sign(theta: Sequence[int]) -> int:
    sign = 1
    for i in range(len(theta)):
        for j in range(i + 1, len(theta)):
            if theta[i] > theta[j]:
                sign = -sign
    return sign


def tau(cube: Microcube, keep: int) -> Microcube:
    """Zero every argument except the kept one; the degree is unchanged."""
    if not 1 <= keep <= cube.degree:
        raise CubeError(f"tau index {keep} out of range")
    others = [g for k, g in enumerate(cube.args, 1) if k != keep]
    return _cube(arrow_drop(cube.arrow, others), cube.args)


def scale_arg(cube: Microcube, i: int, a: Scalar) -> Microcube:
    """Rescale argument i by the rational a.  At a = 1 the rescale is the
    identity and at a = 0 it drops the argument, so there the rescaled cube
    inherits the far reads as a slice does."""
    if not 1 <= i <= cube.degree:
        raise CubeError(f"scale index {i} out of range")
    g = cube.args[i - 1]
    out = _cube(_transform(cube.arrow, _scale_plan(cube.algebra, g, a)), cube.args)
    if a == 0 or a == 1:
        _inherit_far_edges(cube, out, 0 if a else cube.algebra.gen_bit(g))
    return out


# ---------------------------------------------------------------------------
# tangent data


@dataclass(slots=True, unsafe_hash=True)
class TangentData:
    """Linear data of a tangent: d |-> (anchor + d*direction, I + d*vert)."""

    model: GroupoidModel
    grp: str
    anchor: Point
    direction: Point
    vert: Matrix

    @property
    def algebra(self) -> WeilAlgebra:
        return self.vert.algebra

    def arrow_at(self, w: WeilElement) -> Arrow:
        """The arrow at parameter value w, a nilpotent element:
        (anchor + w*direction, I + w*vert).  Each term of w is one
        `weil._times_plan`, and vert and each direction coordinate are
        re-keyed by the sum of those plans, with no product; I is written
        in at mask 0, which no shifted table holds.  A w with a constant
        term raises `NotNilpotent`."""
        alg = w.algebra
        _check_algebra(self.vert.algebra, alg)
        for c in (*self.anchor, *self.direction):
            _check_algebra(c.algebra, alg)
        if 0 in w._c:
            raise NotNilpotent(f"parameter {w} has a constant term")
        if not w._c:
            body = Matrix.identity(self.vert.size, alg)
            return Arrow(self.model, self.grp, self.anchor, self.anchor, body)
        plans = [_times_plan(alg, m, v, w._den) for m, v in w._c.items()]
        target = tuple(c + d._apply(*plans) for c, d in zip(self.anchor, self.direction))
        body = _plus_identity(self.vert._apply(*plans))
        return Arrow(self.model, self.grp, self.anchor, target, body)

    def convert(self, alg: WeilAlgebra) -> "TangentData":
        if alg is self.algebra:
            return self
        return _tangent_transform(self, _convert_plan(self.algebra, alg))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.direction) and self.vert.is_zero()

    def _check_mate(self, other: "TangentData"):
        if self.model is not other.model or self.grp != other.grp:
            raise CompositionError("tangents from different bundles")
        if self.anchor != other.anchor:
            raise CompositionError("tangents anchored at different points")

    def __add__(self, other: "TangentData") -> "TangentData":
        self._check_mate(other)
        return TangentData(
            self.model,
            self.grp,
            self.anchor,
            tuple(a + b for a, b in zip(self.direction, other.direction)),
            self.vert + other.vert,
        )

    def __sub__(self, other: "TangentData") -> "TangentData":
        return self + -other

    def scale(self, a: Scalar) -> "TangentData":
        return TangentData(
            self.model,
            self.grp,
            self.anchor,
            tuple(c * a for c in self.direction),
            self.vert * a,
        )

    def __neg__(self) -> "TangentData":
        return self.scale(-1)


def from_tangent(t: Microcube) -> TangentData:
    """The linearization of a degree-one cube, read by `_edge_tangent`."""
    if t.degree != 1:
        raise CubeError("expected a degree-one cube")
    return _edge_tangent(t.arrow, t.args)


def include_tangent(td: TangentData) -> TangentData:
    if td.grp != "L":
        raise CompositionError("include expects an L-tangent")
    return TangentData(td.model, "H", td.anchor, td.direction, td.vert)


def as_kernel_tangent(td: TangentData) -> TangentData:
    """Recognize a vertical H-tangent as a tangent of the kernel bundle:
    its direction is zero and its vertical part lies in Lie(L)."""
    if not all(c.is_zero() for c in td.direction):
        raise CompositionError("tangent has a nonzero base velocity")
    if not td.model.spec("L").lie_contains(td.vert):
        raise MembershipError(f"vertical part outside Lie(L) in {td.model.name}: {td.vert!r}")
    return TangentData(td.model, "L", td.anchor, td.direction, td.vert)


def top_tangent(word: Arrow, args: Sequence[str], error: type) -> TangentData:
    """The tangent at the word's source whose value at the product of
    `args` is `word`; raises `error` unless the word is the identity
    wherever one of `args` is 0."""
    vert = _top_vert(word, args, error)
    direction = tuple((t - s).coefficient(args) for t, s in zip(word.target, word.source))
    return TangentData(word.model, word.grp, word.source, direction, vert)


def _top_vert(word: Arrow, args: Sequence[str], error: type) -> Matrix:
    """`top_tangent`'s vertical part, with its check."""
    for d in args:
        if not arrow_drop(word, (d,)).is_identity():
            raise error(f"word is not the identity at {d} = 0")
    return word.body.coefficient(args)


def kernel_loop_tangent(word: Arrow, cube: Microcube, error: type) -> TangentData:
    """The kernel tangent at the cube's anchor read off a word over the
    cube's arguments; raises `error` unless the word also lies in the
    kernel and is a loop at the anchor, whose direction is zero."""
    vert = _top_vert(word, cube.args, error)
    if not cube.model.kernel_test(word):
        raise error("word is not kernel-valued")
    if word.source != cube.anchor or word.target != cube.anchor:
        raise error("word is not a loop at the anchor")
    direction = tuple(vert.algebra.zero for _ in cube.anchor)
    return TangentData(cube.model, "L", cube.anchor, direction, vert)


# ---------------------------------------------------------------------------
# squares from tangents, differences


def degenerate_square(td: TangentData, args: tuple[str, str], alg: WeilAlgebra) -> Microcube:
    """The microsquare t(d1*d2) concentrated in the top coefficient."""
    alg = alg.extend(*args)
    t = td.convert(alg)
    w = alg.gen(args[0]) * alg.gen(args[1])
    return make_microcube(t.arrow_at(w), args)


def diff(g2: Microcube, g1: Microcube, axis: int) -> Microcube:
    """The difference of two microsquares in slot `axis`, 1 or 2; they must
    agree where that slot's argument is 0."""
    if axis not in (1, 2):
        raise DifferenceError(f"a microsquare has slots 1 and 2, not {axis}")
    if g1.args != g2.args or g1.degree != 2:
        raise DifferenceError("differences need two microsquares on the same arguments")
    d = g1.args[axis - 1]
    if arrow_drop(g1.arrow, (d,)) != arrow_drop(g2.arrow, (d,)):
        raise DifferenceError(f"squares disagree at {d} = 0")
    # subtract the coefficients of every monomial containing d, keep the rest
    a1, a2 = g1.arrow, g2.arrow
    out = Arrow(
        a1.model,
        a1.grp,
        a1.source,
        tuple(c2 - c1 + c1.drop((d,)) for c1, c2 in zip(a1.target, a2.target)),
        a2.body - a1.body + a1.body.drop((d,)),
    )
    return make_microcube(out, g1.args)


def strong_diff(g2: Microcube, g1: Microcube) -> TangentData:
    """Second-order discrepancy of two microsquares agreeing off the top
    coefficient; the result is a tangent at the common anchor."""
    if g1.args != g2.args or g1.degree != 2:
        raise DifferenceError("strong difference needs two microsquares on the same arguments")
    top = g1.args
    # off the top coefficient is where d1 = 0 or d2 = 0
    for d in top:
        if arrow_drop(g1.arrow, (d,)) != arrow_drop(g2.arrow, (d,)):
            raise DifferenceError("squares disagree below the top coefficient")
    delta = compose(g2.arrow, invert(g1.arrow))  # both squares start at the anchor
    td = top_tangent(delta, top, DifferenceError)
    # multiplying the correction from the other side must give the same data
    other = (g1.arrow.body.inverse() * g2.arrow.body).coefficient(top)
    if other != td.vert:
        raise DifferenceError("left/right factorizations disagree")
    # the word starts at g1's target; the difference sits at the anchor
    return TangentData(g1.model, g1.arrow.grp, g1.anchor, td.direction, td.vert)


# ---------------------------------------------------------------------------
# sections and bisections


class Section:
    """A field of tangents over the base, evaluable at Weil-valued points.

    Each kind provides `at(x, alg)`: the `TangentData` of the bundle `grp`
    of `model` anchored at the point x, whose coordinates lie in `alg`."""

    model: GroupoidModel
    grp: str

    def __add__(self, other: "Section") -> "Section":
        return _SumSection(self, other)


class ConstantSection(Section):
    """One-point base: the section is a single element of the Lie algebra
    of `grp`, a constant matrix over `ALG0` (else `MembershipError`)."""

    def __init__(self, model: GroupoidModel, grp: str, vert: Matrix):
        self.model = model
        self.grp = grp
        self.vert = model._lie_value(grp, vert, MembershipError, "a constant section")

    def at(self, x: Point, alg: WeilAlgebra) -> TangentData:
        return TangentData(self.model, self.grp, x, (), self.vert.convert(alg))


class PolySection(Section):
    """Coordinate base: velocity polynomials, with zero vertical part."""

    def __init__(self, model: GroupoidModel, grp: str, velocity: Sequence[Poly]):
        if len(velocity) != model.base_dim:
            raise ValueError("velocity arity must match the base dimension")
        self.model = model
        self.grp = grp
        self.velocity = tuple(velocity)

    def at(self, x: Point, alg: WeilAlgebra) -> TangentData:
        direction = tuple(p(x) for p in self.velocity)
        vert = Matrix.zero(self.model.spec(self.grp).size, alg)
        return TangentData(self.model, self.grp, x, direction, vert)


class _SumSection(Section):
    def __init__(self, a: Section, b: Section):
        if a.model is not b.model or a.grp != b.grp:
            raise CompositionError("cannot add sections of different bundles")
        self.model, self.grp = a.model, a.grp
        self.parts = (a, b)

    def at(self, x: Point, alg: WeilAlgebra) -> TangentData:
        a, b = self.parts
        return a.at(x, alg) + b.at(x, alg)


def bisection_at(sec: Section, w: WeilElement, x: Point) -> Arrow:
    """Evaluate the bisection at parameter w at the point x."""
    return sec.at(x, w.algebra).arrow_at(w)


def bisection_product(
    second: Section,
    first: Section,
    x: Point,
    args: tuple[str, str],
    alg: WeilAlgebra,
) -> Microcube:
    """The microsquare (d1, d2) |-> second_{d2} * first_{d1} at x, where *
    composes bisections through the moved base point."""
    d1, d2 = args
    a1 = bisection_at(first, alg.gen(d1), x)
    a2 = bisection_at(second, alg.gen(d2), a1.target)
    return make_microcube(compose(a2, a1), args)


def _commutator_word(
    t1_at: Callable[[Point], TangentData],
    t2_at: Callable[[Point], TangentData],
    x: Point,
    alg: WeilAlgebra,
    u: str,
    v: str,
) -> Arrow:
    gu, gv = alg.gen(u), alg.gen(v)
    a1 = t1_at(x).arrow_at(gu)
    a2 = t2_at(a1.target).arrow_at(gv)
    a3 = t1_at(a2.target).arrow_at(-gu)
    a4 = t2_at(a3.target).arrow_at(-gv)
    return compose_all(a4, a3, a2, a1)


@lru_cache(maxsize=None)
def _fresh_pair(alg: WeilAlgebra, a: str, b: str) -> tuple[WeilAlgebra, str, str]:
    """`alg` extended by two fresh generators named after `a` and `b`,
    with their names; cached, as algebras are interned."""
    u = alg.fresh_name(a)
    ext = alg.extend(u)
    v = ext.fresh_name(b)
    return ext.extend(v), u, v


def bracket_sections(
    t1: Section, t2: Section, x: Point, alg: WeilAlgebra
) -> TangentData:
    """Lie bracket of two sections at x via the four-letter bisection word."""
    ext, u, v = _fresh_pair(alg, "u", "v")
    xe = tuple(c.convert(ext) for c in x)
    word = _commutator_word(
        lambda p: t1.at(p, ext), lambda p: t2.at(p, ext), xe, ext, u, v
    )
    return top_tangent(word, (u, v), CubeError).convert(alg)


def bracket(t1: TangentData, t2: TangentData) -> TangentData:
    """Lie bracket of two tangents at a shared anchor.

    Needs the four evaluations to compose, which holds over a one-point
    base and for vertical tangents; anchored sections handle the rest."""
    t1._check_mate(t2)
    alg = t1.algebra
    ext, u, v = _fresh_pair(alg, "u", "v")
    a, b = t1.convert(ext), t2.convert(ext)
    word = _commutator_word(lambda p: a, lambda p: b, a.anchor, ext, u, v)
    return top_tangent(word, (u, v), CubeError).convert(alg)
