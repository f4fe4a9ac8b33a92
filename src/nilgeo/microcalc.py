"""Tangent calculus over the groupoid models.

A micro-n-cube is an arrow-valued table indexed by n designated square-zero
generators: at the origin it is an identity arrow and its source never
moves.  Degree one gives tangents; degree two the microsquares that the
connection and curvature machinery consumes.

Two views of a tangent coexist here.  `Microcube` keeps the full arrow
(needed for slicing, permuting and word building); `TangentData` keeps the
linearization (anchor, boundary velocity, vertical matrix), which is the
right shape for fiberwise-linear bookkeeping.  A word that is the identity
wherever one of its arguments is 0 is read off its top coefficient by
`top_tangent`: the strong difference and the bracket read their words so,
and `kernel_loop_tangent` reads curvature and the covariant derivative.

Slicing, permuting, rescaling and restricting a cube are mask plans of
`weil`, which `_transform` applies throughout an arrow.

The cube invariants and group membership are checked where an arrow
enters from outside: the public `make_microcube`, which `degenerate_square`,
`_axis_diff` (the differences) and `bisection_product` build through, as do
`sampling.sample_microcube` and `sampling.perturbed_square`; each arrow a
connection's `apply` returns is checked in `connection.lifted_edge`.  A cube
derived from a checked one by `slice_multi`, `permute`, `scale_arg` or `tau`
is a cube by group closure, since each reparametrizes by a map of algebras
(`_relabel_plan` refuses a renaming that is not one), so those four wrap
their arrow with the unchecked `_cube`; so does `connection.lift`, whose
arrow composes two checked lifted edges.

Each cube reads the edge tangent of each argument once, at its far corner
(`Microcube.far_edge`): the edge along d_k with every other argument on.
The edge from any other corner is that tangent with the off arguments
dropped (`_tangent_drop`), so a cube's twelve edges cost three reads, and
an edge from the origin can be read directly (`_origin_edge`), with no
inverse.  A slice that renames nothing inherits each far read its parent
has kept (`_inherit_far_edges`), so the faces of a lifted cube read none
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .matrices import Matrix
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
    Scalar, WeilAlgebra, WeilElement, _Plan, _drop_plan, _rename_plan,
    _restrict_plan, _scale_plan,
)


class CubeError(ValueError):
    """A would-be microcube violates the defining invariants."""


class DifferenceError(ValueError):
    """Precondition of a difference construction fails."""


# ---------------------------------------------------------------------------
# microcubes


@dataclass(frozen=True)
class Microcube:
    """An n-cube of arrows: identity at the origin, source pinned."""

    arrow: Arrow
    args: tuple[str, ...]

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

    @cached_property
    def far_edges(self) -> dict[int, "TangentData"]:
        """Argument index -> the far-corner edge tangents `far_edge` has read
        so far on this cube."""
        return {}

    def far_edge(self, k: int) -> "TangentData":
        """The tangent of the edge along argument k with every other
        argument on, read once per cube: anchored at the target at d_k = 0,
        with direction the d_k-cofactor of the target and vert the
        d_k-cofactor of the body times the inverse of the body at d_k = 0.
        The edge from any other corner is this tangent with the off
        arguments dropped (`_tangent_drop`), since dropping is a map of
        algebras."""
        far = self.far_edges.get(k)
        if far is None:
            a, d = self.arrow, (self.args[k - 1],)
            anchor = tuple(c.drop(d) for c in a.target)
            direction = tuple(c.coefficient(d) for c in a.target)
            vert = a.body.coefficient(d) * a.body.drop(d).inverse()
            far = self.far_edges[k] = TangentData(a.model, a.grp, anchor, direction, vert)
        return far


def _image(p: Point, alg: WeilAlgebra, plan: _Plan, plan_of) -> Point:
    """Each coordinate under `plan` if it is over `alg`, else under its
    own algebra's `plan_of`."""
    return tuple(w._apply(plan if w.algebra is alg else plan_of(w.algebra)) for w in p)


def _transform(a: Arrow, plan_of: Callable[[WeilAlgebra], _Plan]) -> Arrow:
    """Apply the plan `plan_of(alg)` to the body and to every coordinate over
    its algebra `alg`; a coordinate over another algebra gets that one's."""
    alg, plan = a.algebra, plan_of(a.algebra)
    source, target = (_image(p, alg, plan, plan_of) for p in (a.source, a.target))
    return Arrow(a.model, a.grp, source, target, a.body._apply(plan))


def _drops(names: Sequence[str]) -> Callable[[WeilAlgebra], _Plan]:
    """The plan over each algebra that evaluates `names` at zero."""
    return lambda alg: _drop_plan(alg, alg.mask(names))


def arrow_drop(a: Arrow, names: Sequence[str]) -> Arrow:
    """Evaluate the listed generators at zero throughout the arrow."""
    return _transform(a, _drops(names))


def _origin_edge(cube: Microcube, k: int) -> "TangentData":
    """The tangent of the edge along argument k from the origin: the cube
    with every other argument dropped, whose body is I at d_k = 0, so the
    read takes no inverse."""
    d = (cube.args[k - 1],)
    a = arrow_drop(cube.arrow, cube.args[: k - 1] + cube.args[k:])
    direction = tuple(c.coefficient(d) for c in a.target)
    return TangentData(a.model, a.grp, a.source, direction, a.body.coefficient(d))


def _tangent_drop(td: "TangentData", names: Sequence[str]) -> "TangentData":
    """`arrow_drop` for tangent data."""
    plan_of = _drops(names)
    alg, plan = td.algebra, plan_of(td.algebra)
    anchor, direction = (_image(p, alg, plan, plan_of) for p in (td.anchor, td.direction))
    return TangentData(td.model, td.grp, anchor, direction, td.vert._apply(plan))


def _relabel_plan(alg: WeilAlgebra, pairs: tuple[tuple[str, str], ...]) -> _Plan:
    """`weil._rename_plan`, refused with `CubeError` unless the renaming sends
    each killed monomial of `alg` to a killed one or to zero: only then is it
    a map of algebras, so that it keeps a cube a cube."""
    bits = [(alg.gen_bit(old), alg.gen_bit(new)) for old, new in pairs]
    moved = sum(b for b, _ in bits)
    for m in alg.killed:
        image, zero = m & ~moved, False
        for old_bit, new_bit in bits:
            if m & old_bit:
                zero = zero or bool(image & new_bit)
                image |= new_bit
        if not zero and image not in alg.killed:
            raise CubeError(f"renaming {dict(pairs)} does not respect the killed monomials")
    return _rename_plan(alg, pairs)


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
    """Validate the cube invariants and wrap the arrow."""
    args = _cube_args(args, arrow.algebra)
    at_zero = arrow_drop(arrow, args)
    if at_zero.source != arrow.source:
        raise CubeError("source must not depend on the cube arguments")
    if at_zero.target != arrow.source or not at_zero.body.is_identity():
        raise CubeError("cube is not an identity arrow at the origin")
    arrow.model.check(arrow)
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


def slice_cube(cube: Microcube, i: int, e) -> Microcube:
    """Freeze argument i at e and renormalize by the frozen arrow.

    `e` is 0 or a generator name; passing the argument's own name keeps it
    as a symbolic parameter of the resulting lower cube."""
    return slice_multi(cube, {i: e})


def slice_multi(cube: Microcube, frozen: dict[int, object]) -> Microcube:
    args = cube.args
    for i in frozen:
        if not 1 <= i <= len(args):
            raise CubeError(f"slice index {i} out of range")
    remaining = tuple(g for k, g in enumerate(args, 1) if k not in frozen)
    alg = cube.algebra
    rename: dict[str, str] = {}
    zeroed: list[str] = []
    for i, e in frozen.items():
        g = args[i - 1]
        if e == 0:
            zeroed.append(g)
        elif isinstance(e, str):
            if e not in alg.names:
                raise CubeError(f"generator {e} not in the ambient algebra")
            if e in remaining:
                raise CubeError(f"generator collision with remaining argument {e}")
            if e != g:
                rename[g] = e
        else:
            raise CubeError("frozen value must be 0 or a generator name")
    a = cube.arrow
    if rename:
        a = _transform(a, lambda alg: _relabel_plan(alg, tuple(rename.items())))
    if zeroed:
        a = arrow_drop(a, zeroed)
    if not remaining:
        raise CubeError("cannot slice away every argument")
    if all(e == 0 for e in frozen.values()):
        # frozen arrow is the identity; no correction factor needed
        out = _cube(a, remaining)
    else:
        corr = arrow_drop(a, remaining)
        out = _cube(compose(a, invert(corr)), remaining)
    if not rename:
        _inherit_far_edges(cube, out, zeroed)
    return out


def _inherit_far_edges(parent: Microcube, child: Microcube, zeroed: list[str]) -> None:
    """Hand a slice of `parent` that renames nothing each far-corner read
    the parent has kept along one of the slice's arguments.  The slice's
    read is the parent's with the zeroed arguments dropped; the correction
    by the frozen arrow does not change it, since that arrow is free of
    the slice's arguments and cancels between the read's two factors."""
    kept = parent.__dict__.get("far_edges")
    if not kept:
        return
    index = {g: j for j, g in enumerate(child.args, 1)}
    reads = child.far_edges
    for k, far in kept.items():
        j = index.get(parent.args[k - 1])
        if j is not None:
            reads[j] = _tangent_drop(far, zeroed) if zeroed else far


def permute(cube: Microcube, theta: Sequence[int]) -> Microcube:
    """Precompose with the coordinate permutation theta (1-based images)."""
    args = cube.args
    if sorted(theta) != list(range(1, len(args) + 1)):
        raise CubeError(f"not a permutation of 1..{len(args)}: {theta}")
    pairs = tuple(zip(args, (args[t - 1] for t in theta)))
    arrow = _transform(cube.arrow, lambda alg: _relabel_plan(alg, pairs))
    return _cube(arrow, args)


def transpose(cube: Microcube) -> Microcube:
    """Swap the two arguments of a microsquare."""
    if cube.degree != 2:
        raise CubeError("transpose expects a microsquare")
    return permute(cube, (2, 1))


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
    """Rescale argument i by the rational a."""
    if not 1 <= i <= cube.degree:
        raise CubeError(f"scale index {i} out of range")
    g = cube.args[i - 1]
    return _cube(_transform(cube.arrow, lambda alg: _scale_plan(alg, g, a)), cube.args)


# ---------------------------------------------------------------------------
# tangent data


@dataclass(frozen=True)
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
        """The arrow at parameter value w (any square-zero element)."""
        n = self.vert.size
        target = tuple(c + w * d for c, d in zip(self.anchor, self.direction))
        body = Matrix.identity(n, self.algebra) + self.vert * w
        return Arrow(self.model, self.grp, self.anchor, target, body)

    def convert(self, alg: WeilAlgebra) -> "TangentData":
        if alg is self.algebra:
            return self
        return TangentData(
            self.model,
            self.grp,
            tuple(c.convert(alg) for c in self.anchor),
            tuple(c.convert(alg) for c in self.direction),
            self.vert.convert(alg),
        )

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

    def same_as(self, other: "TangentData") -> bool:
        if self.model is not other.model or self.grp != other.grp:
            return False
        alg = self.algebra.union(other.algebra)
        a, b = self.convert(alg), other.convert(alg)
        return (
            a.anchor == b.anchor
            and a.direction == b.direction
            and a.vert == b.vert
        )


def from_tangent(t: Microcube) -> TangentData:
    """Extract the linearization of a degree-one cube."""
    if t.degree != 1:
        raise CubeError("expected a degree-one cube")
    d = t.args[0]
    direction = tuple(c.coefficient((d,)) for c in t.arrow.target)
    vert = t.arrow.body.coefficient((d,))
    return TangentData(t.model, t.arrow.grp, t.anchor, direction, vert)


def include_tangent(td: TangentData) -> TangentData:
    if td.grp != "L":
        raise CompositionError("include expects an L-tangent")
    return TangentData(td.model, "H", td.anchor, td.direction, td.vert)


def as_kernel_tangent(td: TangentData) -> TangentData:
    """Recognize a vertical H-tangent as a tangent of the kernel bundle."""
    if not all(c.is_zero() for c in td.direction):
        raise CompositionError("tangent has a nonzero base velocity")
    out = TangentData(td.model, "L", td.anchor, td.direction, td.vert)
    # the reconstructed arrow must satisfy the kernel group equations
    name = td.algebra.fresh_name("chk")
    probe = td.algebra.extend(name)
    td.model.check(out.convert(probe).arrow_at(probe.gen(name)))
    return out


def top_tangent(word: Arrow, args: Sequence[str], error: type) -> tuple[Point, Matrix]:
    """The direction and vertical part of the tangent whose value at the
    product of `args` is `word`; raises `error` unless the word is the
    identity wherever one of `args` is 0."""
    vert = _top_vert(word, args, error)
    direction = tuple((t - s).coefficient(args) for t, s in zip(word.target, word.source))
    return direction, vert


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


def degenerate_square(
    td: TangentData, args: tuple[str, str], alg: WeilAlgebra | None = None
) -> Microcube:
    """The microsquare t(d1*d2) concentrated in the top coefficient."""
    alg = (alg or td.algebra).extend(*args)
    t = td.convert(alg)
    w = alg.gen(args[0]) * alg.gen(args[1])
    return make_microcube(t.arrow_at(w), args)


def _axis_diff(g2: Microcube, g1: Microcube, axis: int) -> Microcube:
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


def diff1(g2: Microcube, g1: Microcube) -> Microcube:
    """Difference in the first slot; needs agreement on (0, .)."""
    return _axis_diff(g2, g1, 1)


def diff2(g2: Microcube, g1: Microcube) -> Microcube:
    """Difference in the second slot; needs agreement on (., 0)."""
    return _axis_diff(g2, g1, 2)


def strong_diff(g2: Microcube, g1: Microcube) -> TangentData:
    """Second-order discrepancy of two microsquares agreeing off the top
    coefficient; the result is a tangent at the common anchor."""
    if g1.args != g2.args or g1.degree != 2:
        raise DifferenceError("strong difference needs two microsquares on the same arguments")
    top = g1.args
    below = [_transform(g.arrow, lambda alg: _restrict_plan(alg.kill([top]))) for g in (g1, g2)]
    if below[0] != below[1]:
        raise DifferenceError("squares disagree below the top coefficient")
    delta = compose(g2.arrow, invert(g1.arrow))  # both squares start at the anchor
    direction, vert = top_tangent(delta, top, DifferenceError)
    # multiplying the correction from the other side must give the same data
    other = (g1.arrow.body.inverse() * g2.arrow.body).coefficient(top)
    if other != vert:
        raise DifferenceError("left/right factorizations disagree")
    return TangentData(g1.model, g1.arrow.grp, g1.anchor, direction, vert)


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


def _extract_square_tangent(
    word: Arrow, x: Point, u: str, v: str, base_alg: WeilAlgebra
) -> TangentData:
    """Read the unique tangent with value `word` at the product monomial."""
    direction, vert = top_tangent(word, (u, v), CubeError)
    return TangentData(
        word.model,
        word.grp,
        tuple(c.convert(base_alg) for c in x),
        tuple(c.convert(base_alg) for c in direction),
        vert.convert(base_alg),
    )


def _fresh_pair(alg: WeilAlgebra, a: str, b: str) -> tuple[WeilAlgebra, str, str]:
    """`alg` extended by two fresh generators named after `a` and `b`,
    with their names."""
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
    return _extract_square_tangent(word, x, u, v, alg)


def bracket(t1: TangentData, t2: TangentData) -> TangentData:
    """Lie bracket of two tangents at a shared anchor.

    Needs the four evaluations to compose, which holds over a one-point
    base and for vertical tangents; anchored sections handle the rest."""
    t1._check_mate(t2)
    alg = t1.algebra
    ext, u, v = _fresh_pair(alg, "u", "v")
    a, b = t1.convert(ext), t2.convert(ext)
    word = _commutator_word(lambda p: a, lambda p: b, a.anchor, ext, u, v)
    return _extract_square_tangent(word, t1.anchor, u, v, alg)
