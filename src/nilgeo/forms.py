"""Kernel-valued differential forms and the covariant exterior derivative.

A form of degree n eats micro-n-cubes of the downstairs groupoid and
returns kernel tangents at the same anchor.  A one-form is a connection's
linear map into L (`connection._linear_map`), with the gauge part unnegated.
A form keeps each value it computes for as long as it lives, so it is
evaluated once per distinct cube.  Validation checks the homogeneity and
alternation laws pointwise-exactly on supplied samples.

The degree-raising derivative builds, for each cube argument, the value on
the frozen slice times the reversed value on the moved slice conjugated by
the lifted edge (`connection.lifted_edge`), inverts the odd-numbered
factors and multiplies ascending.  The word is read off the coefficient of
the full product monomial by `microcalc.kernel_loop_tangent`, the same read
as curvature's, which asserts on each evaluation that the word is the
identity wherever one argument is 0, kernel-valued and a loop at the
anchor.

`Form.__call__` keeps a value only once the degree, kernel and fiber
checks pass, so every first evaluation is validated; a value is over its
cube's algebra, so the fiber check compares the two anchors as they are.
Its key leads with the cube's algebra: cubes over different algebras then
never reach `WeilElement.__eq__`, which refuses to compare across algebras.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Callable, Sequence

from .connection import Connection, _linear_map, curvature, lifted_edge
from .microcalc import (
    Microcube,
    TangentData,
    from_tangent,
    include_tangent,
    kernel_loop_tangent,
    permute,
    perm_sign,
    scale_arg,
    slice_cube,
)
from .models import GroupoidModel, compose, compose_all, invert


class FormError(ValueError):
    """A form value or derivative word violated its structural contract."""


@dataclass(frozen=True)
class Form:
    """Degree-n evaluator from downstairs micro-n-cubes to kernel tangents
    over each cube's algebra; it keeps each value it computes, so its memo
    grows with the number of distinct cubes it has seen."""

    model: GroupoidModel
    degree: int
    fn: Callable[[Microcube], TangentData]
    _values: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __call__(self, cube: Microcube) -> TangentData:
        key = (cube.algebra, cube)
        value = self._values.get(key)
        if value is not None:
            return value
        if cube.degree != self.degree:
            raise FormError(f"form of degree {self.degree} fed a {cube.degree}-cube")
        value = self.fn(cube)
        if value.grp != "L":
            raise FormError("form value must be a kernel tangent")
        if value.anchor != cube.anchor:
            raise FormError("form value sits over the wrong fiber")
        self._values[key] = value
        return value


def curvature_form(conn: Connection) -> Form:
    return Form(conn.model, 2, lambda cube: curvature(conn, cube))


def one_form(model: GroupoidModel, images: Sequence = (), coeffs: Sequence = ()) -> Form:
    """One-form from images of the downstairs coordinate directions (one per
    free cell of G) and per-axis coefficient matrices (one per base axis),
    valued in the kernel: the connection's map, with the gauge part
    unnegated."""
    _, vert_of = _linear_map(model, "L", images, coeffs, FormError)

    def fn(t: Microcube) -> TangentData:
        td = from_tangent(t)
        zero = tuple(td.algebra.zero for _ in td.anchor)
        return TangentData(model, "L", td.anchor, zero, vert_of(td))

    return Form(model, 1, fn)


DEFAULT_SCALARS = (0, 1, -1, 2, Fraction(1, 2))


def validate_form(
    form: Form,
    samples: Sequence[Microcube],
    scalars: Sequence = DEFAULT_SCALARS,
) -> list[str]:
    """Check homogeneity in every slot and full alternation on each sample;
    returns human-readable violation entries (empty means the form passed)."""
    violations: list[str] = []
    for k, cube in enumerate(samples):
        base = form(cube)
        for i in range(1, form.degree + 1):
            for a in scalars:
                got = form(scale_arg(cube, i, a))
                if got != base.scale(a):
                    violations.append(f"sample {k}: homogeneity fails in slot {i} at a={a}")
        for theta in permutations(range(1, form.degree + 1)):
            got = form(permute(cube, theta))
            if got != base.scale(perm_sign(theta)):
                violations.append(f"sample {k}: alternation fails for {theta}")
    return violations


def d_nabla(conn: Connection, form: Form) -> Form:
    """Covariant exterior derivative; degrees one and two are the supported
    inputs (the evaluator itself is uniform in the degree).

    `form` keeps each face value it computes, and the derived form each of
    its own, for as long as they live; derive a fresh form for each batch
    of cubes rather than keeping one indefinitely."""
    if form.degree < 1:
        raise FormError("derivative needs a form of degree at least one")

    def fn(cube: Microcube) -> TangentData:
        return _derivative_value(conn, form, cube)

    return Form(form.model, form.degree + 1, fn)


def _derivative_value(conn: Connection, form: Form, cube: Microcube) -> TangentData:
    args = cube.args
    alg = cube.algebra
    total = None
    for i in range(1, cube.degree + 1):
        others = tuple(g for k, g in enumerate(args, 1) if k != i)
        mono = alg.term(1, others)
        gi = lifted_edge(conn, cube, (), i)
        v0 = include_tangent(form(slice_cube(cube, i, 0)))
        vi = include_tangent(form(slice_cube(cube, i, args[i - 1])))
        inner = compose_all(invert(gi), vi.arrow_at(-mono), gi)
        if not cube.model.kernel_test(inner):
            raise FormError("conjugated form value left the kernel")
        factor = compose(v0.arrow_at(mono), inner)
        if i % 2 == 1:
            factor = invert(factor)
        total = factor if total is None else compose(total, factor)
    return kernel_loop_tangent(total, cube, FormError)
