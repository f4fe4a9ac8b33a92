"""Seeded random generation of test data.

Everything is drawn from an explicit `random.Random` in a fixed order, so
a seed fully determines every sampled element, cube, section and
connection: runs are bit-reproducible.

The connection table at the end holds, for each shipped configuration
(keyed by model name, as in the `models` registry), its named presets and
its random-connection sampler.  Each splitting image layout is written once,
over its free scalars: a preset fixes them, the sampler draws them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Sequence

from .connection import Connection, GaugeConnection, SplittingConnection
from .matrices import Matrix
from .microcalc import (
    ConstantSection,
    Microcube,
    PolySection,
    Section,
    _cube_args,
    make_microcube,
)
from .models import Arrow, GroupoidModel, Point
from .polynomials import Poly, PolyMatrix
from .weil import WeilAlgebra, WeilElement, _build as weil_build

DENOMINATORS = (1, 1, 1, 2, 3)


def sample_rational(rng: random.Random, bound: Fraction = Fraction(2)) -> Fraction:
    den = rng.choice(DENOMINATORS)
    top = bound.numerator * den // bound.denominator
    return Fraction(rng.randint(-top, top), den)


def sample_weil(
    rng: random.Random, alg: WeilAlgebra, bound: Fraction = Fraction(2)
) -> WeilElement:
    draws = {}
    den = 1
    for mask in range(1 << len(alg.names)):
        if mask in alg.killed:
            continue
        q = sample_rational(rng, bound)
        if q:
            draws[mask] = q
            den = den * q.denominator // gcd(den, q.denominator)
    table = {m: q.numerator * (den // q.denominator) for m, q in draws.items()}
    return weil_build(alg, table, den)


def sample_lie_rows(
    rng: random.Random, model: GroupoidModel, grp: str, bound: Fraction = Fraction(2)
):
    """Random rational matrix in the layer's coefficient pattern."""
    basis = model.lie_basis(grp)
    size = model.spec(grp).size
    rows = [[Fraction(0)] * size for _ in range(size)]
    for b in basis:
        q = sample_rational(rng, bound)
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                if v:
                    rows[i][j] += q * v
    return tuple(tuple(r) for r in rows)


def sample_vert(
    rng: random.Random,
    model: GroupoidModel,
    grp: str,
    alg: WeilAlgebra,
    bound: Fraction = Fraction(2),
) -> Matrix:
    return Matrix.from_rational(sample_lie_rows(rng, model, grp, bound), alg)


def sample_point(
    rng: random.Random,
    model: GroupoidModel,
    alg: WeilAlgebra,
    bound: Fraction = Fraction(2),
) -> Point:
    return tuple(alg.scalar(sample_rational(rng, bound)) for _ in range(model.base_dim))


def sample_microcube(
    rng: random.Random,
    model: GroupoidModel,
    grp: str,
    args: Sequence[str],
    alg: WeilAlgebra,
    x: Point | None = None,
    bound: Fraction = Fraction(2),
) -> Microcube:
    """Random cube built as a product of per-monomial perturbations, so
    membership holds by group closure.  Raises `CubeError`, before any
    draw, unless the arguments are distinct generators of `alg`."""
    args = _cube_args(args, alg)
    if x is None:
        x = sample_point(rng, model, alg, bound)
    size = model.spec(grp).size
    body = Matrix.identity(size, alg)
    target = list(x)
    masks = [m for m in range(1, 1 << len(args)) if _names(args, m)]
    masks.sort(key=lambda m: (bin(m).count("1"), m))
    has_lie = bool(model.lie_basis(grp))
    for m in masks:
        mono = alg.term(1, _names(args, m))
        if has_lie:
            body = body * (
                Matrix.identity(size, alg) + sample_vert(rng, model, grp, alg, bound) * mono
            )
        for k in range(model.base_dim):
            target[k] = target[k] + mono * sample_rational(rng, bound)
    arrow = Arrow(model, grp, x, tuple(target), body)
    return make_microcube(arrow, args)


def _names(args, mask):
    return tuple(g for i, g in enumerate(args) if mask >> i & 1)


def perturbed_square(
    rng: random.Random, base: Microcube, bound: Fraction = Fraction(2)
) -> Microcube:
    """A square agreeing with `base` except in the top coefficient: the
    compatible partner for difference constructions."""
    alg = base.algebra
    model = base.model
    grp = base.arrow.grp
    top = alg.term(1, base.args)
    size = model.spec(grp).size
    bump = Matrix.identity(size, alg)
    if model.lie_basis(grp):
        bump = bump + sample_vert(rng, model, grp, alg, bound) * top
    tgt = list(base.arrow.target)
    for k in range(model.base_dim):
        tgt[k] = tgt[k] + top * sample_rational(rng, bound)
    old = base.arrow
    arrow = Arrow(model, grp, old.source, tuple(tgt), bump * old.body)
    return make_microcube(arrow, base.args)


def sample_poly(
    rng: random.Random, nvars: int, degree: int, bound: Fraction = Fraction(2)
) -> Poly:
    terms = {}
    for exps in _exponents(nvars, degree):
        q = sample_rational(rng, bound)
        if q:
            terms[exps] = q
    return Poly(nvars, terms)


def _exponents(nvars, degree):
    if nvars == 0:
        return [()]
    out = []
    for head in range(degree + 1):
        for tail in _exponents(nvars - 1, degree - head):
            out.append((head,) + tail)
    return out


def sample_poly_matrix(
    rng: random.Random,
    model: GroupoidModel,
    grp: str,
    degree: int,
    bound: Fraction = Fraction(2),
) -> PolyMatrix:
    """Polynomial matrix valued in the layer's coefficient pattern."""
    basis = model.lie_basis(grp)
    size = model.spec(grp).size
    nvars = model.base_dim
    # each entry's terms accumulate over the basis; one `Poly` per entry
    terms = [[{} for _ in range(size)] for _ in range(size)]
    for b in basis:
        p = sample_poly(rng, nvars, degree, bound)
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                if v:
                    entry = terms[i][j]
                    for e, c in p.terms.items():
                        if v != 1:
                            c = c * v
                        prev = entry.get(e)
                        entry[e] = c if prev is None else prev + c
    return PolyMatrix([[Poly(nvars, t) for t in row] for row in terms])


def sample_section(
    rng: random.Random,
    model: GroupoidModel,
    degree: int = 2,
    bound: Fraction = Fraction(2),
) -> Section:
    """A random section of G: constant on a point base, else polynomial."""
    if model.base_dim == 0:
        return ConstantSection(model, "G", sample_lie_rows(rng, model, "G", bound))
    velocity = tuple(
        sample_poly(rng, model.base_dim, degree, bound) for _ in range(model.base_dim)
    )
    return PolySection(model, "G", velocity)


def sample_connection(
    rng: random.Random,
    model: GroupoidModel,
    bound: Fraction = Fraction(2),
    degree: int = 2,
) -> Connection:
    sampler, _ = _CONNECTIONS[model.name]
    return sampler(rng, model, bound, degree)


def preset_names(model: GroupoidModel) -> tuple[str, ...]:
    _, presets = _CONNECTIONS[model.name]
    return tuple(presets)


def preset_connection(model: GroupoidModel, name: str = "standard") -> Connection:
    _, presets = _CONNECTIONS[model.name]
    if name not in presets:
        raise KeyError(f"no preset {name!r} for model {model.name}")
    builder, *fixed = presets[name]
    return builder(model, *fixed)


# ---------------------------------------------------------------------------
# connections of the shipped configurations


def _heisenberg(model, lam, mu) -> Connection:
    return SplittingConnection(
        model,
        (
            ((0, 1, lam), (0, 0, 0), (0, 0, 0)),
            ((0, 0, mu), (0, 0, 1), (0, 0, 0)),
        ),
    )


def _sample_heisenberg(rng, model, bound, degree) -> Connection:
    lam = sample_rational(rng, bound)
    mu = sample_rational(rng, bound)
    return _heisenberg(model, lam, mu)


def _direct_product(model, c) -> Connection:
    images = []
    for i in range(2):
        for j in range(2):
            rows = [[Fraction(0)] * 3 for _ in range(3)]
            rows[i][j] = Fraction(1)
            rows[2][2] = c if i == j else Fraction(0)
            images.append(tuple(tuple(r) for r in rows))
    return SplittingConnection(model, images)


def _sample_direct_product(rng, model, bound, degree) -> Connection:
    return _direct_product(model, sample_rational(rng, bound))


def _sample_gauge(rng, model, bound, degree) -> Connection:
    coeffs = [
        sample_poly_matrix(rng, model, "H", degree, bound)
        for _ in range(model.base_dim)
    ]
    return GaugeConnection(model, coeffs)


def _gauge_coordinates():
    return Poly(2, {}), Poly.var(2, 0), Poly.var(2, 1)


def _scalar_x1dx2(model) -> Connection:
    z, x1, _ = _gauge_coordinates()
    return GaugeConnection(model, (PolyMatrix(((z,),)), PolyMatrix(((x1,),))))


def _gl2_standard(model) -> Connection:
    z, x1, x2 = _gauge_coordinates()
    a1 = PolyMatrix(((z, x2), (z, z)))
    a2 = PolyMatrix(((z, z), (x1, z)))
    return GaugeConnection(model, (a1, a2))


def _sl2_standard(model) -> Connection:
    z, x1, x2 = _gauge_coordinates()
    a1 = PolyMatrix(((x2, z), (z, Poly(2, {(0, 1): -1}))))
    a2 = PolyMatrix(((z, x1), (z, z)))
    return GaugeConnection(model, (a1, a2))


# model name -> (sampler, preset name -> (builder, *the scalars it fixes))
_CONNECTIONS = {
    "heisenberg": (_sample_heisenberg, {"standard": (_heisenberg, 0, 0)}),
    "direct_product": (_sample_direct_product, {"standard": (_direct_product, 1)}),
    "trivial_gauge[scalar]": (_sample_gauge, {"x1dx2": (_scalar_x1dx2,)}),
    "trivial_gauge[gl2]": (_sample_gauge, {"standard": (_gl2_standard,)}),
    "trivial_gauge[sl2]": (_sample_gauge, {"standard": (_sl2_standard,)}),
}
