"""Seeded random generation of test data.

Everything is drawn from an explicit `random.Random` in a fixed order, so
a seed fully determines every sampled element, cube, section and
connection: runs are bit-reproducible.

Each random rational is one `_numerator` draw: a denominator taken from
`DENOMINATORS`, then a numerator over it, read as an integer over their
least common multiple `_DEN`.  The samplers of Weil elements, matrices,
polynomials, polynomial matrices and cube targets write those integers
straight into the integer tables that `weil`, `matrices` and
`polynomials` keep, normalize each table once (with `weil._build` or
`matrices._normal`) and build no `Fraction` on the way; `sample_rational`
is the one draw as a `Fraction`.  What a draw needs of its bound is one
table per bound (`_draw_table`), looked up once per sampler call, since
hashing the bound costs about as much as the draw; it holds the bit length
of each range, so a draw reads `rng.getrandbits` directly and draws what
`rng.randrange` would.

A Lie-algebra element is a constant matrix over `models.ALG0`, so
`sample_lie_rows` is `sample_vert` over that algebra.

The connection table at the end holds, for each shipped configuration
(keyed by model name, as in the `models` registry), its random-connection
sampler, its named presets and its pinned nonflat witness, if it has one.
Every row builds a `connection.Connection`, from images on the one-point
models and from coefficients on the gauge models.  Each image layout is
written once, over its free scalars: a preset fixes them, the sampler
draws them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .connection import Connection, curvature
from .matrices import Matrix, _eye, _normal
from .microcalc import (
    ConstantSection,
    Microcube,
    PolySection,
    Section,
    _cube_args,
    bisection_product,
    make_microcube,
)
from .models import ALG0, Arrow, GroupoidModel, MatrixGroup, Point, build_model
from .polynomials import Poly, PolyMatrix, _wrap as poly_wrap
from .weil import WeilAlgebra, WeilElement, _build as weil_build, algebra

DENOMINATORS = (1, 1, 1, 2, 3)
_DEN = lcm(*DENOMINATORS)  # every draw is an integer over this
_PICK, _PICK_BITS = len(DENOMINATORS), len(DENOMINATORS).bit_length()


@lru_cache(maxsize=None)
def _draw_table(bound: Fraction) -> tuple[tuple[int, int, int, int], ...]:
    """For each entry den of `DENOMINATORS`, (span, bits, top, _DEN // den):
    the count 2 * top + 1 of numerators over den of size at most `bound`
    and its bit length, the largest such numerator, and den's cofactor in
    `_DEN`."""
    table = []
    for den in DENOMINATORS:
        top = bound.numerator * den // bound.denominator
        span = 2 * top + 1
        table.append((span, span.bit_length(), top, _DEN // den))
    return tuple(table)


def _numerator(rng: random.Random, table: tuple[tuple[int, int, int, int], ...]) -> int:
    """A random rational of size at most the bound of `table`, as a
    numerator over `_DEN`.  It draws what `rng.choice(DENOMINATORS)` and
    `rng.randint(-top, top)` draw, from the same stream: each is a number
    below a bound n read from n.bit_length() random bits and redrawn while
    it reaches n, as CPython's `Random._randbelow_with_getrandbits` does."""
    getrandbits = rng.getrandbits
    r = getrandbits(_PICK_BITS)
    while r >= _PICK:
        r = getrandbits(_PICK_BITS)
    span, bits, top, scale = table[r]
    r = getrandbits(bits)
    while r >= span:
        r = getrandbits(bits)
    return (r - top) * scale


def sample_rational(rng: random.Random, bound: Fraction = Fraction(2)) -> Fraction:
    return Fraction(_numerator(rng, _draw_table(bound)), _DEN)


def sample_weil(
    rng: random.Random, alg: WeilAlgebra, bound: Fraction = Fraction(2)
) -> WeilElement:
    draws = _draw_table(bound)
    table = {
        mask: _numerator(rng, draws)
        for mask in range(1 << len(alg.names))
        if mask not in alg.killed
    }
    return weil_build(alg, table, _DEN)


@lru_cache(maxsize=None)
def _lie_cells(spec: MatrixGroup) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each Lie basis matrix of `spec` as its (flat position, entry) pairs
    where the entry is nonzero; the entries are 0 and +-1, over 1."""
    return tuple(tuple((k, v) for k, v in enumerate(b._t[0]) if v) for b in spec.lie_basis)


def _lie_table(
    rng: random.Random, model: GroupoidModel, grp: str, bound: Fraction
) -> list[int]:
    """A random matrix in the layer's coefficient pattern, as a flat integer
    matrix over `_DEN`: one draw per Lie basis matrix, in basis order."""
    spec = model.spec(grp)
    draws = _draw_table(bound)
    flat = [0] * (spec.size * spec.size)
    for cells in _lie_cells(spec):
        num = _numerator(rng, draws)
        for k, v in cells:
            flat[k] += num * v
    return flat


def sample_lie_rows(
    rng: random.Random, model: GroupoidModel, grp: str, bound: Fraction = Fraction(2)
) -> Matrix:
    """A random element of the Lie algebra of `grp`: `sample_vert` over `ALG0`."""
    return sample_vert(rng, model, grp, ALG0, bound)


def sample_vert(
    rng: random.Random,
    model: GroupoidModel,
    grp: str,
    alg: WeilAlgebra,
    bound: Fraction = Fraction(2),
) -> Matrix:
    """A random constant matrix over `alg` in the layer's coefficient pattern."""
    flat = _lie_table(rng, model, grp, bound)
    return _normal(alg, model.spec(grp).size, {0: tuple(flat)}, _DEN)


def _step(
    rng: random.Random,
    model: GroupoidModel,
    grp: str,
    alg: WeilAlgebra,
    mask: int,
    bound: Fraction,
) -> Matrix | None:
    """I + V * m for the monomial m of `alg` with mask `mask` and V drawn as
    `sample_vert` draws it, or None where that is I."""
    flat = tuple(_lie_table(rng, model, grp, bound))
    if mask in alg.killed or not any(flat):
        return None
    n = model.spec(grp).size
    return _normal(alg, n, {0: tuple([_DEN * v for v in _eye(n)]), mask: flat}, _DEN)


def sample_point(
    rng: random.Random,
    model: GroupoidModel,
    alg: WeilAlgebra,
    bound: Fraction = Fraction(2),
) -> Point:
    draws = _draw_table(bound)
    return tuple(
        weil_build(alg, {0: _numerator(rng, draws)}, _DEN) for _ in range(model.base_dim)
    )


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
    body = Matrix.identity(model.spec(grp).size, alg)
    # the target's moves: per base axis, an integer table over `_DEN`
    moves: list[dict[int, int]] = [{} for _ in range(model.base_dim)]
    masks = list(range(1, 1 << len(args)))
    masks.sort(key=lambda m: (bin(m).count("1"), m))
    draws = _draw_table(bound)
    for m in masks:
        mono = alg.mask(_names(args, m))
        step = _step(rng, model, grp, alg, mono, bound)
        if step is not None:
            body = body * step
        for table in moves:
            num = _numerator(rng, draws)
            if mono not in alg.killed:
                table[mono] = num
    target = tuple(c + weil_build(alg, t, _DEN) for c, t in zip(x, moves))
    arrow = Arrow(model, grp, x, target, body)
    return make_microcube(arrow, args)


def _names(args, mask):
    return tuple(g for i, g in enumerate(args) if mask >> i & 1)


def perturbed_square(
    rng: random.Random, base: Microcube, bound: Fraction = Fraction(2)
) -> Microcube:
    """A square agreeing with `base` except in the top coefficient: the
    compatible partner for difference constructions."""
    alg = base.algebra
    old = base.arrow
    top = alg.mask(base.args)
    step = _step(rng, base.model, old.grp, alg, top, bound)
    body = old.body if step is None else step * old.body
    tgt = []
    draws = _draw_table(bound)
    for c in old.target:
        num = _numerator(rng, draws)
        tgt.append(c if top in alg.killed else c + weil_build(alg, {top: num}, _DEN))
    arrow = Arrow(base.model, old.grp, old.source, tuple(tgt), body)
    return make_microcube(arrow, base.args)


def sample_poly(
    rng: random.Random, nvars: int, degree: int, bound: Fraction = Fraction(2)
) -> Poly:
    """One draw per exponent of degree at most `degree`, written straight
    into the polynomial's integer table over `_DEN`."""
    draws = _draw_table(bound)
    table = {e: (_numerator(rng, draws),) for e in _exponents(nvars, degree)}
    return poly_wrap(Poly, 1, nvars, table, _DEN)


@lru_cache(maxsize=None)
def _exponents(nvars, degree):
    if nvars == 0:
        return ((),)
    out = []
    for head in range(degree + 1):
        for tail in _exponents(nvars - 1, degree - head):
            out.append((head,) + tail)
    return tuple(out)


def sample_poly_matrix(
    rng: random.Random,
    model: GroupoidModel,
    grp: str,
    degree: int,
    bound: Fraction = Fraction(2),
) -> PolyMatrix:
    """Polynomial matrix valued in the layer's coefficient pattern: one
    `sample_poly` draw per Lie basis matrix, written straight into the
    integer table over `_DEN` of each exponent."""
    spec = model.spec(grp)
    n = spec.size
    exponents = _exponents(model.base_dim, degree)
    draws = _draw_table(bound)
    table: dict[tuple[int, ...], list[int]] = {}
    for cells in _lie_cells(spec):
        for e in exponents:
            num = _numerator(rng, draws)
            if num:
                col = table.get(e)
                if col is None:
                    col = table[e] = [0] * (n * n)
                for k, v in cells:
                    col[k] += num * v
    table = {e: tuple(v) for e, v in table.items()}
    return poly_wrap(PolyMatrix, n, model.base_dim, table, _DEN)


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
    sampler, _, _ = _CONNECTIONS[model.name]
    return sampler(rng, model, bound, degree)


def preset_names(model: GroupoidModel) -> tuple[str, ...]:
    _, presets, _ = _CONNECTIONS[model.name]
    return tuple(presets)


def preset_connection(model: GroupoidModel, name: str = "standard") -> Connection:
    _, presets, _ = _CONNECTIONS[model.name]
    if name not in presets:
        raise KeyError(f"no preset {name!r} for model {model.name}")
    builder, *fixed = presets[name]
    return builder(model, *fixed)


# ---------------------------------------------------------------------------
# connections of the shipped configurations


def _heisenberg(model, lam, mu) -> Connection:
    images = (((0, 1, lam), (0, 0, 0), (0, 0, 0)), ((0, 0, mu), (0, 0, 1), (0, 0, 0)))
    return Connection(model, [Matrix.from_rational(r, ALG0) for r in images])


def _sample_heisenberg(rng, model, bound, degree) -> Connection:
    lam = sample_rational(rng, bound)
    mu = sample_rational(rng, bound)
    return _heisenberg(model, lam, mu)


def _direct_product(model, c) -> Connection:
    images = []
    for i in range(2):
        for j in range(2):
            rows = [[0] * 3 for _ in range(3)]
            rows[i][j] = 1
            rows[2][2] = c if i == j else 0
            images.append(Matrix.from_rational(rows, ALG0))
    return Connection(model, images)


def _sample_direct_product(rng, model, bound, degree) -> Connection:
    return _direct_product(model, sample_rational(rng, bound))


def _sample_gauge(rng, model, bound, degree) -> Connection:
    coeffs = [
        sample_poly_matrix(rng, model, "H", degree, bound)
        for _ in range(model.base_dim)
    ]
    return Connection(model, coeffs=coeffs)


def _gauge_coordinates():
    return Poly(2, {}), Poly.var(2, 0), Poly.var(2, 1)


def _scalar_x1dx2(model) -> Connection:
    z, x1, _ = _gauge_coordinates()
    return Connection(model, coeffs=(PolyMatrix(((z,),)), PolyMatrix(((x1,),))))


def _gl2_standard(model) -> Connection:
    z, x1, x2 = _gauge_coordinates()
    a1 = PolyMatrix(((z, x2), (z, z)))
    a2 = PolyMatrix(((z, z), (x1, z)))
    return Connection(model, coeffs=(a1, a2))


def _sl2_standard(model) -> Connection:
    z, x1, x2 = _gauge_coordinates()
    a1 = PolyMatrix(((x2, z), (z, Poly(2, {(0, 1): -1}))))
    a2 = PolyMatrix(((z, x1), (z, z)))
    return Connection(model, coeffs=(a1, a2))


# ---------------------------------------------------------------------------
# pinned nonflat witnesses: each is the exact curvature of a preset


def _heisenberg_witness() -> bool:
    """On the square of the coordinate sections E01 then E02, the standard
    preset's curvature is the central E02."""
    heis, alg = build_model("heisenberg"), algebra(["d1", "d2"])
    e01, e02 = heis.spec("G").lie_basis
    xs, ys = ConstantSection(heis, "G", e01), ConstantSection(heis, "G", e02)
    omega = curvature(preset_connection(heis), bisection_product(ys, xs, (), ("d1", "d2"), alg))
    return omega.vert == e02.convert(alg)


def _abelian_gauge_witness() -> bool:
    """On a coordinate square, the curvature of x1 dx2 is its curl, 1."""
    gauge, alg = build_model("trivial_gauge", "scalar"), algebra(["d1", "d2"])
    x = (alg.scalar(Fraction(1, 2)), alg.scalar(-3))
    target = (x[0] + alg.gen("d1"), x[1] + alg.gen("d2"))
    one = Matrix.identity(1, alg)
    square = make_microcube(Arrow(gauge, "G", x, target, one), ("d1", "d2"))
    return curvature(preset_connection(gauge, "x1dx2"), square).vert == one


# model name -> (sampler, preset name -> (builder, *the scalars it fixes),
# the pinned nonflat witness as (builder, report note) or None)
_CONNECTIONS = {
    "heisenberg": (
        _sample_heisenberg, {"standard": (_heisenberg, 0, 0)},
        (_heisenberg_witness, "heisenberg witness"),
    ),
    "direct_product": (_sample_direct_product, {"standard": (_direct_product, 1)}, None),
    "trivial_gauge[scalar]": (
        _sample_gauge, {"x1dx2": (_scalar_x1dx2,)},
        (_abelian_gauge_witness, "abelian gauge witness"),
    ),
    "trivial_gauge[gl2]": (_sample_gauge, {"standard": (_gl2_standard,)}, None),
    "trivial_gauge[sl2]": (_sample_gauge, {"standard": (_sl2_standard,)}, None),
}
