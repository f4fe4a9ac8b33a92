"""Test-side oracles: symbolic calculus the checker itself never needs."""

import itertools
from fractions import Fraction

from nilgeo.matrices import Matrix
from nilgeo.microcalc import make_microcube
from nilgeo.models import Arrow
from nilgeo.polynomials import Poly, PolyMatrix


def poly_rows(pm):
    """The entries of a `PolyMatrix` as rows of `Poly`s, read back off its
    integer table."""
    n = pm.size
    return tuple(
        tuple(
            Poly(pm.nvars, {e: Fraction(v[i * n + j], pm._den) for e, v in pm._t.items()})
            for j in range(n)
        )
        for i in range(n)
    )


def partial(p, i):
    """The derivative in variable i of a `Poly`, or entrywise of a
    `PolyMatrix`."""
    if isinstance(p, PolyMatrix):
        return PolyMatrix([[partial(q, i) for q in row] for row in poly_rows(p)])
    return Poly(
        p.nvars,
        {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in p.terms.items() if e[i]},
    )


# -- the samplers as they were written over `Fraction`s: the draws, their order
# and the values the integer samplers of `nilgeo.sampling` must reproduce

DENOMINATORS = (1, 1, 1, 2, 3)


def fraction_rational(rng, bound=Fraction(2)):
    den = rng.choice(DENOMINATORS)
    top = bound.numerator * den // bound.denominator
    return Fraction(rng.randint(-top, top), den)


def fraction_weil(rng, alg, bound=Fraction(2)):
    out = alg.zero
    for mask in range(1 << len(alg.names)):
        if mask in alg.killed:
            continue
        q = fraction_rational(rng, bound)
        if q:
            out = out + alg.term(q, alg.mono_names(mask))
    return out


def fraction_lie_rows(rng, model, grp, bound=Fraction(2)):
    size = model.spec(grp).size
    rows = [[Fraction(0)] * size for _ in range(size)]
    for b in model.lie_basis(grp):
        q = fraction_rational(rng, bound)
        for i, row in enumerate(b.constant_matrix()):
            for j, v in enumerate(row):
                if v:
                    rows[i][j] += q * v
    return tuple(tuple(r) for r in rows)


def fraction_vert(rng, model, grp, alg, bound=Fraction(2)):
    return Matrix.from_rational(fraction_lie_rows(rng, model, grp, bound), alg)


def fraction_point(rng, model, alg, bound=Fraction(2)):
    return tuple(alg.scalar(fraction_rational(rng, bound)) for _ in range(model.base_dim))


def fraction_microcube(rng, model, grp, args, alg, bound=Fraction(2)):
    x = fraction_point(rng, model, alg, bound)
    size = model.spec(grp).size
    body = Matrix.identity(size, alg)
    target = list(x)
    masks = sorted(range(1, 1 << len(args)), key=lambda m: (bin(m).count("1"), m))
    for m in masks:
        mono = alg.term(1, [g for i, g in enumerate(args) if m >> i & 1])
        if model.lie_basis(grp):
            step = Matrix.identity(size, alg) + fraction_vert(rng, model, grp, alg, bound) * mono
            body = body * step
        for k in range(model.base_dim):
            target[k] = target[k] + mono * fraction_rational(rng, bound)
    return make_microcube(Arrow(model, grp, x, tuple(target), body), args)


def fraction_perturbed_square(rng, base, bound=Fraction(2)):
    alg, model, grp = base.algebra, base.model, base.arrow.grp
    top = alg.term(1, base.args)
    bump = Matrix.identity(model.spec(grp).size, alg)
    if model.lie_basis(grp):
        bump = bump + fraction_vert(rng, model, grp, alg, bound) * top
    tgt = [c + top * fraction_rational(rng, bound) for c in base.arrow.target]
    old = base.arrow
    return make_microcube(Arrow(model, grp, old.source, tuple(tgt), bump * old.body), base.args)


def fraction_poly(rng, nvars, degree, bound=Fraction(2)):
    terms = {}
    for exps in itertools.product(range(degree + 1), repeat=nvars):
        if sum(exps) <= degree:
            q = fraction_rational(rng, bound)
            if q:
                terms[exps] = q
    return Poly(nvars, terms)


def fraction_poly_matrix(rng, model, grp, degree, bound=Fraction(2)):
    size = model.spec(grp).size
    nvars = model.base_dim
    entries = [[Poly(nvars, {}) for _ in range(size)] for _ in range(size)]
    for b in model.lie_basis(grp):
        p = fraction_poly(rng, nvars, degree, bound)
        for i, row in enumerate(b.constant_matrix()):
            for j, v in enumerate(row):
                if v:
                    terms = dict(entries[i][j].terms)
                    for e, c in p.terms.items():
                        terms[e] = terms.get(e, 0) + c * v
                    entries[i][j] = Poly(nvars, terms)
    return PolyMatrix(entries)
