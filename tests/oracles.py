"""Test-side oracles: symbolic calculus the checker itself never needs."""

import itertools
from fractions import Fraction

from nilgeo.matrices import Matrix
from nilgeo.microcalc import make_microcube
from nilgeo.models import Arrow
from nilgeo.polynomials import Poly, PolyMatrix


def coeffs(e):
    """The coefficients of a `WeilElement` as monomial name tuple ->
    `Fraction`, read back off its integer table."""
    return {e.algebra.mono_names(m): Fraction(v, e._den) for m, v in sorted(e._c.items())}


def entry(m, i, j):
    """The entry (i, j) of a `Matrix` as a `WeilElement`, read back off its
    integer table; i and j index like a tuple of rows."""
    span = range(m.size)
    k = span[i] * m.size + span[j]
    alg = m.algebra
    out = alg.zero
    for mask, v in sorted(m._t.items()):
        out = out + alg.term(Fraction(v[k], m._den), alg.mono_names(mask))
    return out


def rows(m):
    """The entries of a `Matrix` as a tuple of rows of `WeilElement`s."""
    n = m.size
    return tuple(tuple(entry(m, i, j) for j in range(n)) for i in range(n))


def matrix(entries):
    """The `Matrix` with these rows of `WeilElement`s of one algebra, built
    from program calls only: the sum of E_ij * a_ij over the unit matrices
    E_ij."""
    entries = tuple(tuple(r) for r in entries)
    n = len(entries)
    alg = entries[0][0].algebra
    out = Matrix.zero(n, alg)
    for i, r in enumerate(entries):
        for j, a in enumerate(r):
            unit = [[int((p, q) == (i, j)) for q in range(n)] for p in range(n)]
            out = out + Matrix.from_rational(unit, alg) * a
    return out


def rational_inverse(const):
    """The inverse of a square matrix of rationals, given as rows, by
    Gaussian elimination; raises `ZeroDivisionError` when it is singular."""
    n = len(const)
    a = [[Fraction(v) for v in r] for r in const]
    b = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("constant part is singular")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        b[col] = [v * inv for v in b[col]]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            f = a[r][col]
            a[r] = [v - f * w for v, w in zip(a[r], a[col])]
            b[r] = [v - f * w for v, w in zip(b[r], b[col])]
    return tuple(tuple(r) for r in b)


def regular_inverse(m):
    """The inverse of a `Matrix` over a Weil algebra A, through its regular
    representation: the rational matrix by which m acts on A^n, with the
    surviving monomials of A as basis, inverted by `rational_inverse`.  The
    entry (i, j) of the inverse is read off column (j, 1) of that inverse;
    raises `ZeroDivisionError` when m is not invertible."""
    alg, n = m.algebra, m.size
    basis = [b for b in range(1 << len(alg.names)) if b not in alg.killed]
    index = {(i, b): k for k, (i, b) in enumerate((i, b) for i in range(n) for b in basis)}
    act = [[Fraction(0)] * len(index) for _ in index]
    for (j, b), col in index.items():
        for mask, v in m._t.items():
            if mask & b or mask | b in alg.killed:
                continue
            for i in range(n):
                act[index[i, mask | b]][col] += Fraction(v[i * n + j], m._den)
    inv = rational_inverse(act)
    out = Matrix.zero(n, alg)
    for i in range(n):
        for j in range(n):
            unit = [[int((p, q) == (i, j)) for q in range(n)] for p in range(n)]
            for b in basis:
                c = inv[index[i, b]][index[j, 0]]
                if c:
                    out = out + Matrix.from_rational(unit, alg) * alg.term(c, alg.mono_names(b))
    return out


def inverse(m):
    """The inverse of a `Matrix` whose constant part C is any invertible
    rational matrix: m = C (I + U) with U nilpotent, so m^-1 = (I + U)^-1
    C^-1, and `Matrix.inverse` takes the factor I + U."""
    c_inv = Matrix.from_rational(rational_inverse(m.constant_matrix()), m.algebra)
    return (c_inv * m).inverse() * c_inv


def invert(g):
    """The inverse of a finite arrow, whose body need not be I where the
    generators vanish."""
    return Arrow(g.model, g.grp, g.target, g.source, inverse(g.body))


def poly_terms(p):
    """The terms of a `Poly` as exponent tuple -> `Fraction`, read back off
    its integer table."""
    return {e: Fraction(c, p._den) for e, (c,) in p._t.items()}


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
        {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in poly_terms(p).items() if e[i]},
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
    for b in model.spec(grp).lie_basis:
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
        if model.spec(grp).lie_basis:
            step = Matrix.identity(size, alg) + fraction_vert(rng, model, grp, alg, bound) * mono
            body = body * step
        for k in range(model.base_dim):
            target[k] = target[k] + mono * fraction_rational(rng, bound)
    return make_microcube(Arrow(model, grp, x, tuple(target), body), args)


def fraction_perturbed_square(rng, base, bound=Fraction(2)):
    alg, model, grp = base.algebra, base.model, base.arrow.grp
    top = alg.term(1, base.args)
    bump = Matrix.identity(model.spec(grp).size, alg)
    if model.spec(grp).lie_basis:
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
    for b in model.spec(grp).lie_basis:
        p = fraction_poly(rng, nvars, degree, bound)
        for i, row in enumerate(b.constant_matrix()):
            for j, v in enumerate(row):
                if v:
                    terms = poly_terms(entries[i][j])
                    for e, c in poly_terms(p).items():
                        terms[e] = terms.get(e, 0) + c * v
                    entries[i][j] = Poly(nvars, terms)
    return PolyMatrix(entries)
