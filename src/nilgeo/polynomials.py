"""Multivariate polynomials with rational coefficients.

Used for base-dependent data (sections, vertical connection coefficients).
A polynomial is built from its terms and evaluated; there is no
polynomial arithmetic, since nothing the checker runs needs it.
Evaluation accepts Weil-valued coordinates, so polynomial data can be read
off exactly at rationally-centred points with nilpotent displacements.

Evaluation shares monomials: one call builds each monomial x^e that its
terms need once, from a smaller monomial by one Weil product (the
constant and the coordinates themselves cost none), and reads every
polynomial as one rational linear combination of those monomials,
summed in one integer table over a common denominator and normalized once
(`matrices._combination`).  A `PolyMatrix` shares its monomials across all
of its entries and writes every entry's combination straight into the
matrix's own integer table; a `Poly` is read as a 1 x 1 one.
Exponents are non-negative integers and coefficients exact rationals;
anything else raises when the polynomial is built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .matrices import Matrix, _combination
from .weil import Scalar, WeilElement, _check_algebra, _exact


class Poly:
    """Polynomial in `nvars` variables; terms keyed by exponent tuples."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Scalar] = ()):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, c in dict(terms).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError("exponent tuple has wrong length")
            if not all(isinstance(k, int) and k >= 0 for k in exps):
                raise ValueError(f"exponents must be non-negative integers: {exps}")
            if not isinstance(c, Fraction):
                c = Fraction(_exact(c))
            if c:
                prev = clean.get(exps)
                clean[exps] = c if prev is None else prev + c
        self.terms = {e: c for e, c in clean.items() if c}

    @staticmethod
    def var(nvars: int, i: int) -> "Poly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly(nvars, {exps: Fraction(1)})

    def __call__(self, coords: Sequence[WeilElement]) -> WeilElement:
        if len(coords) != self.nvars:
            raise ValueError("coordinate count mismatch")
        mono = _monomials(coords, self.terms)
        return _combination(
            coords[0].algebra, 1, ((0, c, mono[e]) for e, c in self.terms.items())
        )[0, 0]

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for exps, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(exps)
                if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


class PolyMatrix:
    """Square matrix of polynomials; evaluates to a `Matrix`."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        self.rows = tuple(tuple(r) for r in rows)
        n = len(self.rows)
        if not n:
            raise ValueError("matrix must not be empty")
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")
        if len({p.nvars for r in self.rows for p in r}) != 1:
            raise ValueError("entries must all take the same number of variables")

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def nvars(self) -> int:
        return self.rows[0][0].nvars

    def __call__(self, coords: Sequence[WeilElement]) -> Matrix:
        if len(coords) != self.nvars:
            raise ValueError("coordinate count mismatch")
        entries = [p for r in self.rows for p in r]
        mono = _monomials(coords, (e for p in entries for e in p.terms))
        return _combination(
            coords[0].algebra,
            self.size,
            ((k, c, mono[e]) for k, p in enumerate(entries) for e, c in p.terms.items()),
        )


def _monomials(
    coords: Sequence[WeilElement], exponents: Iterable[tuple[int, ...]]
) -> dict[tuple[int, ...], WeilElement]:
    """x^e at the coordinates for every listed exponent tuple e, together
    with the constant, the coordinates and the smaller monomials they are
    built from.  Each new monomial costs one Weil product: x^e is
    x^(e - u_i) * x_i for the first axis i that e uses."""
    alg = coords[0].algebra
    for x in coords:
        _check_algebra(alg, x.algebra)
    n = len(coords)
    mono = {(0,) * n: alg.one}
    for i, x in enumerate(coords):
        mono[tuple(1 if j == i else 0 for j in range(n))] = x
    for e in exponents:
        path = []
        while e not in mono:
            i = next(j for j, k in enumerate(e) if k)
            path.append((e, i))
            e = e[:i] + (e[i] - 1,) + e[i + 1:]
        m = mono[e]
        for e, i in reversed(path):
            m = m * coords[i]
            mono[e] = m
    return mono
