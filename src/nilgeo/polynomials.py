"""Multivariate polynomials with rational coefficients.

Used for base-dependent data (sections, vertical connection coefficients).
A polynomial is built from its terms and evaluated; there is no
polynomial arithmetic, since nothing the checker runs needs it.
Evaluation accepts Weil-valued coordinates, so polynomial data can be read
off exactly at rationally-centred points with nilpotent displacements.

Evaluation shares monomials: one call builds each monomial x^e that its
terms need once, from a smaller monomial by one Weil product (the
constant and the coordinates themselves cost none).  A `Poly` is read as
one rational linear combination of those monomials, summed in one integer
table over a common denominator and normalized once
(`matrices._combination`).  A `PolyMatrix` is stored the way a `Matrix`
is, as one map from exponent tuple to a flat integer matrix C_e over one
common denominator, and evaluates by summing C_e * x^e straight into the
result's table.  Matrices read at one point can share one monomial table
(`connection._gauge_map` shares it across a connection's coefficients).
Exponents are non-negative integers and coefficients exact rationals;
anything else raises when the polynomial is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .matrices import Matrix, _combination, _normal
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
    """Square matrix of polynomials, stored the way a `Matrix` is: exponent
    tuple e -> the flat, row-major n x n integer matrix C_e (`_t`), over one
    common denominator `_den`.  The form is canonical (no all-zero
    exponents, a positive denominator coprime to the content of every
    entry).  The constructor reads `Poly` entries; `_wrap` takes a fresh
    table unchecked, as `matrices._new` does."""

    __slots__ = ("size", "nvars", "_t", "_den")

    def __init__(self, rows: Sequence[Sequence[Poly]]):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if not n:
            raise ValueError("matrix must not be empty")
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        nvars = {p.nvars for r in rows for p in r}
        if len(nvars) != 1:
            raise ValueError("entries must all take the same number of variables")
        entries = [p for r in rows for p in r]
        den = lcm(*(c.denominator for p in entries for c in p.terms.values()))
        table: dict[tuple[int, ...], list[int]] = {}
        for k, p in enumerate(entries):
            for e, c in p.terms.items():
                col = table.get(e)
                if col is None:
                    col = table[e] = [0] * (n * n)
                col[k] = c.numerator * (den // c.denominator)
        _fill(self, n, nvars.pop(), {e: tuple(v) for e, v in table.items()}, den)

    def __call__(
        self, coords: Sequence[WeilElement], mono: dict | None = None
    ) -> Matrix:
        """The matrix sum of C_e * x^e at the coordinates, summed straight
        into one integer table and normalized once.  `mono`, when given, is
        a monomial table of `_monomials` at these same coordinates that
        this call extends, so several matrices read at one point share it."""
        if len(coords) != self.nvars:
            raise ValueError("coordinate count mismatch")
        table = self._t
        mono = _monomials(coords, table, mono)
        den = lcm(*(mono[e]._den for e in table))
        cells = self.size * self.size
        out: dict[int, list[int]] = {}
        for e, c in table.items():
            x = mono[e]
            s = den // x._den
            for m, v in x._c.items():
                f = v * s
                col = out.get(m)
                if col is None:
                    col = out[m] = [0] * cells
                for k, a in enumerate(c):
                    if a:
                        col[k] += a * f
        return _normal(
            coords[0].algebra,
            self.size,
            {m: tuple(v) for m, v in out.items()},
            self._den * den,
        )


def _fill(pm: PolyMatrix, size: int, nvars: int, table: dict, den: int) -> PolyMatrix:
    """Set the fields from a fresh table of tuples over a positive
    denominator, brought to canonical form by `matrices._normal`, which
    reads only the table, so exponent tuples key it as well as masks."""
    m = _normal(None, size, table, den)
    pm.size, pm.nvars, pm._t, pm._den = size, nvars, m._t, m._den
    return pm


def _wrap(size: int, nvars: int, table: dict, den: int) -> PolyMatrix:
    """A `PolyMatrix` from a fresh integer table, with no entry checks: the
    samplers write the table directly."""
    return _fill(object.__new__(PolyMatrix), size, nvars, table, den)


def _monomials(
    coords: Sequence[WeilElement],
    exponents: Iterable[tuple[int, ...]],
    mono: dict | None = None,
) -> dict[tuple[int, ...], WeilElement]:
    """x^e at the coordinates for every listed exponent tuple e, together
    with the constant, the coordinates and the smaller monomials they are
    built from, added to the table `mono` of the same coordinates when one
    is given.  Each new monomial costs one Weil product: x^e is
    x^(e - u_i) * x_i for the first axis i that e uses."""
    if mono is None:
        mono = {}
    if not mono:
        alg = coords[0].algebra
        for x in coords:
            _check_algebra(alg, x.algebra)
        n = len(coords)
        mono[(0,) * n] = alg.one
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
