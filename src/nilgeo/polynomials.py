"""Multivariate polynomials with rational coefficients.

Used for base-dependent data (sections, vertical connection coefficients).
A polynomial is built from its terms and evaluated; there is no
polynomial arithmetic, since nothing the checker runs needs it.
Evaluation accepts Weil-valued coordinates, so polynomial data can be read
off exactly at rationally-centred points with nilpotent displacements.

A `PolyMatrix` is stored the way a `Matrix` is, as one map from exponent
tuple to a flat integer matrix C_e over one common denominator, and a
`Poly` is stored as a 1 x 1 one.  Both evaluate through one loop
(`_evaluate`), which sums C_e * x^e straight into an integer table over
the masks of the coordinates' algebra; a `PolyMatrix` normalizes that
table once into a `Matrix`, a `Poly` into a `WeilElement`.  Evaluation
shares monomials: one call builds each monomial x^e that its table needs
once, from a smaller monomial by one Weil product (the constant and the
coordinates themselves cost none).  Matrices read at one point can share
one monomial table (`connection._linear_map` shares it across a
connection's coefficients).  Exponents are non-negative integers and
coefficients exact rationals; anything else raises when the polynomial is
built.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .matrices import Matrix, _normal
from .weil import Scalar, WeilElement, _build, _check_algebra, _exact


class Poly:
    """Polynomial in `nvars` variables, stored as the table of a 1 x 1
    `PolyMatrix` (`size` is 1): exponent tuple -> (integer coefficient,),
    over one common denominator `_den`."""

    __slots__ = ("size", "nvars", "_t", "_den")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Scalar] = ()):
        clean = []
        for exps, c in dict(terms).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError("exponent tuple has wrong length")
            if not all(isinstance(k, int) and k >= 0 for k in exps):
                raise ValueError(f"exponents must be non-negative integers: {exps}")
            clean.append((exps, _exact(c)))  # ints have denominator 1
        den = lcm(*(c.denominator for _, c in clean))
        table = {e: (c.numerator * (den // c.denominator),) for e, c in clean}
        _fill(self, 1, nvars, table, den)

    @staticmethod
    def var(nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        return Poly(nvars, {tuple(int(j == i) for j in range(nvars)): 1})

    def __call__(self, coords: Sequence[WeilElement]) -> WeilElement:
        out, den = _evaluate(self, coords)
        return _build(coords[0].algebra, {m: v[0] for m, v in out.items()}, den)

    def __repr__(self):
        if not self._t:
            return "Poly(0)"
        bits = []
        for exps, (c,) in sorted(self._t.items()):
            mono = "*".join(
                f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(exps)
                if k
            )
            bits.append(f"{Fraction(c, self._den)}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


class PolyMatrix:
    """Square matrix of polynomials, stored the way a `Matrix` is: exponent
    tuple e -> the flat, row-major n x n integer matrix C_e (`_t`), over one
    common denominator `_den`.  The form is canonical (no all-zero
    exponents, a positive denominator coprime to the content of every
    entry).  The constructor packs the integer tables of its `Poly`
    entries; `_wrap` takes a fresh table unchecked, as `matrices._new`
    does."""

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
        den = lcm(*(p._den for p in entries))
        table: dict[tuple[int, ...], list[int]] = {}
        for k, p in enumerate(entries):
            s = den // p._den
            for e, (c,) in p._t.items():
                col = table.get(e)
                if col is None:
                    col = table[e] = [0] * (n * n)
                col[k] = c * s
        _fill(self, n, nvars.pop(), {e: tuple(v) for e, v in table.items()}, den)

    def __call__(
        self, coords: Sequence[WeilElement], mono: dict | None = None
    ) -> Matrix:
        """The matrix sum of C_e * x^e at the coordinates, normalized once.
        `mono`, when given, is a monomial table of `_monomials` at these
        same coordinates that this call extends, so several matrices read
        at one point share it."""
        out, den = _evaluate(self, coords, mono)
        return _normal(
            coords[0].algebra, self.size, {m: tuple(v) for m, v in out.items()}, den
        )


def _evaluate(
    p: Poly | PolyMatrix, coords: Sequence[WeilElement], mono: dict | None = None
) -> tuple[dict[int, list[int]], int]:
    """The sum of C_e * x^e over the table of `p` at the coordinates, as a
    fresh integer table (mask -> flat matrix) and its positive
    denominator, not yet normalized.  `mono` is as for `_monomials`."""
    if len(coords) != p.nvars:
        raise ValueError("coordinate count mismatch")
    table = p._t
    mono = _monomials(coords, table, mono)
    den = lcm(*(mono[e]._den for e in table))
    cells = p.size * p.size
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
    return out, p._den * den


def _fill(p, size: int, nvars: int, table: dict, den: int):
    """Set the fields of a `Poly` or `PolyMatrix` from a fresh table of
    tuples over a positive denominator, brought to canonical form by
    `matrices._normal`, which reads only the table, so exponent tuples key
    it as well as masks."""
    m = _normal(None, size, table, den)
    p.size, p.nvars, p._t, p._den = size, nvars, m._t, m._den
    return p


def _wrap(cls: type, size: int, nvars: int, table: dict, den: int):
    """A `Poly` (size 1) or `PolyMatrix` from a fresh integer table, with
    no entry checks: the samplers write the table directly."""
    return _fill(object.__new__(cls), size, nvars, table, den)


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
