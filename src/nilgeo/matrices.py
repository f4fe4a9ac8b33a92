"""Square matrices over a Weil algebra, stored as one integer table.

A matrix M over an algebra of square-zero generators is a truncated Taylor
polynomial with matrix coefficients, M = sum of C_m * m over the surviving
monomials m.  A `Matrix` stores exactly that: one map from monomial mask to
a flat, row-major n x n integer matrix, over one common denominator for
the whole table.  The form is canonical (no all-zero masks, a positive
denominator coprime to the content of every entry), so equality and
hashing read the algebra, the size and the table directly.

A product pairs the disjoint surviving masks of its factors and does one
small integer matrix product per pair, then normalizes once.  Sums and
multiples work on the table the same way, and `drop`, `coefficient`,
`convert` and the arrow transforms of `microcalc` apply a mask plan of
`weil` to it (`_apply`).  There is no constructor from rows of entries:
a matrix starts as a table, from `identity`, `zero`, `from_rational`
(where rationals enter) or a `PolyMatrix` evaluation.  A `PolyMatrix` or
`Poly` keeps a table of the same shape keyed by exponent tuples and sums
its evaluation into a table over masks; `_normal` brings both kinds of
table to canonical form.  `models` reads the table by position: its group
tests directly, its projections through `gather`, and the connections read
their free cells the same way.  There is no entry reader: the program
reads tables, and entries are built as `WeilElement`s only for display.

Only I + U with U nilpotent is inverted, so everything stays exact.  Every
arrow the checker composes or inverts is the identity where its generators
vanish, so no other constant part ever reaches `inverse`, and one raises
`NotUnipotent`; there is no elimination over the rationals.  A square-zero
step, I + U whose masks all share a generator (a lifted edge I + dV, a
face-loop letter), has U * U = 0, so its inverse is I - U in closed form:
the same table with the nonconstant part negated.  Every other I + U takes
the finite series of `weil._neumann`.

`from_rational` checks that the matrix is square and not empty.  Results
of the arithmetic here are square, not empty and over one algebra by
construction and skip those checks.  Every algebra test is
`weil._check_algebra`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add
from typing import Sequence

from .weil import (
    Scalar, WeilAlgebra, WeilElement, _build, _check_algebra, _exact, _neumann, _Plan,
    _Transforms,
)

Rational = Sequence[Sequence[Scalar]]


class NotUnipotent(ValueError):
    """`Matrix.inverse` was given a constant part other than the identity.
    Every arrow the checker inverts is the identity where its generators
    vanish, so only I + nilpotent is ever inverted, by a finite series."""


class SizeMismatch(ValueError):
    """A binary operation was given matrices of different sizes."""


class Matrix(_Transforms):
    """Immutable square matrix over one Weil algebra: monomial mask -> flat
    integer n x n matrix (`_t`), over the common denominator `_den`."""

    __slots__ = ("algebra", "size", "_t", "_den")

    @staticmethod
    def identity(n: int, alg: WeilAlgebra) -> "Matrix":
        return _new(alg, _check_size(n), {0: _eye(n)}, 1)

    @staticmethod
    def zero(n: int, alg: WeilAlgebra) -> "Matrix":
        return _new(alg, _check_size(n), {}, 1)

    @staticmethod
    def from_rational(rows: Rational, alg: WeilAlgebra) -> "Matrix":
        rows = tuple(tuple(r) for r in rows)
        n = _check_shape(rows)
        vals = [_exact(v) for r in rows for v in r]  # ints have denominator 1
        den = lcm(*(q.denominator for q in vals))
        flat = tuple(q.numerator * (den // q.denominator) for q in vals)
        return _new(alg, n, {0: flat} if any(flat) else {}, den)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.size != other.size:
            return False
        _check_algebra(self.algebra, other.algebra)
        return self._den == other._den and self._t == other._t

    def __hash__(self):
        return hash((self.algebra, self.size, self._den, frozenset(self._t.items())))

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return _combine(self, other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return _combine(self, other, -1)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self._scaled(other)
        _check_sizes(self, other)
        _check_algebra(self.algebra, other.algebra)
        return _product(self, other._t, other._den, _kernel(self.size))

    def _scaled(self, other):
        """self * other for a rational or a `WeilElement` other."""
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            num = other.numerator
            out = {m: tuple([x * num for x in v]) for m, v in self._t.items()}
            return _normal(self.algebra, self.size, out, self._den * other.denominator)
        if not isinstance(other, WeilElement):
            return NotImplemented
        _check_algebra(self.algebra, other.algebra)
        return _product(self, other._c, other._den, _times)

    # scalars and elements commute with everything we store
    __rmul__ = _scaled

    def constant_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        n = self.size
        c = self._t.get(0, (0,) * (n * n))
        return tuple(
            tuple(Fraction(c[i * n + j], self._den) for j in range(n))
            for i in range(n)
        )

    def _apply(self, *plans: _Plan) -> "Matrix":
        """Entrywise `WeilElement._apply`: one plan lookup per mask and plan."""
        out: dict[int, tuple[int, ...]] = {}
        for plan in plans:
            for m, v in self._t.items():
                if (hit := plan[m]) is not None:
                    new, f = hit
                    v = v if f == 1 else tuple([x * f for x in v])
                    out[new] = tuple(map(add, out[new], v)) if new in out else v
        return _normal(plan.target, self.size, out, self._den * plan.den)

    def gather(self, cells: Sequence[Sequence[tuple[int, int] | None]]) -> "Matrix":
        """The matrix whose entry (i, j) is this one's entry at the position
        cells[i][j], or zero where that cell is None."""
        span = range(self.size)  # positions index like m[i, j]
        flat = [
            None if c is None else span[c[0]] * self.size + span[c[1]]
            for r in cells
            for c in r
        ]
        out = {m: tuple([0 if k is None else v[k] for k in flat]) for m, v in self._t.items()}
        return _normal(self.algebra, _check_shape(cells), out, self._den)

    def is_zero(self) -> bool:
        return not self._t

    def is_identity(self) -> bool:
        return self._den == 1 and len(self._t) == 1 and self._t.get(0) == _eye(self.size)

    def inverse(self) -> "Matrix":
        """The inverse of I + U with U nilpotent.  When every mask of U
        shares a generator, U * U = 0 and the inverse is I - U
        (`_step_inverse`); otherwise it is the series of `weil._neumann`."""
        if not _has_identity_constant(self):
            raise NotUnipotent("constant part is not the identity")
        common = -1  # the AND of U's masks; no mask at all leaves it nonzero
        for m in self._t:
            if m:
                common &= m
        if common:
            return _step_inverse(self)
        u = _normal(self.algebra, self.size, {k: v for k, v in self._t.items() if k}, self._den)
        return _neumann(Matrix.identity(self.size, self.algebra), u)

    def __repr__(self):
        n, t = self.size, self._t
        entries = [
            str(_build(self.algebra, {m: v[k] for m, v in t.items() if v[k]}, self._den))
            for k in range(n * n)
        ]
        rows = (", ".join(entries[i * n:(i + 1) * n]) for i in range(n))
        return f"Matrix[{'; '.join(rows)}]"


def _new(alg: WeilAlgebra, n: int, table: dict, den: int) -> Matrix:
    """Wrap a table that is canonical by construction."""
    m = object.__new__(Matrix)
    m.algebra = alg
    m.size = n
    m._t = table
    m._den = den
    return m


def _step_inverse(m: Matrix) -> Matrix:
    """I - U for m = I + U with U * U = 0: the table with its nonconstant
    part negated, which keeps the denominator and the content."""
    return _new(
        m.algebra,
        m.size,
        {k: tuple([-x for x in v]) if k else v for k, v in m._t.items()},
        m._den,
    )


def _plus_identity(m: Matrix) -> Matrix:
    """I + m for m with no constant term: den * I written in at mask 0,
    which keeps the table canonical."""
    t = {0: tuple([m._den * x for x in _eye(m.size)])}
    t.update(m._t)
    return _new(m.algebra, m.size, t, m._den)


def _normal(alg: WeilAlgebra, n: int, table: dict, den: int) -> Matrix:
    """Bring a fresh table of tuples over a positive denominator to
    canonical form: all-zero masks dropped, the denominator coprime to the
    content."""
    if not all(map(any, table.values())):
        table = {m: v for m, v in table.items() if any(v)}
    if den != 1:
        g = den  # an empty table leaves g = den, and den becomes 1
        for v in table.values():
            g = gcd(g, *v)
            if g == 1:
                break
        if g > 1:
            den //= g
            table = {m: tuple([x // g for x in v]) for m, v in table.items()}
    return _new(alg, n, table, den)


def _combine(a: Matrix, b: Matrix, sign: int) -> Matrix:
    """a + sign * b over the least common denominator."""
    _check_sizes(a, b)
    alg = a.algebra
    _check_algebra(alg, b.algebra)
    if not b._t:
        return a
    d1, d2 = a._den, b._den
    g = gcd(d1, d2)
    s1, s2 = d2 // g, sign * (d1 // g)
    out = dict(a._t) if s1 == 1 else {
        m: tuple([x * s1 for x in v]) for m, v in a._t.items()
    }
    get = out.get
    for m, v in b._t.items():
        if s2 != 1:
            v = tuple([x * s2 for x in v])
        prev = get(m)
        out[m] = v if prev is None else tuple(map(add, prev, v))
    return _normal(alg, a.size, out, d1 * s1)


def _product(a: Matrix, t2: dict, den2: int, kernel) -> Matrix:
    """a times the table `t2` over `den2`: `kernel` multiplies one of a's
    flat matrices by one value of `t2` for each pair of disjoint masks whose
    union survives."""
    alg = a.algebra
    killed = alg.killed
    items2 = list(t2.items())
    out: dict[int, tuple[int, ...]] = {}
    get = out.get
    for m1, x in a._t.items():
        for m2, y in items2:
            if m1 & m2:
                continue  # repeated generator: square-zero
            m = m1 | m2
            if m in killed:
                continue
            p = kernel(x, y)
            prev = get(m)
            out[m] = p if prev is None else tuple(map(add, prev, p))
    return _normal(alg, a.size, out, a._den * den2)


def _times(a: tuple[int, ...], c: int) -> tuple[int, ...]:
    """A flat matrix times an integer: the kernel of products with elements."""
    return a if c == 1 else tuple([x * c for x in a])


def _check_size(n: int) -> int:
    if n < 1:
        raise ValueError("matrix must not be empty")
    return n


def _check_shape(rows: tuple[tuple, ...]) -> int:
    n = _check_size(len(rows))
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return n


def _check_sizes(a: Matrix, b: Matrix) -> None:
    if a.size != b.size:
        raise SizeMismatch(f"{a.size}x{a.size} against {b.size}x{b.size}")


@lru_cache(maxsize=None)
def _eye(n: int) -> tuple[int, ...]:
    """The flat n x n identity."""
    return tuple(int(k % (n + 1) == 0) for k in range(n * n))


@lru_cache(maxsize=None)
def _kernel(n: int):
    """The product of two flat n x n integer matrices, written out once for
    size n as one tuple of sums of products.  Products are most of a
    curvature pass, and at the sizes the models use a row-by-column loop
    costs about ten times as much per call as the written-out form."""
    a = ", ".join(f"a{k}" for k in range(n * n))
    b = ", ".join(f"b{k}" for k in range(n * n))
    entries = ", ".join(
        " + ".join(f"a{i * n + k} * b{k * n + j}" for k in range(n))
        for i in range(n)
        for j in range(n)
    )
    scope: dict = {}
    exec(f"def mul(a, b):\n    {a}, = a\n    {b}, = b\n    return ({entries},)", scope)
    return scope["mul"]


def _has_identity_constant(m: Matrix) -> bool:
    # a constant term equals I exactly when its numerators are den * I
    c = m._t.get(0)
    return c is not None and c == tuple([m._den * x for x in _eye(m.size)])
