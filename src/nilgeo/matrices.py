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
`weil` to it (`_apply`).  `_combination` sums rational multiples of
elements straight into a table: the public constructor packs its entries
through it, and `Poly` evaluation reads a 1 x 1 one.  A `PolyMatrix` keeps
a table of the same shape keyed by exponent tuples and sums its own
evaluation into a matrix table; `_normal` brings both kinds of table to
canonical form.  `models` reads the table by position: its group tests
directly, its projections through `gather`, and the splitting connections
read their free cells the same way.  Entries (`m[i, j]`, `rows`) are built
as `WeilElement`s only when read.

Inverses exploit nilpotency: the constant part is inverted over the
rationals by Gaussian elimination and the nilpotent remainder by the
finite series of `weil._neumann`, so everything stays exact.  When the constant part is
already the identity, as for every square-zero step I + wV of a lifted
edge, the elimination and both products with its result are skipped and
the series runs on the nilpotent part directly; for a step it stops after
one square.

The public constructor checks that the matrix is square, not empty and
over one algebra.  Results of the arithmetic here are all three by
construction and skip those checks.  Every algebra test is `weil._check_algebra`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add
from typing import Iterable, Sequence

from .weil import (
    Scalar, WeilAlgebra, WeilElement, _build, _check_algebra, _exact, _neumann, _Plan,
    _Transforms,
)

Rational = Sequence[Sequence[Scalar]]


class SingularMatrix(ZeroDivisionError):
    """Constant part of the matrix is not invertible over the rationals."""


class SizeMismatch(ValueError):
    """A binary operation was given matrices of different sizes."""


class Matrix(_Transforms):
    """Immutable square matrix over one Weil algebra: monomial mask -> flat
    integer n x n matrix (`_t`), over the common denominator `_den`."""

    __slots__ = ("algebra", "size", "_t", "_den")

    def __init__(self, rows: Iterable[Iterable[WeilElement]]):
        rows = tuple(tuple(r) for r in rows)
        n = _check_shape(rows)
        alg = rows[0][0].algebra
        entries = [a for r in rows for a in r]
        for a in entries:
            if a.algebra is not alg:
                _check_algebra(alg, a.algebra)
        packed = _combination(alg, n, ((k, 1, a) for k, a in enumerate(entries)))
        self.algebra = alg
        self.size = n
        self._t = packed._t
        self._den = packed._den

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

    def __getitem__(self, ij) -> WeilElement:
        i, j = ij
        span = range(self.size)  # indexes like a tuple of rows
        k = span[i] * self.size + span[j]
        return _build(
            self.algebra, {m: v[k] for m, v in self._t.items() if v[k]}, self._den
        )

    @property
    def rows(self) -> tuple[tuple[WeilElement, ...], ...]:
        n = self.size
        return tuple(tuple(self[i, j] for j in range(n)) for i in range(n))

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

    def __neg__(self) -> "Matrix":
        return _new(
            self.algebra,
            self.size,
            {m: tuple([-x for x in v]) for m, v in self._t.items()},
            self._den,
        )

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

    def _apply(self, plan: _Plan) -> "Matrix":
        """Entrywise `WeilElement._apply`: one plan lookup per mask."""
        if plan.keeps(self.algebra, self._t):
            return self
        out: dict[int, tuple[int, ...]] = {}
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
        if _has_identity_constant(self):
            return _unipotent_inverse(self)
        c_inv_m = Matrix.from_rational(
            _rational_inverse(self.constant_matrix()), self.algebra
        )
        # self = C (I + U) with U nilpotent; inverse = (I + U)^{-1} C^{-1}
        return _unipotent_inverse(c_inv_m * self) * c_inv_m

    def __repr__(self):
        body = "; ".join(", ".join(str(a) for a in r) for r in self.rows)
        return f"Matrix[{body}]"


def _new(alg: WeilAlgebra, n: int, table: dict, den: int) -> Matrix:
    """Wrap a table that is canonical by construction."""
    m = object.__new__(Matrix)
    m.algebra = alg
    m.size = n
    m._t = table
    m._den = den
    return m


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


def _combination(alg: WeilAlgebra, n: int, terms) -> Matrix:
    """The matrix whose flat entry k is the sum of q * x over the (k, q, x)
    `terms`, with q rational and x an element of `alg`: one integer table
    over a common denominator, normalized once.  The caller has checked
    the algebras."""
    scaled = []
    den = 1
    for k, q, x in terms:
        if q and x._c:
            d = q.denominator * x._den
            scaled.append((k, q.numerator, x._c, d))
            den = lcm(den, d)
    table: dict[int, list[int]] = {}
    for k, num, c, d in scaled:
        num *= den // d
        for m, v in c.items():
            col = table.get(m)
            if col is None:
                col = table[m] = [0] * (n * n)
            col[k] += num * v
    return _normal(alg, n, {m: tuple(v) for m, v in table.items()}, den)


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


def _det(rows):
    """Cofactor expansion of a square matrix of size at most 3, over any
    commutative ring: Weil elements, rationals or integers."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        return (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
    raise NotImplementedError("determinant only needed for sizes <= 3")


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


def _unipotent_inverse(m: Matrix) -> Matrix:
    """Inverse of I + U with U nilpotent (`weil._neumann`).  `m` has
    constant part exactly I, so U is its table without mask 0."""
    u = _normal(m.algebra, m.size, {k: v for k, v in m._t.items() if k}, m._den)
    return _neumann(Matrix.identity(m.size, m.algebra), u)


def _rational_inverse(rows: tuple[tuple[Fraction, ...], ...]):
    n = len(rows)
    a = [list(r) for r in rows]
    b = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix("constant part is singular")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        b[col] = [v * inv for v in b[col]]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            f = a[r][col]
            a[r] = [v - f * w for v, w in zip(a[r], a[col])]
            b[r] = [v - f * w for v, w in zip(b[r], b[col])]
    return tuple(tuple(r) for r in b)
