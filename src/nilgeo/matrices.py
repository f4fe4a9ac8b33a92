"""Square matrices of Weil elements.

Inverses exploit nilpotency: the constant part is inverted over the
rationals by Gaussian elimination and the nilpotent remainder by a finite
Neumann series, so everything stays exact.  When the constant part is
already the identity, as for every square-zero step I + wV of a lifted
edge, the elimination and both products with its result are skipped and
the series runs on self - I directly; for a step it stops after one
square.

Each entry of a product is one fused sum of products
(`weil._sum_of_products`): the terms accumulate in a single integer table
over a common denominator and are normalized once.  `drop` and
`coefficient` compute their generator mask once for all entries.
The public constructor checks that the matrix is square and that its
entries share one algebra.  Results of the arithmetic here are both by
construction and skip those checks; `map` runs a caller's function, so its
results take the full check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .weil import AlgebraMismatch, Scalar, WeilAlgebra, WeilElement, _sum_of_products

Rational = Sequence[Sequence[Scalar]]


class SingularMatrix(ZeroDivisionError):
    """Constant part of the matrix is not invertible over the rationals."""


class SizeMismatch(ValueError):
    """A binary operation was given matrices of different sizes."""


class Matrix:
    """Immutable square matrix whose entries share one Weil algebra."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[WeilElement]]):
        self.rows = tuple(tuple(r) for r in rows)
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")
        if n:
            alg = self.rows[0][0].algebra
            for r in self.rows:
                for a in r:
                    if a.algebra is not alg:
                        _check_algebra(alg, a.algebra)

    @staticmethod
    def identity(n: int, alg: WeilAlgebra) -> "Matrix":
        one, zero = alg.one, alg.zero
        return _square(
            tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        )

    @staticmethod
    def zero(n: int, alg: WeilAlgebra) -> "Matrix":
        z = alg.zero
        return _square(tuple(tuple(z for _ in range(n)) for _ in range(n)))

    @staticmethod
    def from_rational(rows: Rational, alg: WeilAlgebra) -> "Matrix":
        return Matrix(tuple(tuple(alg.scalar(v) for v in r) for r in rows))

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def algebra(self) -> WeilAlgebra:
        return self.rows[0][0].algebra

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.size == other.size and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        _check_sizes(self, other)
        return _square(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        _check_sizes(self, other)
        return _square(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self) -> "Matrix":
        return _square(tuple(tuple(-a for a in r) for r in self.rows))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            _check_sizes(self, other)
            if not self.rows:
                return self
            # each factor is over one algebra, so one comparison covers
            # every pair of entries
            alg = self.rows[0][0].algebra
            _check_algebra(alg, other.rows[0][0].algebra)
            cols = tuple(zip(*other.rows))
            return _square(
                tuple(
                    tuple(_sum_of_products(alg, zip(row, col)) for col in cols)
                    for row in self.rows
                )
            )
        # scalar or WeilElement
        return _square(tuple(tuple(a * other for a in r) for r in self.rows))

    def __rmul__(self, other):
        # scalars commute with everything we store
        return _square(tuple(tuple(a * other for a in r) for r in self.rows))

    def map(self, fn: Callable[[WeilElement], WeilElement]) -> "Matrix":
        # fn may change algebras, so its results go through the full check
        return Matrix(tuple(fn(a) for a in r) for r in self.rows)

    def trace(self) -> WeilElement:
        t = self.rows[0][0]
        for i in range(1, self.size):
            t = t + self.rows[i][i]
        return t

    def det(self) -> WeilElement:
        n = self.size
        r = self.rows
        if n == 1:
            return r[0][0]
        if n == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        if n == 3:
            return (
                r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
            )
        raise NotImplementedError("determinant only needed for sizes <= 3")

    def constant_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(a.constant_term() for a in r) for r in self.rows)

    def coefficient(self, names: Iterable[str]) -> "Matrix":
        """Entrywise `WeilElement.coefficient`, with one mask for all entries."""
        mask = self.algebra.mask(names)
        return _square(tuple(tuple(a._coefficient(mask) for a in r) for r in self.rows))

    def drop(self, names: Iterable[str]) -> "Matrix":
        """Entrywise `WeilElement.drop`, with one mask for all entries."""
        return self._drop(self.algebra.mask(names))

    def _drop(self, mask: int) -> "Matrix":
        return _square(tuple(tuple(a._drop(mask) for a in r) for r in self.rows))

    def is_identity(self) -> bool:
        # read off the integer tables: 1 on the diagonal, empty elsewhere
        return all(
            (len(a._c) == 1 and a._c.get(0) == a._den) if i == j else not a._c
            for i, r in enumerate(self.rows)
            for j, a in enumerate(r)
        )

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


def _square(rows: tuple[tuple[WeilElement, ...], ...]) -> Matrix:
    """Wrap rows that are square over one algebra by construction."""
    m = object.__new__(Matrix)
    m.rows = rows
    return m


def _check_algebra(alg: WeilAlgebra, other: WeilAlgebra) -> None:
    if other is not alg and other != alg:
        raise AlgebraMismatch(f"cannot combine {alg!r} with {other!r}")


def _check_sizes(a: Matrix, b: Matrix) -> None:
    if len(a.rows) != len(b.rows):
        raise SizeMismatch(f"{a.size}x{a.size} against {b.size}x{b.size}")


def _has_identity_constant(m: Matrix) -> bool:
    # read off the integer tables: a constant term equals 1 exactly when
    # its numerator equals the element's denominator
    return all(
        a._c.get(0, 0) == (a._den if i == j else 0)
        for i, r in enumerate(m.rows)
        for j, a in enumerate(r)
    )


def _unipotent_inverse(m: Matrix) -> Matrix:
    """Inverse of I + U with U nilpotent: the finite series of (-U)^k."""
    identity = Matrix.identity(m.size, m.algebra)
    u = m - identity
    acc = identity
    power = u
    subtract = True
    while not _is_zero_matrix(power):
        acc = acc - power if subtract else acc + power
        power = power * u
        subtract = not subtract
    return acc


def _is_zero_matrix(m: Matrix) -> bool:
    return all(a.is_zero() for r in m.rows for a in r)


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
