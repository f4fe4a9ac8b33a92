"""Exact arithmetic with square-zero polynomial generators.

Elements live in quotients of R[g1, ..., gn] by the relations gi^2 = 0,
optionally together with an extra set of square-free monomials identified
with zero.  Every element is a finite table of rational coefficients
indexed by subsets of the generator list, so equality and substitution
are decidable and exact.  Algebras are interned by `algebra()`, so
equality of algebras is identity.  Elements, like the `Arrow`,
`TangentData` and `Microcube` built over them, are compared and hashed by
value and are immutable by convention.

Monomials are encoded as bit masks over the algebra's generator ordering.
Internally a single common denominator is factored out of each element and
the coefficient table holds plain integers; this keeps the hot product
loops in machine-integer arithmetic instead of `Fraction` calls.  Sparse
factors multiply by a loop over pairs of monomials (`_pair_loop`).  Dense
ones, with more pairs than the algebra has surviving monomials, go through
a product written out once per algebra (`_kernel`), generated on the first
dense product: every disjoint pair of surviving monomials is one term of
it, 3**n terms for n generators, so algebras of more than six generators
take the pair loop.  Matrices over an algebra keep
their own table of the same shape, one integer matrix per monomial (see
`matrices`), and polynomial evaluation sums into a table of that shape
(`polynomials._evaluate`).

Dropping generators, taking a cofactor, multiplying by one term,
rescaling a generator and converting to another algebra only re-key the
masks of a table, as does `microcalc`'s permutation of a cube's
arguments.  Each is one *plan* (`_Plan`), which elements, matrices and
arrows apply alike.  An element that is a constant passes unchanged,
with no table built, through any plan that fixes the empty monomial (a
drop, a rescale, a relabel or a convert, which lands it in the target
algebra); a cofactor or a one-term product moves it.  Each builder but
rescaling is cached: its arguments are interned algebras, masks and
generator names, or for one term its rational coefficient, under a
bounded cache.  Rescaling, whose factor is any rational and changes from
call to call, builds its plan afresh.
Scalars are exact: a float raises `TypeError`.

Two rules are written once here for `matrices` and `polynomials` too: the
algebra check on the operands of a binary operation (`_check_algebra`)
and the inverse of one + u, u nilpotent, as the series of (-u)^k
(`_neumann`), which elements and matrices both invert with.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, inf
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class AlgebraMismatch(ValueError):
    """Raised when a binary operation mixes distinct quotient algebras."""


class NotInvertible(ZeroDivisionError):
    """Raised when the constant term vanishes, so no inverse exists."""


def _close_upward(masks: frozenset[int], full: int) -> frozenset[int]:
    # killing a monomial kills every multiple of it
    out = set()
    for m in masks:
        rest = full & ~m
        sub = rest
        while True:
            out.add(m | sub)
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return frozenset(out)


def _mask(index: dict[str, int], names: Iterable[str]) -> int:
    """The bit mask of a square-free monomial, given by its generator names
    over the generator positions `index`; an unknown or a repeated
    generator raises `ValueError`."""
    m = 0
    for g in names:
        try:
            bit = 1 << index[g]
        except KeyError:
            raise ValueError(f"unknown generator in monomial: {g!r}") from None
        if m & bit:
            raise ValueError(f"repeated generator in monomial: {g}")
        m |= bit
    return m


_ALGEBRA_CACHE: dict[tuple, "WeilAlgebra"] = {}


def algebra(names: Iterable[str], killed: Iterable[Iterable[str]] = ()) -> "WeilAlgebra":
    """Construct (or fetch) the quotient algebra on the given generators.

    `killed` lists square-free monomials, each given as an iterable of
    generator names, that are identified with zero.
    """
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate generator names: {names}")
    index = {g: i for i, g in enumerate(names)}
    masks = frozenset(_mask(index, mono) for mono in killed) - {0}
    closed = _close_upward(masks, (1 << len(names)) - 1)
    key = (names, closed)
    alg = _ALGEBRA_CACHE.get(key)
    if alg is None:
        alg = WeilAlgebra(names, closed)
        _ALGEBRA_CACHE[key] = alg
    return alg


_KERNEL_CAP = 6  # generators; the kernel of n generators has 3**n terms


class WeilAlgebra:
    """R[g1,...,gn] / (gi^2 = 0, killed monomials).  Use `algebra()` to
    build: it interns each algebra by its names and killed masks, so equal
    algebras are one object and compare with `is`."""

    __slots__ = ("names", "killed", "_index", "zero", "one", "_dense_at")

    def __init__(self, names: tuple[str, ...], killed: frozenset[int]):
        self.names = names
        self.killed = killed
        self._index = {g: i for i, g in enumerate(names)}
        # a product is dense when it has more pairs than there are surviving
        # monomials; past the kernel's cap every product takes the pair loop
        self._dense_at = (
            (1 << len(names)) - len(killed) if len(names) <= _KERNEL_CAP else inf
        )
        self.zero = WeilElement(self, {}, 1)
        self.one = WeilElement(self, {0: 1}, 1)

    def __repr__(self):
        if not self.killed:
            return f"WeilAlgebra({', '.join(self.names)})"
        dead = sorted(self.mono_names(m) for m in self.killed)
        return f"WeilAlgebra({', '.join(self.names)}; killed={dead})"

    # -- mask helpers ------------------------------------------------------

    def mask(self, names: Iterable[str]) -> int:
        return _mask(self._index, names)

    def mono_names(self, mask: int) -> tuple[str, ...]:
        return tuple(g for i, g in enumerate(self.names) if mask >> i & 1)

    def gen_bit(self, name: str) -> int:
        return _mask(self._index, (name,))

    # -- element constructors ---------------------------------------------

    def scalar(self, q: Scalar) -> "WeilElement":
        q = _exact(q)  # an int has a numerator and a denominator of 1 too
        return WeilElement(self, {0: q.numerator} if q else {}, q.denominator)

    def gen(self, name: str) -> "WeilElement":
        bit = self.gen_bit(name)
        if bit in self.killed:
            return self.zero
        return WeilElement(self, {bit: 1}, 1)

    def term(self, coeff: Scalar, names: Iterable[str]) -> "WeilElement":
        mask = self.mask(names)
        coeff = Fraction(_exact(coeff))
        if coeff == 0 or mask in self.killed:
            return self.zero
        return WeilElement(self, {mask: coeff.numerator}, coeff.denominator)

    # -- derived algebras ---------------------------------------------------

    def extend(self, *new_names: str) -> "WeilAlgebra":
        missing = [g for g in new_names if g not in self._index]
        if not missing:
            return self
        old = [self.mono_names(m) for m in self.killed]
        return algebra(self.names + tuple(missing), old)

    def fresh_name(self, base: str = "e") -> str:
        if base not in self._index:
            return base
        k = 1
        while f"{base}{k}" in self._index:
            k += 1
        return f"{base}{k}"


@lru_cache(maxsize=None)
def _kernel(alg: WeilAlgebra):
    """The product of two coefficient tables over `alg`, written out once
    per algebra: each surviving monomial m maps to the sum of a[s] * b[m ^ s]
    over the submasks s of m, which all survive, since killing a monomial
    kills its multiples.  On dense operands this costs about a third of the
    pair loop.  Entries that sum to zero stay in the table for `_build`."""
    alive = [m for m in range(1 << len(alg.names)) if m not in alg.killed]
    reads = "; ".join(f"a{m} = f({m}, 0); b{m} = g({m}, 0)" for m in alive)
    entries = ", ".join(
        f"{m}: " + " + ".join(f"a{s} * b{m ^ s}" for s in alive if s & m == s)
        for m in alive
    )
    scope: dict = {}
    body = f"f = a.get; g = b.get\n    {reads}\n    return {{{entries}}}"
    exec(f"def mul(a, b):\n    {body}", scope)
    return scope["mul"]


def _pair_loop(alg: WeilAlgebra, c1: dict[int, int], c2: dict[int, int]) -> dict[int, int]:
    """The product of two coefficient tables, one pair of monomials at a time."""
    out: dict[int, int] = {}
    get = out.get
    items2 = list(c2.items())
    killed = alg.killed
    for m1, v1 in c1.items():
        for m2, v2 in items2:
            if m1 & m2:
                continue  # repeated generator: square-zero
            m = m1 | m2
            if m in killed:
                continue
            out[m] = get(m, 0) + v1 * v2
    return out


def _check_algebra(alg: WeilAlgebra, other: WeilAlgebra) -> None:
    """Operands of one operation must share one (interned) algebra."""
    if other is not alg:
        raise AlgebraMismatch(f"cannot combine {alg!r} with {other!r}")


def _neumann(one, u):
    """The inverse of one + u for nilpotent u: the finite series of (-u)^k,
    for elements and matrices alike."""
    acc, power, subtract = one, u, True
    while not power.is_zero():
        acc = acc - power if subtract else acc + power
        power, subtract = power * u, not subtract
    return acc


def _exact(q):
    """`q` itself if it is an exact rational (int or Fraction)."""
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"expected an int or Fraction, got {type(q).__name__} {q!r}")
    return q


class _Plan(dict):
    """A mask transform into `target`: old mask -> (new mask, integer
    factor), or None where the monomial dies; results are also divided by
    `den`.  `rule` finds a mask's image on its first use, so a rule raises
    only for a monomial that is present."""

    def __init__(self, target: "WeilAlgebra", rule, den: int = 1):
        self.target, self.rule, self.den = target, rule, den

    def __missing__(self, m: int):
        hit = self[m] = self.rule(m)
        return hit


@lru_cache(maxsize=None)
def _drop_plan(alg: "WeilAlgebra", mask: int) -> _Plan:
    """Evaluate the generators of `mask` at zero."""
    return _Plan(alg, lambda m: None if m & mask else (m, 1))


@lru_cache(maxsize=None)
def _coefficient_plan(alg: "WeilAlgebra", mask: int) -> _Plan:
    """The cofactor of the monomial `mask`."""
    return _Plan(alg, lambda m: (m & ~mask, 1) if m & mask == mask else None)


@lru_cache(maxsize=1024)
def _times_plan(alg: "WeilAlgebra", mask: int, num: int, den: int) -> _Plan:
    """Multiplication by the term (num / den) * x^mask, for a nonzero mask:
    each monomial moves to its union with x^mask, and dies where it meets
    x^mask or the union is killed.  The coefficient is any rational, so
    the cache is bounded."""
    killed = alg.killed
    return _Plan(
        alg, lambda m: None if m & mask or m | mask in killed else (m | mask, num), den
    )


def _scale_plan(alg: "WeilAlgebra", name: str, a: Scalar) -> _Plan:
    """Substitute a * name for the generator `name`, with a rational."""
    bit, q = alg.gen_bit(name), Fraction(_exact(a))
    num, den = q.numerator, q.denominator
    return _Plan(alg, lambda m: (m, num) if m & bit else (m, den), den)


@lru_cache(maxsize=None)
def _convert_plan(source: "WeilAlgebra", target: "WeilAlgebra") -> _Plan:
    """Each monomial found by generator names in `target`, where it must
    survive."""

    def rule(m):
        mask = target.mask(source.mono_names(m))
        if mask in target.killed:
            raise AlgebraMismatch(f"{source.mono_names(m)} is killed in {target!r}")
        return mask, 1

    return _Plan(target, rule)


def _build(alg: WeilAlgebra, table: dict[int, int], den: int) -> "WeilElement":
    """Normalize to canonical form: positive denominator coprime to the
    content of the coefficient table, zero entries dropped.  Takes
    ownership of `table`, which every caller builds fresh."""
    if 0 in table.values():
        table = {m: v for m, v in table.items() if v}
    if not table:
        return alg.zero
    if den == 1:
        return WeilElement(alg, table, 1)
    if den < 0:
        den = -den
        table = {m: -v for m, v in table.items()}
    g = den
    for v in table.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        den //= g
        table = {m: v // g for m, v in table.items()}
    return WeilElement(alg, table, den)


class _Transforms:
    """The transforms that elements and matrices share, each one plan
    applied to the table through the class's `_apply`."""

    __slots__ = ()

    def coefficient(self, names: Iterable[str]):
        """Cofactor of the given monomial: sum over keys containing it of
        coeff * (key minus monomial).  `coefficient(())` is the identity."""
        return self._apply(_coefficient_plan(self.algebra, self.algebra.mask(names)))

    def drop(self, names: Iterable[str]):
        """Evaluate the listed generators at zero."""
        return self._apply(_drop_plan(self.algebra, self.algebra.mask(names)))

    def convert(self, target: WeilAlgebra):
        """Re-express in another algebra containing the same generator names.

        Every monomial in the support must exist (and survive) there."""
        return self._apply(_convert_plan(self.algebra, target))


class WeilElement(_Transforms):
    """An element of a `WeilAlgebra`; immutable after construction."""

    __slots__ = ("algebra", "_c", "_den")

    def __init__(self, alg: WeilAlgebra, coeffs: dict[int, int], den: int):
        self.algebra = alg
        self._c = coeffs
        self._den = den

    # -- inspection ---------------------------------------------------------

    def constant_term(self) -> Fraction:
        return Fraction(self._c.get(0, 0), self._den)

    def is_zero(self) -> bool:
        return not self._c

    def _apply(self, *plans: _Plan) -> "WeilElement":
        """The image under a mask plan, or the sum of the images under
        several plans with one target and one denominator.  A constant
        under one plan that fixes the empty monomial is itself over the
        plan's target, with no table built."""
        c = self._c
        if len(plans) == 1 and len(c) == 1 and 0 in c:
            plan = plans[0]
            if plan[0] == (0, plan.den):
                if plan.target is self.algebra:
                    return self
                return WeilElement(plan.target, c, self._den)
        out: dict[int, int] = {}
        get = out.get
        for plan in plans:
            for m, v in c.items():
                if (hit := plan[m]) is not None:
                    out[hit[0]] = get(hit[0], 0) + v * hit[1]
        return _build(plan.target, out, self._den * plan.den)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "WeilElement | None":
        if isinstance(other, WeilElement):
            _check_algebra(self.algebra, other.algebra)
            return other
        if isinstance(other, (int, Fraction)):
            return self.algebra.scalar(other)
        return None

    def __add__(self, other):
        if type(other) is not WeilElement:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        elif other.algebra is not self.algebra:
            _check_algebra(self.algebra, other.algebra)
        if not other._c:
            return self
        if not self._c:
            return other
        d1, d2 = self._den, other._den
        if d1 == d2:
            out = dict(self._c)
            for m, v in other._c.items():
                out[m] = out.get(m, 0) + v
            return _build(self.algebra, out, d1)
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        out = {m: v * s1 for m, v in self._c.items()}
        for m, v in other._c.items():
            out[m] = out.get(m, 0) + v * s2
        return _build(self.algebra, out, d1 * s1)

    __radd__ = __add__

    def __neg__(self):
        return WeilElement(
            self.algebra, {m: -v for m, v in self._c.items()}, self._den
        )

    def __sub__(self, other):
        if type(other) is not WeilElement:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not WeilElement:
            if isinstance(other, (int, Fraction)):  # an int's denominator is 1
                if other == 1:
                    return self
                return _build(
                    self.algebra,
                    {m: v * other.numerator for m, v in self._c.items()},
                    self._den * other.denominator,
                )
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        elif other.algebra is not self.algebra:
            _check_algebra(self.algebra, other.algebra)
        if not self._c or not other._c:
            return self.algebra.zero
        alg, c1, c2 = self.algebra, self._c, other._c
        if len(c1) * len(c2) > alg._dense_at:
            out = _kernel(alg)(c1, c2)
        else:
            out = _pair_loop(alg, c1, c2)
        return _build(alg, out, self._den * other._den)

    __rmul__ = __mul__

    def invert(self) -> "WeilElement":
        """Exact two-sided inverse via the finite geometric series of the
        nilpotent part."""
        c0 = self.constant_term()
        if c0 == 0:
            raise NotInvertible(f"no constant term in {self}")
        # self = c0 (1 + u) with u nilpotent
        u = _build(
            self.algebra,
            {m: v * c0.denominator for m, v in self._c.items() if m != 0},
            self._den * c0.numerator,
        )
        return _neumann(self.algebra.one, u) * (Fraction(1) / c0)

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.scalar(other)
        if not isinstance(other, WeilElement):
            return NotImplemented
        if other.algebra is not self.algebra:
            _check_algebra(self.algebra, other.algebra)
        return self._den == other._den and self._c == other._c

    def __hash__(self):
        return hash((self.algebra, self._den, tuple(sorted(self._c.items()))))

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for m in sorted(self._c, key=lambda m: (bin(m).count("1"), m)):
            c = Fraction(self._c[m], self._den)
            names = "*".join(self.algebra.mono_names(m))
            if m == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(names)
            elif c == -1:
                parts.append(f"-{names}")
            else:
                parts.append(f"{c}*{names}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"WeilElement({self})"
