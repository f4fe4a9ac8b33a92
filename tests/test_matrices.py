import random
from fractions import Fraction

import pytest
from oracles import (
    coeffs, det, entry, inverse, matrix, partial, poly_terms, rational_inverse, regular_inverse,
    rows,
)

from nilgeo import matrices
from nilgeo.matrices import Matrix, NotUnipotent, SizeMismatch
from nilgeo.microcalc import CubeError, TangentData, _relabel_plan
from nilgeo.models import ALG0, MatrixGroup, build_model
from nilgeo.polynomials import Poly, PolyMatrix
from nilgeo.sampling import sample_point, sample_vert
from nilgeo.weil import (
    AlgebraMismatch,
    _coefficient_plan,
    _convert_plan,
    _drop_plan,
    _scale_plan,
    algebra,
)


def _trace(m):
    t = entry(m, 0, 0)
    for i in range(1, m.size):
        t = t + entry(m, i, i)
    return t


def test_identity_and_product():
    alg = algebra(["d1"])
    i3 = Matrix.identity(3, alg)
    m = Matrix.from_rational([[1, 2, 0], [0, 1, 0], [0, 0, 1]], alg)
    assert i3 * m == m
    assert m * i3 == m


def test_inverse_with_nilpotent_part():
    # the oracle inverts the constant part by elimination and hands the
    # factor I + nilpotent to `Matrix.inverse`
    rng = random.Random(11)
    alg = algebra(["d1", "d2"])
    done = 0
    for _ in range(30):
        const = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        const[0][0] += 7  # push away from singularity most of the time
        entries = []
        for i in range(3):
            row = []
            for j in range(3):
                e = alg.scalar(const[i][j])
                e = e + rng.randint(-2, 2) * alg.gen("d1")
                e = e + rng.randint(-2, 2) * alg.term(1, ("d1", "d2"))
                row.append(e)
            entries.append(row)
        m = matrix(entries)
        try:
            inv = inverse(m)
        except ZeroDivisionError:
            continue
        assert m * inv == Matrix.identity(3, alg)
        assert inv * m == Matrix.identity(3, alg)
        done += 1
    assert done >= 20


def test_inverse_with_identity_constant_part():
    rng = random.Random(12)
    alg = algebra(["d1", "d2"])
    ident = Matrix.identity(3, alg)
    monos = (("d1",), ("d2",), ("d1", "d2"))
    for _ in range(30):
        n = matrix(
            [
                [sum((rng.randint(-3, 3) * alg.term(1, m) for m in monos), alg.zero)
                 for _ in range(3)]
                for _ in range(3)
            ]
        )
        assert n * n != Matrix.zero(3, alg)  # the series needs its second term
        m = ident + n
        inv = m.inverse()
        assert m * inv == ident
        assert inv * m == ident
        assert inv == ident - n + n * n


def test_inverse_of_a_square_zero_step_is_closed_form():
    rng = random.Random(13)
    alg = algebra(["d1", "d2"])
    w = alg.gen("d1")
    for model in (build_model("heisenberg"), build_model("trivial_gauge", "gl2")):
        for _ in range(5):
            vert = sample_vert(rng, model, "H", alg) + sample_vert(
                rng, model, "H", alg
            ) * alg.gen("d2")
            anchor = sample_point(rng, model, alg)
            direction = sample_point(rng, model, alg)
            body = TangentData(model, "H", anchor, direction, vert).arrow_at(w).body
            ident = Matrix.identity(body.size, alg)
            inv = body.inverse()
            assert inv == ident - vert * w
            assert body * inv == ident
            assert inv * body == ident


STEP_ALGEBRAS = (
    algebra(["d1", "d2"], killed=[("d1", "d2")]),
    algebra(["d1", "d2", "d3"]),
)


def _mixed_rational(rng, n):
    """A rational n x n matrix whose entries have mixed denominators."""
    return [
        [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 6))) for _ in range(n)]
        for _ in range(n)
    ]


@pytest.mark.parametrize("alg", STEP_ALGEBRAS, ids=("paired", "alg3"))
def test_square_zero_steps_invert_by_a_sign_flip_and_match_the_regular_oracle(alg):
    # every monomial of U = sum of V_m * m holds one generator, so U * U = 0
    rng = random.Random(14 + len(alg.names))
    for _ in range(12):
        bit = 1 << rng.randrange(len(alg.names))
        shared = [m for m in range(1 << len(alg.names)) if m & bit and m not in alg.killed]
        n = rng.randint(1, 3)
        ident = Matrix.identity(n, alg)
        u = Matrix.zero(n, alg)
        for mask in rng.sample(shared, rng.randint(1, len(shared))):
            mono = alg.term(Fraction(1, rng.choice((1, 2, 5))), alg.mono_names(mask))
            u = u + Matrix.from_rational(_mixed_rational(rng, n), alg) * mono
        assert u * u == Matrix.zero(n, alg)
        m = ident + u
        inv = m.inverse()
        assert inv == ident - u == regular_inverse(m)
        assert inv._den == m._den
        assert m * inv == ident


def test_the_vacuous_step_inverts_to_the_identity():
    for alg in (ALG0, *STEP_ALGEBRAS):
        for n in (1, 2, 3):
            ident = Matrix.identity(n, alg)
            assert ident.inverse() == ident == regular_inverse(ident)


def test_a_nilpotent_with_no_shared_generator_takes_the_series():
    # U = d1 A + d2 B with AB + BA != 0, so U * U = d1 d2 (AB + BA) != 0
    alg = STEP_ALGEBRAS[1]
    rng = random.Random(15)
    ident = Matrix.identity(2, alg)
    a = Matrix.from_rational([[0, Fraction(1, 2)], [0, 0]], alg)
    b = Matrix.from_rational([[0, 0], [Fraction(2, 3), 0]], alg)
    assert a * b != b * a
    for _ in range(6):
        c = Matrix.from_rational(_mixed_rational(rng, 2), alg)
        u = (a + c) * alg.gen("d1") + (b + c) * alg.gen("d2")
        assert u * u != Matrix.zero(2, alg)
        m = ident + u
        inv = m.inverse()
        assert inv == ident - u + u * u == regular_inverse(m)
        assert m * inv == ident


def test_inverse_refuses_a_constant_part_other_than_identity():
    alg = algebra(["d1"])
    d = alg.gen("d1")
    singular = matrix([[d, alg.zero], [alg.zero, alg.one]])
    for m in (
        singular,
        Matrix.from_rational([[2, 1], [1, 1]], alg) + Matrix.identity(2, alg) * d,
        Matrix.from_rational([[1, 2], [0, 1]], alg),  # unipotent, but not I
    ):
        with pytest.raises(NotUnipotent):
            m.inverse()
    assert issubclass(NotUnipotent, ValueError)


def test_binary_operations_reject_size_mismatch():
    alg = algebra(["d1"])
    a = Matrix.identity(2, alg)
    b = Matrix.identity(3, alg)
    for op in (a.__add__, a.__sub__, a.__mul__):
        with pytest.raises(SizeMismatch):
            op(b)
    with pytest.raises(SizeMismatch):
        b + a


def test_det_of_unipotent_perturbation():
    alg = algebra(["d1"])
    a = Matrix.from_rational([[2, 1], [3, -1]], alg)
    m = Matrix.identity(2, alg) + a * alg.gen("d1")
    # det(I + d*A) = 1 + d*tr(A) once d^2 = 0
    assert det(rows(m)) == alg.one + alg.gen("d1") * _trace(a)


def test_trace_and_coefficient():
    alg = algebra(["d1", "d2"])
    m = Matrix.identity(2, alg) + Matrix.from_rational([[0, 5], [0, 0]], alg) * alg.term(
        1, ("d1", "d2")
    )
    top = m.coefficient(("d1", "d2"))
    assert top == Matrix.from_rational([[0, 5], [0, 0]], alg)


def test_poly_evaluation_at_weil_coordinates():
    p = Poly(2, {(1, 0): 1, (0, 2): Fraction(1, 2)})  # x1 + x2^2/2
    alg = algebra(["d1"])
    x1 = alg.scalar(3) + alg.gen("d1")
    x2 = alg.scalar(2) - alg.gen("d1")
    got = p((x1, x2))
    # 3 + d + (2 - d)^2 / 2 = 3 + d + (4 - 4d)/2
    assert got == alg.scalar(5) - alg.gen("d1")


def test_poly_partial_derivative():
    p = Poly(2, {(1, 1): 2, (0, 3): 1})  # 2 x1 x2 + x2^3
    assert poly_terms(partial(p, 0)) == {(0, 1): 2}
    assert poly_terms(partial(p, 1)) == {(1, 0): 2, (0, 2): 3}


def test_poly_matrix_roundtrip():
    z = Poly(2, {})
    x1 = Poly.var(2, 0)
    pm = PolyMatrix([[z, x1], [z, z]])
    alg = algebra([])
    m = pm((alg.scalar(4), alg.scalar(0)))
    assert entry(m, 0, 1) == alg.scalar(4)


def _random_entry(rng, alg):
    # sparse on purpose, with mixed denominators and plenty of zeros
    out = alg.zero
    for mask in range(1 << len(alg.names)):
        if mask in alg.killed or rng.random() < 0.5:
            continue
        q = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 6)))
        out = out + alg.term(q, alg.mono_names(mask))
    return out


@pytest.mark.parametrize(
    "alg",
    [
        algebra(["d1"]),
        algebra(["d1", "d2"]),
        algebra(["d1", "d2", "d3"]),
        algebra(["d1", "d2"], killed=[("d1", "d2")]),
    ],
    ids=["d1", "d1d2", "d1d2d3", "paired"],
)
def test_fused_product_matches_term_by_term_reference(alg):
    rng = random.Random(14 + len(alg.names))
    for _ in range(40):
        n = rng.randint(1, 3)
        a = matrix([[_random_entry(rng, alg) for _ in range(n)] for _ in range(n)])
        b = matrix([[_random_entry(rng, alg) for _ in range(n)] for _ in range(n)])
        got = a * b
        for i in range(n):
            for j in range(n):
                want = alg.zero
                for k in range(n):
                    want = want + entry(a, i, k) * entry(b, k, j)
                assert entry(got, i, j) == want
                assert coeffs(entry(got, i, j)) == coeffs(want)


def test_sums_and_scalings_across_algebras_raise():
    d1, d2 = algebra(["d1"]), algebra(["d1", "d2"])
    a, b = Matrix.identity(2, d1), Matrix.zero(2, d2)
    x = d2.gen("d2")
    for op in (lambda: a + b, lambda: a - b, lambda: b + a, lambda: a * x, lambda: x * a):
        with pytest.raises(AlgebraMismatch):
            op()


def test_product_across_algebras_raises():
    d1, d2 = algebra(["d1"]), algebra(["d1", "d2"])
    for make in (Matrix.identity, Matrix.zero):
        with pytest.raises(AlgebraMismatch):
            make(2, d1) * make(2, d2)
    m = Matrix.from_rational([[1, 2], [3, 4]], d1)
    with pytest.raises(AlgebraMismatch):
        m * m.convert(d2)


class EntryMatrix:
    """Oracle: the per-entry layout, a tuple of rows of `WeilElement`s with
    every operation done entry by entry."""

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        self.size = len(self.rows)
        self.algebra = self.rows[0][0].algebra

    def _entrywise(self, fn):
        return EntryMatrix(tuple(fn(a) for a in r) for r in self.rows)

    def __add__(self, other):
        return EntryMatrix(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._entrywise(lambda a: -a)

    def __mul__(self, other):
        if not isinstance(other, EntryMatrix):
            return self._entrywise(lambda a: a * other)
        cols = tuple(zip(*other.rows))
        zero = self.algebra.zero
        return EntryMatrix(
            tuple(sum((a * b for a, b in zip(row, col)), zero) for col in cols)
            for row in self.rows
        )

    def drop(self, names):
        return self._entrywise(lambda a: a.drop(names))

    def coefficient(self, names):
        return self._entrywise(lambda a: a.coefficient(names))

    def identity(self):
        alg, n = self.algebra, self.size
        return EntryMatrix(
            tuple(alg.one if i == j else alg.zero for j in range(n)) for i in range(n)
        )

    def inverse(self):
        if all(
            self.rows[i][j].constant_term() == (1 if i == j else 0)
            for i in range(self.size)
            for j in range(self.size)
        ):
            return self._unipotent_inverse()
        const = tuple(tuple(a.constant_term() for a in r) for r in self.rows)
        c_inv = EntryMatrix(
            tuple(self.algebra.scalar(v) for v in r) for r in rational_inverse(const)
        )
        return (c_inv * self)._unipotent_inverse() * c_inv

    def _unipotent_inverse(self):
        ident = self.identity()
        u = self - ident
        acc, power, sign = ident, u, -1
        while not all(a.is_zero() for r in power.rows for a in r):
            acc = acc + power * sign
            power = power * u
            sign = -sign
        return acc


def assert_same(got, want):
    assert isinstance(got, Matrix)
    assert got == matrix(want.rows)
    assert hash(got) == hash(matrix(want.rows))
    for rg, rw in zip(rows(got), want.rows):
        for a, b in zip(rg, rw):
            assert coeffs(a) == coeffs(b)


ORACLE_ALGEBRAS = [
    algebra(["d1"]),
    algebra(["d1", "d2"]),
    algebra(["d1", "d2", "d3"]),
    algebra(["d1", "d2"], killed=[("d1", "d2")]),
    algebra(["d1", "d2", "d3"], killed=[("d1", "d3")]),
]
ORACLE_IDS = ["d1", "d1d2", "d1d2d3", "d1d2-killed", "d1d2d3-killed"]


def _random_pair(rng, alg, n=None):
    n = n or rng.randint(1, 3)
    entries = [[_random_entry(rng, alg) for _ in range(n)] for _ in range(n)]
    return matrix(entries), EntryMatrix(entries)


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_table_layout_matches_per_entry_oracle(alg):
    rng = random.Random(60 + len(alg.names) + len(alg.killed))
    names = alg.names
    for _ in range(30):
        n = rng.randint(1, 3)
        a, ea = _random_pair(rng, alg, n)
        b, eb = _random_pair(rng, alg, n)
        assert_same(a, ea)
        assert_same(a * b, ea * eb)
        assert_same(a + b, ea + eb)
        assert_same(a - b, ea - eb)
        assert_same(a - a, ea - ea)
        w = _random_entry(rng, alg)
        q = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4, 9)))
        k = rng.randint(-3, 3)
        for s in (w, q, k, alg.zero):
            assert_same(a * s, ea * s)
            assert_same(s * a, ea * s)
        subset = tuple(g for g in names if rng.random() < 0.5)
        assert_same(a.drop(subset), ea.drop(subset))
        assert_same(a.coefficient(subset), ea.coefficient(subset))
        assert a.constant_matrix() == tuple(
            tuple(x.constant_term() for x in r) for r in ea.rows
        )


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_inverse_matches_per_entry_oracle_on_both_paths(alg):
    rng = random.Random(70 + len(alg.names) + len(alg.killed))
    done = {"identity": 0, "elimination": 0}
    while min(done.values()) < 10:
        n = rng.randint(1, 3)
        _, nil = _random_pair(rng, alg, n)
        nil = nil - EntryMatrix(
            tuple(alg.scalar(x.constant_term()) for x in r) for r in nil.rows
        )
        if rng.random() < 0.5:
            const = nil.identity()
            path = "identity"
        else:
            const = EntryMatrix(
                tuple(
                    alg.scalar(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))))
                    for _ in range(n)
                )
                for _ in range(n)
            )
            path = "elimination"
        want = const + nil
        m = matrix(want.rows)
        identity = const.rows == nil.identity().rows
        assert matrices._has_identity_constant(m) == identity
        if identity:
            got = m.inverse()
        else:
            # only I + nilpotent is inverted; the oracle eliminates the rest
            with pytest.raises(NotUnipotent):
                m.inverse()
            try:
                got = inverse(m)
            except ZeroDivisionError:
                continue
        assert_same(got, want.inverse())
        assert m * got == Matrix.identity(n, alg)
        done["identity" if identity else "elimination"] += 1


def test_size_four_product_matches_per_entry_oracle():
    rng = random.Random(75)
    alg = algebra(["d1", "d2"])
    for _ in range(10):
        a, ea = _random_pair(rng, alg, 4)
        b, eb = _random_pair(rng, alg, 4)
        assert_same(a * b, ea * eb)


def test_equal_values_from_different_paths_agree():
    alg = algebra(["d1", "d2"])
    d1 = alg.gen("d1")
    x = (alg.scalar(2) + d1, alg.scalar(Fraction(1, 3)))
    half = Fraction(1, 2)
    # [[x1/2, 3 x2], [0, x1 x2]] at x: [[1 + d1/2, 1], [0, 2/3 + d1/3]]
    pm = PolyMatrix(
        [[Poly(2, {(1, 0): half}), Poly(2, {(0, 1): 3})], [Poly(2, {}), Poly(2, {(1, 1): 1})]]
    )
    want_rows = (
        (alg.one + d1 * half, alg.one),
        (alg.zero, alg.scalar(Fraction(2, 3)) + d1 * Fraction(1, 3)),
    )
    ident = Matrix.identity(2, alg)
    constant = Matrix.from_rational([[1, 1], [0, Fraction(2, 3)]], alg)
    slope = Matrix.from_rational([[half, 0], [0, Fraction(1, 3)]], alg)
    d12 = alg.term(5, ("d1", "d2"))
    other = algebra(["d1"])
    swap = _relabel_plan(alg, (("d1", "d2"), ("d2", "d1")))
    paths = [
        matrix(want_rows),
        pm(x),
        ident * matrix(want_rows),
        matrix(want_rows) * ident,
        constant + slope * d1,
        (constant + slope * d1 + ident * d12).drop(("d2",)),
        matrix(want_rows).gather((((0, 0), (0, 1)), ((1, 0), (1, 1)))),
        matrix(want_rows)._apply(swap)._apply(swap),
        matrix([[w.convert(other) for w in r] for r in want_rows]).convert(alg),
    ]
    for m in paths:
        assert m == paths[0]
        assert hash(m) == hash(paths[0])
        assert rows(m) == want_rows
    flat = Matrix.from_rational([[1, 1], [0, Fraction(2, 3)]], alg)
    for m in (constant, paths[0].drop(("d1",)), matrix(want_rows).coefficient(())
              .drop(("d1", "d2"))):
        assert m == flat and hash(m) == hash(flat) and rows(m) == rows(flat)


def test_equal_tables_over_different_algebras_are_distinct_keys():
    a, b = algebra(["d1"]), algebra(["d2"])
    keys = {Matrix.identity(2, a), Matrix.identity(2, b)}
    assert len(keys) == 2
    assert {Matrix.zero(1, a): 0, Matrix.zero(1, b): 1}[Matrix.zero(1, a)] == 0


def test_adding_a_non_matrix_raises_type_error():
    m = Matrix.identity(2, algebra(["d1"]))
    with pytest.raises(TypeError):
        m + 1
    with pytest.raises(TypeError):
        m - 1
    with pytest.raises(TypeError):
        m * 0.5


def test_empty_matrices_are_rejected():
    alg = algebra(["d1"])
    with pytest.raises(ValueError):
        Matrix.from_rational((), alg)
    for make in (Matrix.identity, Matrix.zero):
        with pytest.raises(ValueError):
            make(0, alg)


def test_convert_matches_entrywise_convert():
    rng = random.Random(77)
    src = algebra(["d2", "d1"])
    dst = algebra(["d1", "d2", "d3"])
    for _ in range(10):
        a, ea = _random_pair(rng, src)
        assert_same(a.convert(dst), ea._entrywise(lambda w: w.convert(dst)))
        for i in range(a.size):
            for j in range(a.size):
                got = {frozenset(k): v for k, v in coeffs(entry(a.convert(dst), i, j)).items()}
                assert got == {frozenset(k): v for k, v in coeffs(entry(a, i, j)).items()}
    top = Matrix.identity(2, src) * src.term(1, ("d1", "d2"))
    with pytest.raises(AlgebraMismatch):
        top.convert(algebra(["d1", "d2"], killed=[("d1", "d2")]))


def test_repr_shows_the_entries_row_by_row():
    alg = algebra(["d1"])
    m = Matrix.from_rational([[1, 2], [3, Fraction(1, 4)]], alg) + Matrix.from_rational(
        [[0, 0], [Fraction(1, 2), 0]], alg
    ) * alg.gen("d1")
    shown = "; ".join(", ".join(str(e) for e in r) for r in rows(m))
    assert repr(m) == f"Matrix[{shown}]" == "Matrix[1, 2; 3 + 1/2*d1, 1/4]"


def _subsets(names):
    return [
        tuple(g for k, g in enumerate(names) if m >> k & 1)
        for m in range(1 << len(names))
    ]


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_plans_match_per_entry_oracle(alg):
    rng = random.Random(80 + len(alg.names) + len(alg.killed))
    dead = [alg.mono_names(m) for m in alg.killed]
    wide = algebra(("e",) + tuple(reversed(alg.names)), killed=dead)
    for _ in range(10):
        a, ea = _random_pair(rng, alg)
        for names in _subsets(alg.names):
            mask = alg.mask(names)
            plans = [
                _drop_plan(alg, mask),
                _coefficient_plan(alg, mask),
                _convert_plan(alg, wide),
            ] + [
                _scale_plan(alg, g, Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))))
                for g in names
            ]
            try:
                plans.append(_relabel_plan(alg, tuple(zip(names, names[1:] + names[:1]))))
            except CubeError:  # a renaming that is no map of algebras
                pass
            for plan in plans:
                assert_same(a._apply(plan), ea._entrywise(lambda w: w._apply(plan)))


@pytest.mark.parametrize("alg", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_support_and_gather_match_entry_reads(alg):
    rng = random.Random(90 + len(alg.names) + len(alg.killed))
    for _ in range(30):
        n = rng.randint(1, 3)
        a, _ = _random_pair(rng, alg, n)
        positions = [(i, j) for i in range(n) for j in range(n)]
        # a group with no blocks holds I + a exactly when its free cells
        # cover the positions where an entry read of a is nonzero
        support = [p for p in positions if not entry(a, *p).is_zero()]
        body = Matrix.identity(n, alg) + a
        assert MatrixGroup(n, support).contains(body)
        for p in support:
            assert not MatrixGroup(n, [q for q in support if q != p]).contains(body)
        k = rng.randint(1, 3)
        cells = [[rng.choice([None, *positions]) for _ in range(k)] for _ in range(k)]
        want = [[alg.zero if c is None else entry(a, *c) for c in r] for r in cells]
        assert_same(a.gather(cells), EntryMatrix(want))
    with pytest.raises(ValueError):
        a.gather(())
    with pytest.raises(IndexError):
        a.gather([[(0, n)]])

