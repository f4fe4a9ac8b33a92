import random
from fractions import Fraction

import pytest

from nilgeo import matrices
from nilgeo.matrices import Matrix, SingularMatrix, SizeMismatch
from nilgeo.microcalc import TangentData
from nilgeo.models import build_model
from nilgeo.polynomials import Poly, PolyMatrix
from nilgeo.sampling import sample_point, sample_vert
from nilgeo.weil import AlgebraMismatch, algebra


def test_identity_and_product():
    alg = algebra(["d1"])
    i3 = Matrix.identity(3, alg)
    m = Matrix.from_rational([[1, 2, 0], [0, 1, 0], [0, 0, 1]], alg)
    assert i3 * m == m
    assert m * i3 == m


def test_inverse_with_nilpotent_part():
    rng = random.Random(11)
    alg = algebra(["d1", "d2"])
    for _ in range(30):
        const = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        const[0][0] += 7  # push away from singularity most of the time
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                e = alg.scalar(const[i][j])
                e = e + rng.randint(-2, 2) * alg.gen("d1")
                e = e + rng.randint(-2, 2) * alg.term(1, ("d1", "d2"))
                row.append(e)
            rows.append(row)
        m = Matrix(rows)
        try:
            inv = m.inverse()
        except SingularMatrix:
            continue
        assert m * inv == Matrix.identity(3, alg)
        assert inv * m == Matrix.identity(3, alg)


@pytest.fixture
def no_elimination(monkeypatch):
    """Fail any Gaussian elimination over the rationals."""

    def forbidden(rows):
        raise AssertionError("identity constant part went through elimination")

    monkeypatch.setattr(matrices, "_rational_inverse", forbidden)


def test_inverse_with_identity_constant_part(no_elimination):
    rng = random.Random(12)
    alg = algebra(["d1", "d2"])
    ident = Matrix.identity(3, alg)
    monos = (("d1",), ("d2",), ("d1", "d2"))
    for _ in range(30):
        n = Matrix(
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


def test_inverse_of_a_square_zero_step_is_closed_form(no_elimination):
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


def test_inverse_requires_invertible_constant_part():
    alg = algebra(["d1"])
    m = Matrix(
        [
            [alg.gen("d1"), alg.zero],
            [alg.zero, alg.one],
        ]
    )
    with pytest.raises(SingularMatrix):
        m.inverse()


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
    assert m.det() == alg.one + alg.gen("d1") * a.trace()


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
    assert p.partial(0) == Poly(2, {(0, 1): 2})
    assert p.partial(1) == Poly(2, {(1, 0): 2, (0, 2): 3})


def test_poly_matrix_roundtrip():
    z = Poly(2, {})
    x1 = Poly.var(2, 0)
    pm = PolyMatrix([[z, x1], [z, z]])
    alg = algebra([])
    m = pm((alg.scalar(4), alg.scalar(0)))
    assert m[0, 1] == alg.scalar(4)
    assert pm.partial(0).rows[0][1] == Poly.const(2, 1)


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
        a = Matrix([[_random_entry(rng, alg) for _ in range(n)] for _ in range(n)])
        b = Matrix([[_random_entry(rng, alg) for _ in range(n)] for _ in range(n)])
        got = a * b
        for i in range(n):
            for j in range(n):
                want = alg.zero
                for k in range(n):
                    want = want + a[i, k] * b[k, j]
                assert got[i, j] == want
                assert got[i, j].coeffs == want.coeffs


def test_public_constructor_rejects_mixed_algebras():
    d1, d2 = algebra(["d1"]), algebra(["d1", "d2"])
    with pytest.raises(AlgebraMismatch):
        Matrix([[d1.one, d2.zero], [d1.zero, d1.one]])
    with pytest.raises(AlgebraMismatch):
        Matrix([[d1.one, d1.zero], [d1.zero, d2.one]])


def test_product_across_algebras_raises():
    d1, d2 = algebra(["d1"]), algebra(["d1", "d2"])
    for make in (Matrix.identity, Matrix.zero):
        with pytest.raises(AlgebraMismatch):
            make(2, d1) * make(2, d2)
    m = Matrix.from_rational([[1, 2], [3, 4]], d1)
    with pytest.raises(AlgebraMismatch):
        m * m.map(lambda w: w.convert(d2))


def test_map_rejects_results_over_mixed_algebras():
    d1, d2 = algebra(["d1"]), algebra(["d1", "d2"])
    m = Matrix.from_rational([[1, 2], [3, 4]], d1)
    with pytest.raises(AlgebraMismatch):
        m.map(lambda w: w.convert(d2) if w.constant_term() == 1 else w)
    assert m.map(lambda w: w.convert(d2)).algebra == d2
