import random

import pytest
from oracles import entry, partial

from nilgeo import forms
from nilgeo.connection import curvature
from nilgeo.forms import (
    Form,
    FormError,
    curvature_form,
    d_nabla,
    one_form,
    validate_form,
)
from nilgeo.matrices import Matrix
from nilgeo.microcalc import Microcube, TangentData, make_microcube, permute, scale_arg
from nilgeo.models import ALG0, Arrow, all_models, build_model
from nilgeo.polynomials import PolyMatrix
from nilgeo.sampling import (
    preset_connection,
    sample_connection,
    sample_microcube,
    sample_point,
    sample_poly,
    sample_poly_matrix,
)
from nilgeo.weil import AlgebraMismatch, WeilAlgebra, algebra

HEIS = build_model("heisenberg")
SCALAR = build_model("trivial_gauge", "scalar")


def zero_form(model, degree):
    """The form whose every value is the zero kernel tangent."""

    def fn(cube):
        alg = cube.algebra
        size = model.spec("L").size
        return TangentData(
            model,
            "L",
            cube.anchor,
            tuple(alg.zero for _ in cube.anchor),
            Matrix.zero(size, alg),
        )

    return Form(model, degree, fn)


def sample_squares(rng, model, count, alg=None):
    alg = alg or algebra(["d1", "d2"])
    return [
        sample_microcube(rng, model, "G", ("d1", "d2"), alg) for _ in range(count)
    ]


def random_one_form(rng, model, degree=2):
    images = [_l_value(rng, model) for _ in model.spec("G").lie_basis]
    coeffs = [
        sample_poly_matrix(rng, model, "L", degree) for _ in range(model.base_dim)
    ]
    return one_form(model, images, coeffs)


def _l_value(rng, model):
    out = Matrix.zero(model.spec("L").size, ALG0)
    for b in model.spec("L").lie_basis:
        out = out + b * rng.randint(-2, 2)
    return out


def test_curvature_form_is_a_two_form():
    rng = random.Random(41)
    for model in all_models():
        conn = sample_connection(rng, model)
        omega = curvature_form(conn)
        samples = sample_squares(rng, model, 4)
        assert validate_form(omega, samples) == []


def test_zero_form_passes_validation():
    rng = random.Random(42)
    for degree in (1, 2):
        zf = zero_form(HEIS, degree)
        args = ("d1", "d2")[:degree]
        alg = algebra(list(args))
        samples = [
            sample_microcube(rng, HEIS, "G", args, alg, x=()) for _ in range(4)
        ]
        assert validate_form(zf, samples) == []


def test_lopsided_evaluator_fails_alternation():
    # reading only the first linear coefficient cannot alternate
    def fn(cube):
        alg = cube.algebra
        d1 = cube.args[0]
        coeff = cube.arrow.body.coefficient((d1,)).drop(cube.args[1:])
        vert = Matrix.from_rational([[0, 0, 1], [0, 0, 0], [0, 0, 0]], alg) * entry(coeff, 0, 1)
        return TangentData(HEIS, "L", cube.anchor, (), vert)

    bad = Form(HEIS, 2, fn)
    rng = random.Random(43)
    samples = sample_squares(rng, HEIS, 4)
    problems = validate_form(bad, samples)
    assert any("alternation" in p for p in problems)


def test_one_forms_pass_validation():
    rng = random.Random(44)
    for model in all_models():
        omega = random_one_form(rng, model)
        alg = algebra(["d1"])
        samples = [
            sample_microcube(rng, model, "G", ("d1",), alg) for _ in range(4)
        ]
        assert validate_form(omega, samples) == []


def test_derivative_of_zero_form_is_zero():
    rng = random.Random(45)
    for model in all_models():
        conn = sample_connection(rng, model)
        dz = d_nabla(conn, zero_form(model, 1))
        for cube in sample_squares(rng, model, 3):
            assert dz(cube).is_zero()


def test_derivative_needs_positive_degree():
    conn = preset_connection(HEIS)
    with pytest.raises(FormError):
        d_nabla(conn, zero_form(HEIS, 0))


def test_abelian_derivative_is_the_curl():
    # oracle: the coefficient of the derivative on a coordinate square is
    # the antisymmetrized partial derivative of the coefficient functions
    rng = random.Random(46)
    conn = preset_connection(SCALAR, "x1dx2")
    alg = algebra(["d1", "d2"])
    for _ in range(10):
        w1 = sample_poly(rng, 2, 3)
        w2 = sample_poly(rng, 2, 3)
        omega = one_form(SCALAR, coeffs=(PolyMatrix(((w1,),)), PolyMatrix(((w2,),))))
        x = sample_point(rng, SCALAR, alg)
        target = (x[0] + alg.gen("d1"), x[1] + alg.gen("d2"))
        square = make_microcube(
            Arrow(SCALAR, "G", x, target, Matrix.identity(1, alg)), ("d1", "d2")
        )
        got = d_nabla(conn, omega)(square)
        want = partial(w2, 0)(x) - partial(w1, 1)(x)
        assert entry(got.vert, 0, 0) == want


def test_derivative_output_passes_validation():
    rng = random.Random(47)
    for model in all_models():
        conn = sample_connection(rng, model)
        omega = random_one_form(rng, model)
        derived = d_nabla(conn, omega)
        samples = sample_squares(rng, model, 3)
        assert validate_form(derived, samples, scalars=(0, 1, -1, 2)) == []


def test_double_derivative_is_still_a_form():
    rng = random.Random(50)
    alg3 = algebra(["d1", "d2", "d3"])
    for model in (HEIS, SCALAR):
        conn = sample_connection(rng, model)
        omega = random_one_form(rng, model, degree=1)
        twice = d_nabla(conn, d_nabla(conn, omega))
        cube = sample_microcube(rng, model, "G", ("d1", "d2", "d3"), alg3)
        assert validate_form(twice, [cube], scalars=(1, -1, 2)) == []


def test_constant_evaluator_fails_homogeneity():
    def fn(cube):
        alg = cube.algebra
        vert = Matrix.from_rational([[0, 0, 1], [0, 0, 0], [0, 0, 0]], alg)
        return TangentData(HEIS, "L", cube.anchor, (), vert)

    bad = Form(HEIS, 2, fn)
    rng = random.Random(51)
    problems = validate_form(bad, sample_squares(rng, HEIS, 2))
    assert any("homogeneity" in p for p in problems)


def test_derivative_of_curvature_vanishes_smoke():
    rng = random.Random(48)
    alg = algebra(["d1", "d2", "d3"])
    for model in (HEIS, build_model("direct_product")):
        conn = sample_connection(rng, model)
        omega = curvature_form(conn)
        cube = sample_microcube(rng, model, "G", ("d1", "d2", "d3"), alg, x=())
        assert d_nabla(conn, omega)(cube).is_zero()


def test_form_value_fiber_mismatch_is_caught():
    def fn(cube):
        alg = cube.algebra
        wrong = tuple(c + alg.one for c in cube.anchor)
        return TangentData(SCALAR, "L", wrong, (alg.zero, alg.zero), Matrix.zero(1, alg))

    bad = Form(SCALAR, 2, fn)
    rng = random.Random(49)
    cube = sample_squares(rng, SCALAR, 1)[0]
    with pytest.raises(FormError):
        bad(cube)


# -- one evaluation per distinct input -----------------------------------------


def _planted(conn, wrong_on, factor):
    """The curvature form, except on the one cube `wrong_on`, where the
    value is multiplied by `factor`."""

    def fn(cube):
        value = curvature(conn, cube)
        return value.scale(factor) if cube == wrong_on else value

    return Form(conn.model, 2, fn)


def test_planted_homogeneity_fault_is_reported():
    conn = preset_connection(HEIS)
    rng = random.Random(52)
    planted_faults = 0
    for square in sample_squares(rng, HEIS, 8):
        planted = scale_arg(square, 1, 2)
        if curvature(conn, planted).is_zero():
            continue  # a fault on a zero value does not show
        planted_faults += 1
        problems = validate_form(_planted(conn, planted, 3), [square])
        assert problems == ["sample 0: homogeneity fails in slot 1 at a=2"]
    assert planted_faults >= 3


def test_planted_alternation_fault_is_reported():
    conn = preset_connection(HEIS)
    rng = random.Random(53)
    planted_faults = 0
    for square in sample_squares(rng, HEIS, 8):
        planted = permute(square, (2, 1))
        if curvature(conn, planted).is_zero():
            continue  # a fault on a zero value does not show
        planted_faults += 1
        problems = validate_form(_planted(conn, planted, -1), [square])
        assert problems == ["sample 0: alternation fails for (2, 1)"]
    assert planted_faults >= 3


def test_validation_evaluates_each_distinct_square_once(monkeypatch):
    calls = []

    def counted(conn, cube):
        calls.append(cube)
        return curvature(conn, cube)

    monkeypatch.setattr(forms, "curvature", counted)
    rng = random.Random(54)
    for model in all_models():
        conn = sample_connection(rng, model)
        square = sample_squares(rng, model, 1)[0]
        calls.clear()
        assert validate_form(curvature_form(conn), [square]) == []
        # the sample, four scalings of each slot and the transposition;
        # scaling by 1 and the identity permutation give the sample back
        assert len(calls) == 10
        assert len(set(calls)) == 10


def test_memo_keys_from_different_algebras_do_not_raise(monkeypatch):
    # with every key in one hash bucket, a lookup compares keys; the
    # algebra leads the key, so squares over different algebras are
    # never compared entry by entry (which raises AlgebraMismatch)
    monkeypatch.setattr(Microcube, "__hash__", lambda self: 0)
    monkeypatch.setattr(WeilAlgebra, "__hash__", lambda self: 0)
    rng = random.Random(55)
    squares = sample_squares(rng, SCALAR, 1) + sample_squares(
        rng, SCALAR, 1, algebra(["d1", "d2", "e"])
    )
    assert hash(squares[0]) == hash(squares[1]) == 0
    with pytest.raises(AlgebraMismatch):
        squares[0] == squares[1]
    assert validate_form(zero_form(SCALAR, 2), squares) == []
    conn = sample_connection(rng, SCALAR)
    derived = d_nabla(conn, zero_form(SCALAR, 1))
    assert validate_form(derived, squares, scalars=(0, 2)) == []
