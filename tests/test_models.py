import random
from fractions import Fraction

import pytest

from nilgeo.matrices import Matrix
from nilgeo.models import (
    Arrow,
    CompositionError,
    all_models,
    build_model,
    compose,
    invert,
)
from nilgeo.sampling import sample_arrow, sample_point, sample_vert
from nilgeo.weil import algebra


ALG2 = algebra(["d1", "d2"])


def random_arrow(rng, model, grp, alg, x=None):
    return sample_arrow(rng, model, grp, alg, x=x)


def test_identity_laws_every_model():
    rng = random.Random(5)
    for model in all_models():
        for _ in range(10):
            h = random_arrow(rng, model, "H", ALG2)
            idt = model.identity("H", h.target, ALG2)
            ids = model.identity("H", h.source, ALG2)
            assert compose(idt, h) == h
            assert compose(h, ids) == h
            assert compose(invert(h), h) == ids
            assert compose(h, invert(h)) == idt


def test_associativity_random_triples():
    rng = random.Random(6)
    for model in all_models():
        for _ in range(10):
            x = sample_point(rng, model, ALG2)
            a = random_arrow(rng, model, "H", ALG2, x=x)
            b = random_arrow(rng, model, "H", ALG2, x=a.target)
            c = random_arrow(rng, model, "H", ALG2, x=b.target)
            assert compose(c, compose(b, a)) == compose(compose(c, b), a)


def test_gauge_triple_composition_shape():
    model = build_model("trivial_gauge", "gl2")
    alg = algebra([])
    x = (alg.scalar(0), alg.scalar(1))
    y = (alg.scalar(2), alg.scalar(-1))
    z = (alg.scalar(Fraction(1, 2)), alg.scalar(3))
    k1 = Matrix.from_rational([[1, 1], [0, 1]], alg)
    k2 = Matrix.from_rational([[2, 0], [0, 1]], alg)
    g = Arrow(model, "H", y, z, k2)
    h = Arrow(model, "H", x, y, k1)
    got = compose(g, h)
    assert got.source == x and got.target == z
    assert got.body == k2 * k1


def test_compose_requires_matching_points():
    model = build_model("trivial_gauge", "scalar")
    alg = algebra([])
    x = (alg.scalar(0), alg.scalar(0))
    y = (alg.scalar(1), alg.scalar(0))
    one = Matrix.identity(1, alg)
    a = Arrow(model, "H", x, y, one)
    with pytest.raises(CompositionError):
        compose(a, a)


def test_heisenberg_projection_is_a_morphism():
    model = build_model("heisenberg")
    rng = random.Random(7)
    for _ in range(100):
        a = random_arrow(rng, model, "H", ALG2)
        b = random_arrow(rng, model, "H", ALG2)
        assert model.project(compose(a, b)) == compose(model.project(a), model.project(b))
        assert model.project(invert(a)) == invert(model.project(a))


def test_heisenberg_projection_entries():
    model = build_model("heisenberg")
    alg = algebra(["d1"])
    body = Matrix.from_rational([[1, 2, 5], [0, 1, 3], [0, 0, 1]], alg)
    got = model.project(Arrow(model, "H", (), (), body))
    assert got.body == Matrix.from_rational([[1, 2, 3], [0, 1, 0], [0, 0, 1]], alg)


def test_gauge_projection_forgets_the_body():
    model = build_model("trivial_gauge", "gl2")
    alg = algebra([])
    x = (alg.scalar(0), alg.scalar(0))
    y = (alg.scalar(1), alg.scalar(2))
    k = Matrix.from_rational([[1, 1], [1, 2]], alg)
    got = model.project(Arrow(model, "H", x, y, k))
    assert got.grp == "G"
    assert got.source == x and got.target == y
    assert got.body == Matrix.identity(1, alg)


def test_projection_preserves_identities():
    for model in all_models():
        alg = algebra([])
        x = tuple(alg.scalar(1) for _ in range(model.base_dim))
        assert model.project(model.identity("H", x, alg)).is_identity()


def test_kernel_membership():
    model = build_model("heisenberg")
    alg = algebra([])
    central = Matrix.from_rational([[1, 0, 4], [0, 1, 0], [0, 0, 1]], alg)
    shifted = Matrix.from_rational([[1, 2, 0], [0, 1, 0], [0, 0, 1]], alg)
    assert model.kernel_test(Arrow(model, "H", (), (), central))
    assert not model.kernel_test(Arrow(model, "H", (), (), shifted))
    assert model.kernel_test(model.identity("H", (), alg))


def test_include_lands_in_kernel():
    rng = random.Random(8)
    for model in all_models():
        alg = algebra(["d1"])
        x = sample_point(rng, model, alg)
        vert = sample_vert(rng, model, "L", alg)
        body = Matrix.identity(model.spec("L").size, alg) + vert * alg.gen("d1")
        assert model.validate(Arrow(model, "L", x, x, body))
        h = Arrow(model, "H", x, x, body)
        assert model.validate(h)
        assert model.kernel_test(h)


def test_exactness_on_random_elements():
    rng = random.Random(9)
    for model in all_models():
        for _ in range(20):
            h = random_arrow(rng, model, "H", ALG2)
            if model.kernel_test(h):
                assert model.validate(Arrow(model, "L", h.source, h.target, h.body))
            # elements built from the kernel always pass
            x = h.source
            vert = sample_vert(rng, model, "L", ALG2)
            body = Matrix.identity(model.spec("L").size, ALG2) + vert * ALG2.gen("d1")
            l = Arrow(model, "L", x, x, body)
            assert model.validate(l)
            assert model.kernel_test(Arrow(model, "H", x, x, body))


def test_validate_identity_everywhere():
    for model in all_models():
        alg = algebra([])
        x = tuple(alg.scalar(0) for _ in range(model.base_dim))
        for grp in ("H", "G", "L"):
            assert model.validate(model.identity(grp, x, alg))


def test_validate_rejects_unit_determinant_violation():
    model = build_model("trivial_gauge", "sl2")
    alg = algebra(["d1"])
    x = (alg.scalar(0), alg.scalar(0))
    # trace 3 is not allowed upstairs: det(I + d A) = 1 + d tr(A)
    a = Matrix.from_rational([[1, 0], [0, 2]], alg)
    body = Matrix.identity(2, alg) + a * alg.gen("d1")
    # oracle: expand the determinant by the permutation-sum formula
    det = body[0, 0] * body[1, 1] - body[0, 1] * body[1, 0]
    assert det != alg.one
    assert not model.validate(Arrow(model, "H", x, x, body))
    traceless = Matrix.from_rational([[1, 0], [0, -1]], alg)
    good = Matrix.identity(2, alg) + traceless * alg.gen("d1")
    assert model.validate(Arrow(model, "H", x, x, good))


def test_validate_unipotent_pattern():
    model = build_model("heisenberg")
    alg = algebra(["d1"])
    body = Matrix.identity(3, alg) + Matrix.from_rational(
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]], alg
    ) * alg.gen("d1")
    assert model.validate(Arrow(model, "H", (), (), body))
    bad = Matrix.identity(3, alg) + Matrix.from_rational(
        [[0, 0, 0], [1, 0, 0], [0, 0, 0]], alg
    ) * alg.gen("d1")
    assert not model.validate(Arrow(model, "H", (), (), bad))


def test_closure_under_compose_and_invert():
    rng = random.Random(10)
    for model in all_models():
        for _ in range(10):
            x = sample_point(rng, model, ALG2)
            a = random_arrow(rng, model, "H", ALG2, x=x)
            b = random_arrow(rng, model, "H", ALG2, x=a.target)
            assert model.validate(compose(b, a))
            assert model.validate(invert(a))


def test_registry_rejects_unknown_names():
    for name, group in (
        ("nope", None),
        ("heisenberg", "gl2"),
        ("direct_product", "scalar"),
        ("trivial_gauge", "so3"),
    ):
        with pytest.raises(KeyError, match="registry has: heisenberg, direct_product"):
            build_model(name, group)
    assert len(all_models()) == 5
