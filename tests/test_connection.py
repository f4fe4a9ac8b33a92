import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from oracles import entry, partial, poly_rows, poly_terms

from nilgeo import connection
from nilgeo.bianchi import build_cube, corrupt_edge
from nilgeo.connection import (
    Connection,
    ConnectionError_,
    CurvatureError,
    curvature,
    curvature_via_strong_diff,
    lift,
    lifted_edge,
    structure_equation,
)
from nilgeo.forms import FormError, one_form
from nilgeo.matrices import Matrix
from nilgeo.microcalc import (
    ConstantSection,
    CubeError,
    DifferenceError,
    Microcube,
    TangentData,
    bisection_product,
    degenerate_square,
    diff,
    from_tangent,
    make_microcube,
    scale_arg,
    slice_multi,
    slice_multi,
    strong_diff,
    tau,
    top_tangent,
)
from nilgeo.models import ALG0, Arrow, MembershipError, all_models, build_model
from nilgeo.polynomials import Poly, PolyMatrix
from nilgeo.sampling import (
    perturbed_square,
    preset_connection,
    preset_names,
    sample_connection,
    sample_microcube,
    sample_point,
    sample_section,
    sample_vert,
    sample_weil,
)
from nilgeo.weil import algebra

HEIS = build_model("heisenberg")
FLAT = build_model("direct_product")
SCALAR = build_model("trivial_gauge", "scalar")


def nabla_tangent(conn, t):
    """Lift a degree-one cube fiberwise."""
    td = conn.apply(from_tangent(t)).convert(t.algebra)
    return make_microcube(td.arrow_at(t.algebra.gen(t.args[0])), t.args)


def project_tangent(td):
    """The G-tangent under an H-tangent."""
    assert td.grp == "H"
    return TangentData(
        td.model, "G", td.anchor, td.direction, td.model.project_vert(td.vert)
    )


def coordinate_square(model, x, alg, args=("d1", "d2")):
    target = (x[0] + alg.gen(args[0]), x[1] + alg.gen(args[1]))
    return make_microcube(
        Arrow(model, "G", x, target, Matrix.identity(1, alg)), args
    )


def scalar_poly_connection(a1, a2):
    return Connection(SCALAR, coeffs=(PolyMatrix(((a1,),)), PolyMatrix(((a2,),))))


# -- apply ---------------------------------------------------------------------


def test_heisenberg_standard_splitting_images():
    conn = preset_connection(HEIS)
    alg = algebra(["d"])
    td = TangentData(
        HEIS, "G", (), (), Matrix.from_rational([[0, 1, 0], [0, 0, 0], [0, 0, 0]], alg)
    )
    up = conn.apply(td)
    assert up.vert == Matrix.from_rational([[0, 1, 0], [0, 0, 0], [0, 0, 0]], alg)
    td2 = TangentData(
        HEIS, "G", (), (), Matrix.from_rational([[0, 0, 1], [0, 0, 0], [0, 0, 0]], alg)
    )
    assert conn.apply(td2).vert == Matrix.from_rational(
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]], alg
    )


def test_apply_sends_zero_to_zero():
    rng = random.Random(21)
    for model in all_models():
        conn = sample_connection(rng, model)
        alg = algebra(["d"])
        x = sample_point(rng, model, alg)
        zero = Matrix.zero(model.spec("G").size, alg)
        td = TangentData(model, "G", x, tuple(alg.zero for _ in x), zero)
        assert conn.apply(td).is_zero()


def test_gauge_vertical_part_uses_parallel_transport_sign():
    conn = preset_connection(SCALAR, "x1dx2")
    alg = algebra(["d"])
    x = (alg.scalar(3), alg.scalar(5))
    v = (alg.scalar(0), alg.scalar(1))
    td = TangentData(SCALAR, "G", x, v, Matrix.zero(1, alg))
    up = conn.apply(td)
    # velocity (0, 1) at x1 = 3 turns by 1 - 3 d
    assert up.vert == Matrix.from_rational([[-3]], alg)
    assert up.direction == v


def test_apply_is_fiberwise_linear():
    rng = random.Random(22)
    for model in all_models():
        conn = sample_connection(rng, model)
        alg = algebra(["d"])
        for _ in range(10):
            x = sample_point(rng, model, alg)
            t1 = _random_g_tangent(rng, model, x, alg)
            t2 = _random_g_tangent(rng, model, x, alg)
            a = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
            lhs = conn.apply(t1.scale(a) + t2)
            rhs = conn.apply(t1).scale(a) + conn.apply(t2)
            assert lhs == rhs


def test_apply_splits_the_projection():
    rng = random.Random(23)
    for model in all_models():
        conn = sample_connection(rng, model)
        alg = algebra(["d"])
        for _ in range(10):
            x = sample_point(rng, model, alg)
            t = _random_g_tangent(rng, model, x, alg)
            assert project_tangent(conn.apply(t)) == t


def test_splitting_apply_keeps_each_algebra_apart():
    rng = random.Random(24)
    plain = algebra(["d"])
    paired = algebra(["d", "e"], killed=[("d", "e")])
    # the G-coordinate cells of each model, one per downstairs direction
    cells = {HEIS: ((0, 1), (0, 2)), FLAT: ((0, 0), (0, 1), (1, 0), (1, 1))}
    for model in (HEIS, FLAT):
        conn = sample_connection(rng, model)
        # back to the first algebra after the second
        for alg in (plain, paired, plain, paired):
            t = _random_g_tangent(rng, model, sample_point(rng, model, alg), alg)
            t = TangentData(model, "G", t.anchor, t.direction, t.vert * alg.gen("d"))
            got = conn.apply(t)
            assert got.algebra is alg
            want = Matrix.zero(model.spec("H").size, alg)
            for cell, img in zip(cells[model], conn.images):
                want = want + img.convert(alg) * entry(t.vert, *cell)
            assert got.vert == want


def _random_g_tangent(rng, model, x, alg):
    direction = tuple(alg.scalar(rng.randint(-3, 3)) for _ in range(model.base_dim))
    vert = sample_vert(rng, model, "G", alg)
    return TangentData(model, "G", x, direction, vert)


def test_every_listed_preset_builds_and_nothing_else_does():
    for model in all_models():
        names = preset_names(model)
        assert names
        for name in names:
            assert preset_connection(model, name).model is model
        for name in ("standard", "x1dx2", "bogus"):
            if name not in names:
                with pytest.raises(KeyError):
                    preset_connection(model, name)
    with pytest.raises(KeyError):
        preset_connection(SCALAR, "standard")
    with pytest.raises(KeyError):
        preset_connection(SCALAR)


# SHA-256 of the sampled connection data for seeds 1 and 7, each followed by
# the generator's next draw.  Reports show only pass or fail, so this is what
# pins the sampler's draws and their order.
SAMPLED_CONNECTION_DIGESTS = {
    "heisenberg": "39ad91b8a4daa7cd6e82aa88424522ed3bdd7dfd6bf031e94436c69e9d1c2c49",
    "direct_product": "f9a2eead8276edcd9769185ba6476b6ed273e58c505b47b6130119c2ef3c990d",
    "trivial_gauge[scalar]": "016ed0002f81389297db6e96c8fe2d67a403c8eaccc2e68a1feb4f207a1b80be",
    "trivial_gauge[gl2]": "98c58a64e23028b3dd04c31200ef62bd870b01bb320116c180cd82b4fca9b8ee",
    "trivial_gauge[sl2]": "715c6614705c06fcee9c670b448a49fdf98397a6f2877989b5a4fa543d53cfff",
}


def _connection_data(conn):
    """A connection's defining data: its images, or, where the model takes
    none, the terms of each coefficient entry."""
    if conn.images:
        return tuple(img.constant_matrix() for img in conn.images)
    return [
        [[sorted(poly_terms(p).items()) for p in row] for row in poly_rows(pm)]
        for pm in conn.coeffs
    ]


def test_sampled_connections_are_pinned():
    for model in all_models():
        digest = hashlib.sha256()
        for seed in (1, 7):
            rng = random.Random(seed)
            conn = sample_connection(rng, model)
            digest.update(repr(_connection_data(conn)).encode())
            digest.update(repr(rng.random()).encode())
        assert digest.hexdigest() == SAMPLED_CONNECTION_DIGESTS[model.name], model.name


# SHA-256 of every preset's data, in the order `preset_names` lists them.  A
# passing report line carries no data, so the report digests cannot see a
# change to a preset; this pins them.
PRESET_DIGESTS = {
    "heisenberg": "6f500d9e7143ba92aaaf984ada6a6ec719babe5bd80e861cfca635b0d9c99bd9",
    "direct_product": "a644625324cba314028991dae15c3f12d8603a63e637358e950a5bb86d8560fb",
    "trivial_gauge[scalar]": "55ebf1d4c4ede55c12d7bf2bbdc6bad44b3c09d374ebb706988dbe475b26140b",
    "trivial_gauge[gl2]": "febaa38c931f33c71bd280b4a85cda86e18f3bbf9fc9f5dd7088857528aef93b",
    "trivial_gauge[sl2]": "fac1dbfa4788e674578c997f41007f8285e4f51e47262d4e19c7a0ae8ea8265a",
}


def test_presets_are_pinned():
    got = {}
    for model in all_models():
        digest = hashlib.sha256()
        for name in preset_names(model):
            digest.update(name.encode())
            digest.update(repr(_connection_data(preset_connection(model, name))).encode())
        got[model.name] = digest.hexdigest()
    assert got == PRESET_DIGESTS


def _lie(rows):
    """Rows as a Lie-algebra value: a constant matrix over the empty algebra."""
    return Matrix.from_rational(rows, ALG0)


def test_splitting_connection_rejects_non_sections():
    bad = (
        _lie(((0, 0, 0), (0, 0, 0), (0, 0, 0))),  # kills the first direction
        _lie(((0, 0, 0), (0, 0, 1), (0, 0, 0))),
    )
    with pytest.raises(ConnectionError_, match="do not split the projection"):
        Connection(HEIS, bad)


def test_sl2_connection_requires_traceless_coefficients():
    model = build_model("trivial_gauge", "sl2")
    x1 = Poly.var(2, 0)
    z = Poly(2, {})
    not_traceless = PolyMatrix(((x1, z), (z, z)))
    with pytest.raises(ConnectionError_):
        Connection(model, coeffs=(not_traceless, not_traceless))


def test_gauge_connection_rejects_coefficients_of_the_wrong_arity():
    model = build_model("trivial_gauge", "gl2")
    z = Poly(3, {})
    three_vars = PolyMatrix(((z, z), (z, z)))
    with pytest.raises(ConnectionError_, match="one variable per base axis"):
        Connection(model, coeffs=(three_vars, three_vars))


def test_splitting_one_form_rejects_a_wrong_image_count_up_front():
    one_image = (_lie(((0, 0, 1), (0, 0, 0), (0, 0, 0))),)
    with pytest.raises(FormError, match="one image per downstairs direction"):
        one_form(HEIS, one_image)


def _unit(n, *cells):
    return _lie(tuple(tuple(int((i, j) in cells) for j in range(n)) for i in range(n)))


def test_splitting_connection_rejects_images_outside_h():
    # each image splits the projection, but has an entry H does not allow
    heisenberg = (_unit(3, (0, 1), (1, 0)), _unit(3, (1, 2)))
    direct_product = tuple(_unit(3, (i, j), (0, 2)) for i in range(2) for j in range(2))
    for model, images in ((HEIS, heisenberg), (FLAT, direct_product)):
        with pytest.raises(ConnectionError_, match="Lie algebra of H"):
            Connection(model, images)


def test_splitting_one_form_rejects_images_outside_the_kernel():
    for model, outside in ((HEIS, _unit(3, (0, 1))), (FLAT, _unit(3, (0, 0)))):
        images = (outside,) * len(model.spec("G").lie_basis)
        with pytest.raises(FormError, match="Lie algebra of L"):
            one_form(model, images)


def test_gauge_one_form_rejects_coefficients_of_the_wrong_arity():
    z, x1, z3 = Poly(2, {}), Poly.var(2, 0), Poly(3, {})
    cases = (
        ("gl2", PolyMatrix(((z3, z3), (z3, z3))), "one variable per base axis"),
        ("gl2", PolyMatrix(((z, z, z),) * 3), "size must match the structure group"),
        ("sl2", PolyMatrix(((x1, z), (z, z))), "Lie algebra of L"),
    )
    for group, coeff, message in cases:
        model = build_model("trivial_gauge", group)
        with pytest.raises(FormError, match=message):
            one_form(model, coeffs=(coeff, coeff))


def test_vertical_coefficients_need_a_gauge_model():
    # a one-point model refuses any coefficient list, a gauge model any
    # image list, both in the connection and in the one-form
    z = Poly(2, {})
    one_matrix = (PolyMatrix(((z,) * 3,) * 3),)
    for model in (HEIS, FLAT):
        images = preset_connection(model).images
        central = (_unit(3, (0, 2)) if model is HEIS else _unit(3, (2, 2)),) * len(images)
        for coeffs in (one_matrix, one_matrix * 2):
            with pytest.raises(ConnectionError_, match="one coefficient matrix per base axis"):
                Connection(model, images, coeffs)
            with pytest.raises(FormError, match="one coefficient matrix per base axis"):
                one_form(model, central, coeffs)
    for group in ("scalar", "gl2", "sl2"):
        model = build_model("trivial_gauge", group)
        coeffs = preset_connection(model, preset_names(model)[0]).coeffs
        for images in ((_lie(((0,),)),), (_lie(((0,),)),) * 2):
            with pytest.raises(ConnectionError_, match="one image per downstairs direction"):
                Connection(model, images, coeffs)
            with pytest.raises(FormError, match="one image per downstairs direction"):
                one_form(model, images, coeffs)


def test_float_entries_are_rejected_by_every_constant_constructor():
    def images(scalar):
        return (((0, 1, scalar), (0, 0, 0), (0, 0, 0)), ((0, 0, 0), (0, 0, 1), (0, 0, 0)))

    def central_images(scalar):
        return (((0, 0, scalar), (0, 0, 0), (0, 0, 0)),) * 2

    # rows enter through `Matrix.from_rational`, which refuses floats
    constructors = (
        lambda scalar: Connection(HEIS, [_lie(r) for r in images(scalar)]),
        lambda scalar: one_form(HEIS, [_lie(r) for r in central_images(scalar)]),
        lambda scalar: ConstantSection(HEIS, "G", _lie(images(scalar)[0])),
    )
    for build in constructors:
        build(Fraction(1, 10))  # exact scalars are accepted
        with pytest.raises(TypeError, match="float"):
            build(0.1)


def test_constant_constructors_take_only_constant_matrices_of_their_size():
    # each constructor's Lie value is valid as rows; as rows, at the wrong
    # size, or as a matrix with a nilpotent part it is refused up front, and
    # so is a constant matrix outside the Lie algebra
    e01, e02 = ((0, 1, 0), (0, 0, 0), (0, 0, 0)), ((0, 0, 1), (0, 0, 0), (0, 0, 0))
    e12 = ((0, 0, 0), (0, 0, 1), (0, 0, 0))
    alg3 = algebra(["d1", "d2", "d3"])
    cube = sample_microcube(random.Random(5), HEIS, "G", ("d1", "d2", "d3"), alg3)
    labeling = build_cube(preset_connection(HEIS), cube)
    constructors = (
        (ConnectionError_, e01, lambda v: Connection(HEIS, (v, _lie(e12)))),
        (FormError, e02, lambda v: one_form(HEIS, (v, _lie(e02)))),
        (MembershipError, e01, lambda v: ConstantSection(HEIS, "G", v)),
        (MembershipError, e12, lambda v: corrupt_edge(labeling, ("B", "D"), v)),
    )
    dual = algebra(["d"])
    for error, rows, build in constructors:
        build(_lie(rows))  # the same rows as a constant matrix are accepted
        moving = Matrix.from_rational(rows, dual)
        bad = (rows, _lie(((0, 1), (0, 0))), moving + moving * dual.gen("d"))
        for value in bad:
            with pytest.raises(error, match="constant 3x3 matrix"):
                build(value)
        with pytest.raises(error, match="Lie algebra of"):
            build(_unit(3, (1, 0)))  # below the diagonal: in none of them


# -- lift -----------------------------------------------------------------------


def test_lift_projects_back_to_the_square():
    rng = random.Random(24)
    alg = algebra(["d1", "d2"])
    for model in all_models():
        conn = sample_connection(rng, model)
        for _ in range(5):
            cube = sample_microcube(rng, model, "G", ("d1", "d2"), alg)
            lifted = lift(conn, cube)
            down = model.project(lifted.arrow)
            assert down == cube.arrow


def test_lift_commutes_with_argument_scaling():
    rng = random.Random(25)
    alg = algebra(["d1", "d2"])
    for model in all_models():
        conn = sample_connection(rng, model)
        cube = sample_microcube(rng, model, "G", ("d1", "d2"), alg)
        for i in (1, 2):
            for a in (0, 1, -1, 2, Fraction(1, 2)):
                assert lift(conn, scale_arg(cube, i, a)) == scale_arg(lift(conn, cube), i, a)


def test_lift_commutes_with_differences():
    rng = random.Random(26)
    alg = algebra(["d1", "d2"])
    for model in all_models():
        conn = sample_connection(rng, model)
        for _ in range(5):
            g1 = sample_microcube(rng, model, "G", ("d1", "d2"), alg)
            g2 = perturbed_square(rng, g1)
            assert lift(conn, diff(g2, g1, 1)) == diff(lift(conn, g2), lift(conn, g1), 1)
            assert lift(conn, diff(g2, g1, 2)) == diff(lift(conn, g2), lift(conn, g1), 2)


def test_lift_of_degenerate_square_is_degenerate():
    rng = random.Random(27)
    alg = algebra(["d1", "d2"])
    for model in all_models():
        conn = sample_connection(rng, model)
        x = sample_point(rng, model, alg)
        t = _random_g_tangent(rng, model, x, alg)
        lhs = lift(conn, degenerate_square(t, ("d1", "d2"), alg))
        rhs = degenerate_square(conn.apply(t), ("d1", "d2"), alg)
        assert lhs == rhs


def test_lift_of_frozen_square_has_no_second_direction():
    rng = random.Random(28)
    alg = algebra(["d1", "d2"])
    conn = sample_connection(rng, HEIS)
    cube = sample_microcube(rng, HEIS, "G", ("d1", "d2"), alg)
    frozen = tau(cube, 1)
    lifted = lift(conn, frozen)
    up1 = nabla_tangent(conn, slice_multi(frozen, {2: 0}))  # the d1-edge lift
    assert lifted.arrow.body == up1.arrow.body
    assert lifted.arrow.body.drop(("d2",)) == lifted.arrow.body


def test_lift_respects_strong_difference():
    rng = random.Random(29)
    alg = algebra(["d1", "d2"])
    for model in all_models():
        conn = sample_connection(rng, model)
        for _ in range(5):
            g1 = sample_microcube(rng, model, "G", ("d1", "d2"), alg)
            g2 = perturbed_square(rng, g1)
            lhs = conn.apply(strong_diff(g2, g1))
            rhs = strong_diff(lift(conn, g2), lift(conn, g1))
            assert lhs == rhs


# -- curvature ---------------------------------------------------------------------


def test_flat_control_model_has_zero_curvature():
    rng = random.Random(30)
    alg = algebra(["d1", "d2"])
    for _ in range(20):
        conn = sample_connection(rng, FLAT)
        cube = sample_microcube(rng, FLAT, "G", ("d1", "d2"), alg)
        assert curvature(conn, cube).is_zero()


def test_heisenberg_coordinate_sections_curvature():
    conn = preset_connection(HEIS)
    alg = algebra(["d1", "d2"])
    x_sec = ConstantSection(HEIS, "G", _lie([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    y_sec = ConstantSection(HEIS, "G", _lie([[0, 0, 1], [0, 0, 0], [0, 0, 0]]))
    square = bisection_product(y_sec, x_sec, (), ("d1", "d2"), alg)
    omega = curvature(conn, square)
    assert omega.vert == Matrix.from_rational([[0, 0, 1], [0, 0, 0], [0, 0, 0]], alg)


def test_scalar_gauge_preset_gives_unit_curvature():
    conn = preset_connection(SCALAR, "x1dx2")
    rng = random.Random(31)
    alg = algebra(["d1", "d2"])
    for _ in range(5):
        x = sample_point(rng, SCALAR, alg)
        square = coordinate_square(SCALAR, x, alg)
        omega = curvature(conn, square)
        assert omega.vert == Matrix.from_rational([[1]], alg)


def test_curvature_matches_classical_coefficient_formula():
    # oracle: F12 = d1 A2 - d2 A1 + [A1, A2], evaluated by symbolic partials
    rng = random.Random(32)
    for structure in ("scalar", "gl2", "sl2"):
        model = build_model("trivial_gauge", structure)
        alg = algebra(["d1", "d2"])
        for _ in range(10):
            conn = sample_connection(rng, model, degree=2)
            x = sample_point(rng, model, alg)
            square = coordinate_square(model, x, alg)
            omega = curvature(conn, square)
            a1, a2 = conn.coeffs
            f12 = (
                partial(a2, 0)(x)
                - partial(a1, 1)(x)
                + (a1(x) * a2(x) - a2(x) * a1(x))
            )
            assert omega.vert == f12


def test_both_curvature_computations_agree():
    rng = random.Random(33)
    alg = algebra(["d1", "d2"])
    for model in all_models():
        conn = sample_connection(rng, model)
        for _ in range(10):
            cube = sample_microcube(rng, model, "G", ("d1", "d2"), alg)
            a = curvature(conn, cube)
            b = curvature_via_strong_diff(conn, cube)
            assert a == b


E02 = ((0, 0, 1), (0, 0, 0), (0, 0, 0))


def test_curvature_rejects_a_word_that_is_not_the_identity_on_an_edge(monkeypatch):
    # a central bump on the second lifted edge, B -> D along d1, is cancelled
    # by no other edge: the loop is not the identity at d2 = 0
    conn = preset_connection(HEIS)
    original, reads = connection.lifted_edge, []

    def bumped(conn, cube, corner, k):
        reads.append((tuple(sorted(corner)), k))
        out = original(conn, cube, corner, k)
        if len(reads) == 2:
            bump = Matrix.from_rational(E02, out.algebra) * out.algebra.gen(cube.args[k - 1])
            out = Arrow(out.model, out.grp, out.source, out.target, out.body + bump)
        return out

    alg = algebra(["d1", "d2"])
    x_sec = ConstantSection(HEIS, "G", _lie([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    y_sec = ConstantSection(HEIS, "G", _lie([[0, 0, 1], [0, 0, 0], [0, 0, 0]]))
    square = bisection_product(y_sec, x_sec, (), ("d1", "d2"), alg)
    monkeypatch.setattr(connection, "lifted_edge", bumped)
    with pytest.raises(CurvatureError, match="d2 = 0"):
        curvature(conn, square)
    assert reads == [((1,), 2), ((2,), 1), ((), 1), ((), 2)]


@pytest.mark.parametrize("error", [CurvatureError, FormError, DifferenceError, CubeError])
def test_the_top_coefficient_read_rejects_a_residual_coefficient(error):
    alg = algebra(["d1", "d2"])
    body = Matrix.identity(3, alg) + Matrix.from_rational(E02, alg) * alg.gen("d1")
    word = Arrow(HEIS, "H", (), (), body)
    with pytest.raises(error, match="d2 = 0"):
        top_tangent(word, ("d1", "d2"), error)
    clean = Arrow(HEIS, "H", (), (), Matrix.identity(3, alg))
    td = top_tangent(clean, ("d1", "d2"), error)
    assert td.direction == () and td.vert.is_zero()


# -- structure equation ---------------------------------------------------------------


def test_structure_equation_flat_model_vanishes():
    rng = random.Random(34)
    conn = sample_connection(rng, FLAT)
    alg = algebra([])
    for _ in range(10):
        x_sec = sample_section(rng, FLAT)
        y_sec = sample_section(rng, FLAT)
        lhs, rhs = structure_equation(conn, x_sec, y_sec, (), alg)
        assert lhs.is_zero() and rhs.is_zero()


def test_structure_equation_heisenberg_witness():
    conn = preset_connection(HEIS)
    alg = algebra([])
    x_sec = ConstantSection(HEIS, "G", _lie([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    y_sec = ConstantSection(HEIS, "G", _lie([[0, 0, 1], [0, 0, 0], [0, 0, 0]]))
    lhs, rhs = structure_equation(conn, x_sec, y_sec, (), alg)
    want = Matrix.from_rational([[0, 0, 1], [0, 0, 0], [0, 0, 0]], alg)
    assert lhs.vert == want
    assert rhs.vert == want


def test_structure_equation_random_sections_every_model():
    rng = random.Random(35)
    for model in all_models():
        conn = sample_connection(rng, model)
        alg = algebra([])
        for _ in range(5):
            x = sample_point(rng, model, alg)
            x_sec = sample_section(rng, model)
            y_sec = sample_section(rng, model)
            lhs, rhs = structure_equation(conn, x_sec, y_sec, x, alg)
            assert lhs == rhs


# -- where apply's output enters ------------------------------------------------------


def test_each_lifted_edge_is_checked_for_membership():
    # apply's output is outside data: a lift off the Lie algebra of H must
    # raise wherever it is read, curvature included, which builds no cube
    sl2 = build_model("trivial_gauge", "sl2")
    rng = random.Random(36)
    square = sample_microcube(rng, sl2, "G", ("d1", "d2"), algebra(["d1", "d2"]))
    cube = sample_microcube(rng, sl2, "G", ("d1", "d2", "d3"), algebra(["d1", "d2", "d3"]))

    def off_sl2(apply):
        def bumped(td):
            out = apply(td)
            e00 = Matrix.from_rational([[1, 0], [0, 0]], out.algebra)
            return TangentData(out.model, out.grp, out.anchor, out.direction, out.vert + e00)

        return bumped

    for read, arg in ((curvature, square), (lift, square), (build_cube, cube)):
        read(preset_connection(sl2), arg)
        bad = preset_connection(sl2)
        bad.apply = off_sl2(bad.apply)
        with pytest.raises(MembershipError, match="invalid H-arrow"):
            read(bad, arg)


# -- each axis read once, at its far corner ----------------------------------------------


def _connections(rng, model):
    """Makers of fresh connections: a random one and each preset."""
    draw = rng.getstate()

    def sampled():
        fresh = random.Random()
        fresh.setstate(draw)
        return sample_connection(fresh, model)

    presets = [lambda name=name: preset_connection(model, name) for name in preset_names(model)]
    return [sampled] + presets


def _edges(degree):
    """Every (corner, axis) of a cube, the far corners first."""
    out = []
    for k in range(1, degree + 1):
        rest = [i for i in range(1, degree + 1) if i != k]
        out += [(corner, k) for r in range(degree) for corner in combinations(rest, r)]
    return sorted(out, key=lambda e: -len(e[0]))


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_each_lifted_edge_is_the_checked_apply_of_its_slice(model):
    # the oracle lifts each edge the long way, from its own slice; the memo
    # is read far corners first (each other edge a drop of a kept lift) and
    # origin first (edges from the origin read there, then the far reads)
    rng = random.Random(37)
    makers = _connections(rng, model)
    compared = 0
    for names in (("d1", "d2"), ("d1", "d2", "d3")):
        alg = algebra(names)
        sampled = sample_microcube(rng, model, "G", names, alg)
        for make in makers:
            for edges in (_edges(len(names)), _edges(len(names))[::-1]):
                conn, cube = make(), make_microcube(sampled.arrow, names)
                for corner, k in edges:
                    frozen = {
                        i: g if i in corner else 0 for i, g in enumerate(names, 1) if i != k
                    }
                    td = conn.apply(from_tangent(slice_multi(cube, frozen)))
                    want = model.check(td.arrow_at(alg.gen(names[k - 1])))
                    assert lifted_edge(conn, cube, corner, k) == want, (corner, k)
                    compared += 1
    assert compared == len(makers) * 2 * (4 + 12)


def _drop(td, names):
    return TangentData(
        td.model,
        td.grp,
        tuple(c.drop(names) for c in td.anchor),
        tuple(c.drop(names) for c in td.direction),
        td.vert.drop(names),
    )


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_apply_commutes_with_dropping_generators(model):
    # the far-corner reads rest on this: a drop plan is a map of algebras,
    # and both kinds of `apply` are natural in the Weil algebra
    rng = random.Random(38)
    alg = algebra(["d", "e1", "e2"])
    size = model.spec("G").size
    for make in _connections(rng, model):
        conn = make()
        for _ in range(3):
            anchor = tuple(sample_weil(rng, alg) for _ in range(model.base_dim))
            direction = tuple(sample_weil(rng, alg) for _ in range(model.base_dim))
            vert = Matrix.zero(size, alg)
            for b in model.spec("G").lie_basis:
                vert = vert + b.convert(alg) * sample_weil(rng, alg)
            td = TangentData(model, "G", anchor, direction, vert)
            lifted = conn.apply(td)
            assert not lifted.is_zero()
            for names in (("e1",), ("e2",), ("e1", "e2"), ("d", "e2")):
                assert conn.apply(_drop(td, names)) == _drop(lifted, names), names


def _count_applies(conn):
    calls = []
    original = conn.apply

    def counted(td):
        calls.append(td)
        return original(td)

    conn.apply = counted
    return calls


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_a_fresh_cube_costs_three_applies(model):
    # three far-corner lifts for a cube and two for a square; every other
    # edge is a drop of one of them
    rng = random.Random(39)
    for make in _connections(rng, model):
        cube = sample_microcube(rng, model, "G", ("d1", "d2", "d3"), algebra(["d1", "d2", "d3"]))
        square = sample_microcube(rng, model, "G", ("d1", "d2"), algebra(["d1", "d2"]))
        conn = make()
        calls = _count_applies(conn)
        build_cube(conn, cube)
        assert len(calls) == 3
        conn = make()
        calls = _count_applies(conn)
        curvature(conn, square)
        assert len(calls) == 2


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_face_slices_inherit_their_cubes_far_reads(model):
    # a face at 0 inherits each far read with the zeroed argument dropped,
    # a face kept at its own name the read itself
    rng = random.Random(41)
    names = ("d1", "d2", "d3")
    alg = algebra(names + ("e",))
    for make in _connections(rng, model):
        cube = sample_microcube(rng, model, "G", names, alg)
        build_cube(make(), cube)
        assert sorted(cube.far_edges) == [1, 2, 3]
        for i, g in enumerate(names, 1):
            for e in (0, g):
                face = slice_multi(cube, {i: e})
                assert sorted(face.far_edges) == [1, 2], (i, e)
                fresh = Microcube(face.arrow, face.args)
                for k, read in face.far_edges.items():
                    assert read == fresh.far_edge(k), (i, e, k)


@pytest.mark.parametrize("k", [0, 3])
def test_lifted_edge_refuses_an_axis_out_of_range(k):
    rng = random.Random(40)
    model = all_models()[0]
    square = sample_microcube(rng, model, "G", ("d1", "d2"), algebra(["d1", "d2"]))
    with pytest.raises(CubeError):
        lifted_edge(sample_connection(rng, model), square, (), k)
