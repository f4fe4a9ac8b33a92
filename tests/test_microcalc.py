import random
from fractions import Fraction

import pytest
from oracles import matrix, partial, rows

from nilgeo import microcalc
from nilgeo.matrices import Matrix
from nilgeo.microcalc import (
    ConstantSection,
    CubeError,
    DifferenceError,
    NotNilpotent,
    PolySection,
    TangentData,
    _transform,
    arrow_drop,
    as_kernel_tangent,
    bisection_product,
    bracket,
    bracket_sections,
    degenerate_square,
    diff,
    from_tangent,
    make_microcube,
    perm_sign,
    permute,
    scale_arg,
    slice_multi,
    strong_diff,
    tau,
)
from nilgeo.models import ALG0, Arrow, CompositionError, MembershipError, all_models, build_model
from nilgeo.polynomials import Poly
from nilgeo.sampling import (
    perturbed_square, sample_microcube, sample_point, sample_vert, sample_weil,
)
from nilgeo.weil import (
    AlgebraMismatch,
    WeilAlgebra,
    _coefficient_plan,
    _convert_plan,
    _drop_plan,
    _rename_plan,
    _restrict_plan,
    _scale_plan,
    algebra,
)

HEIS = build_model("heisenberg")


def entrywise(m, fn):
    """Oracle: `fn` on every entry, rebuilt from the entries."""
    return matrix([[fn(w) for w in r] for r in rows(m)])


def arrow_map(a, fn):
    """Oracle: `fn` on every coordinate and every body entry."""
    return Arrow(
        a.model,
        a.grp,
        tuple(fn(c) for c in a.source),
        tuple(fn(c) for c in a.target),
        entrywise(a.body, fn),
    )


def e01(alg, c=1):
    return Matrix.from_rational([[0, c, 0], [0, 0, 0], [0, 0, 0]], alg)


def e02(alg, c=1):
    return Matrix.from_rational([[0, 0, c], [0, 0, 0], [0, 0, 0]], alg)


def e12(alg, c=1):
    return Matrix.from_rational([[0, 0, 0], [0, 0, c], [0, 0, 0]], alg)


def g_square(alg, a, b, c, args=("d1", "d2"), grp="G"):
    """Downstairs square I + A d1 + B d2 + C d1d2 in the Heisenberg model."""
    i3 = Matrix.identity(3, alg)
    g1, g2 = alg.gen(args[0]), alg.gen(args[1])
    body = i3 + a * g1 + b * g2 + c * (g1 * g2)
    return make_microcube(Arrow(HEIS, grp, (), (), body), args)


def random_g_matrices(rng, alg):
    def pick():
        return e01(alg, rng.randint(-3, 3)) + e02(alg, rng.randint(-3, 3))

    return pick(), pick(), pick()


# -- slices -------------------------------------------------------------------


def test_slice_at_own_name_matches_hand_expansion():
    rng = random.Random(2)
    alg = algebra(["d1", "d2"])
    for _ in range(20):
        a, b, c = random_g_matrices(rng, alg)
        cube = g_square(alg, a, b, c)
        got = slice_multi(cube, {1: "d1"})
        assert got.args == ("d2",)
        g1, g2 = alg.gen("d1"), alg.gen("d2")
        want = Matrix.identity(3, alg) + b * g2 + (c - b * a) * (g1 * g2)
        assert got.arrow.body == want


def test_slice_at_zero_is_plain_evaluation():
    alg = algebra(["d1", "d2"])
    a, b, c = e01(alg), e12(alg, 0) + e02(alg, 2), e02(alg, 5)
    cube = g_square(alg, a, b, c)
    got = slice_multi(cube, {1: 0})
    want = Matrix.identity(3, alg) + b * alg.gen("d2")
    assert got.arrow.body == want
    assert got.args == ("d2",)


def test_double_slice_at_zero_keeps_the_remaining_edge():
    rng = random.Random(3)
    alg = algebra(["d1", "d2", "d3"])
    cube = sample_microcube(rng, HEIS, "G", ("d1", "d2", "d3"), alg, x=())
    got = slice_multi(cube, {1: 0, 2: 0})
    assert got.args == ("d3",)
    want = entrywise(cube.arrow.body, lambda w: w.drop(("d1", "d2")))
    assert got.arrow.body == want


def _subsets(names):
    return [
        tuple(g for k, g in enumerate(names) if m >> k & 1)
        for m in range(1 << len(names))
    ]


def test_drop_and_coefficient_match_entrywise_results():
    rng = random.Random(12)
    alg = algebra(["d1", "d2", "d3"])
    for model in all_models():
        for grp in ("G", "H"):
            cube = sample_microcube(rng, model, grp, alg.names, alg)
            a = cube.arrow
            for names in _subsets(alg.names):
                assert arrow_drop(a, names) == arrow_map(a, lambda w: w.drop(names))
                assert a.body.drop(names) == entrywise(a.body, lambda w: w.drop(names))
                assert a.body.coefficient(names) == entrywise(
                    a.body, lambda w: w.coefficient(names)
                )


def test_every_arrow_plan_matches_the_entrywise_oracle():
    rng = random.Random(14)
    names3 = ["d1", "d2", "d3"]
    for alg in (algebra(names3), algebra(names3, killed=[("d1", "d3")])):
        dead = [alg.mono_names(m) for m in alg.killed]
        wide = algebra(["d2", "d1", "f", "d3", "e"], killed=dead)
        for model in all_models():
            a = sample_microcube(rng, model, "H", alg.names, alg).arrow
            for names in _subsets(alg.names):
                cycle = dict(zip(names, names[1:] + names[:1]))
                q = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                plans = [
                    _drop_plan(alg, alg.mask(names)),
                    _coefficient_plan(alg, alg.mask(names)),
                    _rename_plan(alg, tuple(cycle.items())),
                    _restrict_plan(alg.kill([names])),
                    _convert_plan(alg, wide),
                ] + [_scale_plan(alg, g, q) for g in names]
                for plan in plans:
                    want = arrow_map(a, lambda w: w._apply(plan))
                    assert _transform(a, plan) == want


def test_arrow_drop_computes_one_mask_per_arrow(monkeypatch):
    rng = random.Random(13)
    alg = algebra(["d1", "d2"])
    arrows = [
        sample_microcube(rng, model, "G", alg.names, alg).arrow for model in all_models()
    ]
    calls = []
    mask = WeilAlgebra.mask

    def counted(self, names):
        calls.append(names)
        return mask(self, names)

    monkeypatch.setattr(WeilAlgebra, "mask", counted)
    for a in arrows:
        calls.clear()
        arrow_drop(a, ("d1",))
        assert len(calls) == 1


def test_an_arrow_with_coordinates_over_another_algebra_is_refused():
    # the body and the coordinates order their generators differently: a
    # plan of the body's algebra would misread every coordinate
    body_alg, coord_alg = algebra(["d1", "e"]), algebra(["e", "d1"])
    model = build_model("trivial_gauge", "scalar")
    x = (coord_alg.scalar(1), coord_alg.scalar(2))
    x_body = tuple(c.convert(body_alg) for c in x)
    moved = (x_body[0] + body_alg.gen("d1"), x_body[1])
    good = Arrow(model, "G", x_body, moved, Matrix.identity(1, body_alg))
    assert model.validate(good)
    assert make_microcube(good, ("d1",)).arrow is good
    for source, target in ((x, moved), (x_body, tuple(c.convert(coord_alg) for c in moved))):
        bad = Arrow(model, "G", source, target, Matrix.identity(1, body_alg))
        assert not model.validate(bad)
        with pytest.raises(MembershipError, match="invalid G-arrow"):
            make_microcube(bad, ("d1",))


def test_slice_rejects_colliding_parameter():
    # a frozen value is 0 or the argument's own name: a slice never renames
    alg = algebra(["d1", "d2", "e"])
    cube = g_square(alg, e01(alg), e02(alg), e02(alg, 0))
    for e in ("d2", "e", "y", 1, alg.gen("d1")):
        with pytest.raises(CubeError, match="0 or the argument's own name d1"):
            slice_multi(cube, {1: e})


# -- edges, permutation, scaling ----------------------------------------------


def edge(cube, i):
    """The degree-one cube along argument i (all other arguments at zero)."""
    others = [g for k, g in enumerate(cube.args, 1) if k != i]
    return make_microcube(arrow_drop(cube.arrow, others), (cube.args[i - 1],))


def test_edges_read_off_linear_coefficients():
    alg = algebra(["d1", "d2"])
    a, b = e01(alg), e02(alg, 3)
    cube = g_square(alg, a, b, e02(alg, 7))
    t1, t2 = edge(cube, 1), edge(cube, 2)
    assert from_tangent(t1).vert == a
    assert from_tangent(t2).vert == b


def test_edge_of_degenerate_square_is_zero():
    alg = algebra(["d1", "d2"])
    t = TangentData(HEIS, "G", (), (), e01(alg, 2))
    sq = degenerate_square(t, ("d1", "d2"), alg)
    for i in (1, 2):
        assert from_tangent(edge(sq, i)).is_zero()


def test_transpose_swaps_the_mixed_coefficient_frame():
    rng = random.Random(4)
    alg = algebra(["d1", "d2"])
    for _ in range(10):
        a, b, c = random_g_matrices(rng, alg)
        cube = g_square(alg, a, b, c)
        flipped = permute(cube, (2, 1))
        g1, g2 = alg.gen("d1"), alg.gen("d2")
        want = Matrix.identity(3, alg) + b * g1 + a * g2 + c * (g1 * g2)
        assert flipped.arrow.body == want
        assert permute(flipped, (2, 1)) == cube


def test_tau_zeroes_the_other_argument():
    alg = algebra(["d1", "d2"])
    a, b, c = e01(alg), e02(alg), e02(alg, 4)
    cube = g_square(alg, a, b, c)
    assert tau(cube, 1).arrow.body == Matrix.identity(3, alg) + a * alg.gen("d1")
    assert tau(cube, 1).args == ("d1", "d2")
    assert tau(cube, 2).arrow.body == Matrix.identity(3, alg) + b * alg.gen("d2")


def test_scale_argument():
    alg = algebra(["d1", "d2"])
    a, c = e01(alg), e02(alg, 3)
    cube = g_square(alg, a, e01(alg, 0), c)
    assert scale_arg(cube, 1, 1) == cube
    doubled = scale_arg(cube, 1, 2)
    g1, g2 = alg.gen("d1"), alg.gen("d2")
    assert doubled.arrow.body == Matrix.identity(3, alg) + 2 * a * g1 + 2 * c * (g1 * g2)
    clipped = scale_arg(cube, 1, 0)
    assert clipped.arrow.body == Matrix.identity(3, alg)


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((2, 3, 1)) == 1


# -- tangent arithmetic ---------------------------------------------------------


STEP_ALGEBRAS = (algebra(["d1", "d2"], killed=[("d1", "d2")]), algebra(["d1", "d2", "d3"]))
STEP_MODELS = (HEIS, build_model("direct_product"), build_model("trivial_gauge", "gl2"))


def test_arrow_at_matches_the_written_out_step():
    # (anchor + w*direction, I + w*vert) with Weil-valued data; over the
    # paired algebra the half top term is 0
    rng = random.Random(16)
    for alg in STEP_ALGEBRAS:
        ga, gb = alg.gen("d1"), alg.gen("d2")
        for w in (ga, -ga, alg.term(Fraction(1, 2), ("d1", "d2")), ga + gb):
            for model in STEP_MODELS:
                anchor = sample_point(rng, model, alg)
                direction = tuple(sample_weil(rng, alg) for _ in anchor)
                vert = sample_vert(rng, model, "H", alg) * sample_weil(rng, alg)
                got = TangentData(model, "H", anchor, direction, vert).arrow_at(w)
                assert got.source == anchor
                assert got.target == tuple(c + w * d for c, d in zip(anchor, direction))
                assert got.body == Matrix.identity(vert.size, alg) + vert * w


def test_arrow_at_refuses_mixed_algebras_and_a_constant_parameter():
    rng = random.Random(17)
    alg, other = STEP_ALGEBRAS[1], algebra(["d1", "d2", "d3", "d4"])
    model = STEP_MODELS[2]
    x = sample_point(rng, model, alg)
    v = tuple(sample_weil(rng, alg) for _ in x)
    vert = sample_vert(rng, model, "H", alg)
    w = alg.gen("d1")
    x_other, v_other = (tuple(c.convert(other) for c in p) for p in (x, v))
    for td in (
        TangentData(model, "H", x, v, vert.convert(other)),
        TangentData(model, "H", x_other, v, vert),
        TangentData(model, "H", x, v_other, vert),
    ):
        with pytest.raises(AlgebraMismatch):
            td.arrow_at(w)
    td = TangentData(model, "H", x, v, vert)
    with pytest.raises(AlgebraMismatch):
        td.arrow_at(other.gen("d1"))
    for constant in (alg.one + w, alg.scalar(Fraction(2, 3)), alg.one):
        with pytest.raises(NotNilpotent):
            td.arrow_at(constant)
    assert issubclass(NotNilpotent, ValueError)


KERNEL_ALG = algebra(["d1", "d2"], killed=[("d1", "d2")]).extend("d3")


def _kernel_data(rng, model):
    """A vertical H-tangent at a random point whose vertical part lies in
    Lie(L), with Weil-valued coefficients."""
    x = sample_point(rng, model, KERNEL_ALG)
    vert = sum(
        (sample_vert(rng, model, "L", KERNEL_ALG) * sample_weil(rng, KERNEL_ALG) for _ in range(2)),
        Matrix.zero(model.spec("L").size, KERNEL_ALG),
    )
    return x, tuple(KERNEL_ALG.zero for _ in x), vert


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_as_kernel_tangent_tags_a_lie_l_value(model):
    rng = random.Random(19)
    for _ in range(5):
        x, zero, vert = _kernel_data(rng, model)
        got = as_kernel_tangent(TangentData(model, "H", x, zero, vert))
        assert got == TangentData(model, "L", x, zero, vert)


@pytest.mark.parametrize(
    "model", [m for m in all_models() if m.base_dim], ids=lambda m: m.name
)
def test_as_kernel_tangent_refuses_a_nonzero_direction(model):
    # over a one-point base a tangent has no direction
    rng = random.Random(20)
    x, zero, vert = _kernel_data(rng, model)
    moving = (KERNEL_ALG.gen("d1"),) + zero[1:]
    with pytest.raises(CompositionError, match="nonzero base velocity"):
        as_kernel_tangent(TangentData(model, "H", x, moving, vert))


@pytest.mark.parametrize(
    "name, structure, cell",
    [("heisenberg", None, (0, 1)), ("direct_product", None, (0, 0)), ("trivial_gauge", "sl2", None)],
    ids=["heisenberg-E01", "direct_product-E00", "trivial_gauge[sl2]-I"],
)
def test_as_kernel_tangent_refuses_a_value_outside_lie_l(name, structure, cell):
    model = build_model(name, structure)
    n = model.spec("L").size
    if cell is None:
        outside = Matrix.identity(n, KERNEL_ALG)  # not traceless
    else:
        flat = [[0] * n for _ in range(n)]
        flat[cell[0]][cell[1]] = 1
        outside = Matrix.from_rational(flat, KERNEL_ALG)
    assert not model.spec("L").lie_contains(outside)
    rng = random.Random(21)
    x, zero, vert = _kernel_data(rng, model)
    for bad in (outside, vert + outside * KERNEL_ALG.gen("d2")):
        with pytest.raises(MembershipError):
            as_kernel_tangent(TangentData(model, "H", x, zero, bad))


def test_tangent_add_matches_body_product():
    alg = algebra(["d"])
    a, b = e01(alg, 2), e12(alg, 3)
    t1 = TangentData(HEIS, "H", (), (), a)
    t2 = TangentData(HEIS, "H", (), (), b)
    total = t1 + t2
    assert total.vert == a + b
    # over a square-zero parameter the sum is the product of the values
    g = alg.gen("d")
    assert total.arrow_at(g).body == (t2.arrow_at(g).body * t1.arrow_at(g).body)
    assert (t1 + TangentData(HEIS, "H", (), (), Matrix.zero(3, alg))).vert == a
    assert t1.scale(2).vert == 2 * a


# -- bracket ---------------------------------------------------------------------


def test_bracket_heisenberg_directions():
    alg = algebra([])
    t1 = TangentData(HEIS, "H", (), (), e01(alg))
    t2 = TangentData(HEIS, "H", (), (), e12(alg))
    got = bracket(t1, t2)
    assert got.vert == e02(alg, -1)


def test_bracket_takes_fresh_names_past_the_ones_in_use():
    # the word needs two generators beyond the tangents' algebra, named
    # after u and v; over an algebra that holds u and u1 the first is u2
    t1 = TangentData(HEIS, "H", (), (), e01(ALG0, 2) + e02(ALG0))
    t2 = TangentData(HEIS, "H", (), (), e12(ALG0, 3))
    want = bracket(t1, t2)
    assert not want.is_zero()
    for names in (["u", "v"], ["u", "u1", "v"]):
        alg = algebra(names)
        assert bracket(t1.convert(alg), t2.convert(alg)) == want.convert(alg)
        # the bracket is bilinear over the algebra: entries holding every
        # name in use scale it, where a clash with the word would truncate
        f = sum((alg.gen(g) for g in names), alg.one)
        a, b = (TangentData(HEIS, "H", (), (), t.convert(alg).vert * f) for t in (t1, t2))
        assert bracket(a, b).vert == want.convert(alg).vert * (f * f)


def test_bracket_matches_word_expansion_oracle():
    # expand the four-factor word with raw matrix arithmetic
    rng = random.Random(11)
    alg = algebra(["u", "v"])
    gu, gv = alg.gen("u"), alg.gen("v")
    for _ in range(20):
        a = Matrix.from_rational(
            [[0, rng.randint(-3, 3), rng.randint(-3, 3)],
             [0, 0, rng.randint(-3, 3)],
             [0, 0, 0]],
            alg,
        )
        b = Matrix.from_rational(
            [[0, rng.randint(-3, 3), rng.randint(-3, 3)],
             [0, 0, rng.randint(-3, 3)],
             [0, 0, 0]],
            alg,
        )
        i3 = Matrix.identity(3, alg)
        word = (
            (i3 - gv * b)
            * (i3 - gu * a)
            * (i3 + gv * b)
            * (i3 + gu * a)
        )
        expected = word.coefficient(("u", "v"))
        t1 = TangentData(HEIS, "H", (), (), a.coefficient(()))
        t2 = TangentData(HEIS, "H", (), (), b.coefficient(()))
        got = bracket(t1, t2)
        assert got.vert.convert(alg) == expected


def test_bracket_alternating_and_abelian():
    alg = algebra([])
    t = TangentData(HEIS, "H", (), (), e01(alg, 5))
    assert bracket(t, t).is_zero()
    model = build_model("direct_product")
    diag1 = Matrix.from_rational([[2, 0, 0], [0, 3, 0], [0, 0, 1]], alg) - Matrix.identity(3, alg)
    diag2 = Matrix.from_rational([[1, 0, 0], [0, 5, 0], [0, 0, 2]], alg) - Matrix.identity(3, alg)
    s1 = TangentData(model, "H", (), (), diag1)
    s2 = TangentData(model, "H", (), (), diag2)
    assert bracket(s1, s2).is_zero()


# -- differences -------------------------------------------------------------------


def test_diff1_of_identical_squares_is_the_shared_frame():
    rng = random.Random(12)
    alg = algebra(["d1", "d2"])
    a, b, c = random_g_matrices(rng, alg)
    cube = g_square(alg, a, b, c)
    assert diff(cube, cube, 1) == tau(cube, 2)
    assert diff(cube, cube, 2) == tau(cube, 1)


def test_diff1_subtracts_first_axis_coefficients():
    rng = random.Random(13)
    alg = algebra(["d1", "d2"])
    a1, b, c1 = random_g_matrices(rng, alg)
    a2, _, c2 = random_g_matrices(rng, alg)
    g1 = g_square(alg, a1, b, c1)
    g2 = g_square(alg, a2, b, c2)
    got = diff(g2, g1, 1)
    want = g_square(alg, a2 - a1, b, c2 - c1)
    assert got == want


def test_diff_requires_shared_slice():
    alg = algebra(["d1", "d2"])
    g1 = g_square(alg, e01(alg, 1), e02(alg, 1), e02(alg, 0))
    g2 = g_square(alg, e01(alg, 1), e02(alg, 2), e02(alg, 0))
    with pytest.raises(DifferenceError):
        diff(g2, g1, 1)  # the d2-frames differ


@pytest.mark.parametrize("axis", [0, 3])
def test_diff_refuses_an_axis_other_than_1_or_2(axis):
    alg = algebra(["d1", "d2"])
    cube = g_square(alg, e01(alg), e02(alg), e02(alg, 0))
    with pytest.raises(DifferenceError, match=f"not {axis}"):
        diff(cube, cube, axis)


def test_strong_diff_basics():
    rng = random.Random(14)
    alg = algebra(["d1", "d2"])
    a, b, c = random_g_matrices(rng, alg)
    cube = g_square(alg, a, b, c)
    assert strong_diff(cube, cube).is_zero()
    v = e02(alg, 3) + e01(alg, -2)
    top = alg.term(1, ("d1", "d2"))
    bumped_body = cube.arrow.body * (Matrix.identity(3, alg) + v * top)
    bumped = make_microcube(Arrow(HEIS, "G", (), (), bumped_body), cube.args)
    got = strong_diff(bumped, cube)
    assert got.vert == v


def test_strong_diff_three_term_cocycle():
    rng = random.Random(15)
    alg = algebra(["d1", "d2"])
    for model in (HEIS, build_model("trivial_gauge", "sl2")):
        for _ in range(10):
            g1 = sample_microcube(rng, model, "G", ("d1", "d2"), alg)
            g2 = perturbed_square(rng, g1)
            g3 = perturbed_square(rng, g1)
            total = (
                strong_diff(g2, g1) + strong_diff(g3, g2) + strong_diff(g1, g3)
            )
            assert total.is_zero()


def test_strong_diff_requires_agreement_below_top():
    alg = algebra(["d1", "d2"])
    g1 = g_square(alg, e01(alg, 1), e02(alg, 1), e02(alg, 0))
    g2 = g_square(alg, e01(alg, 2), e02(alg, 1), e02(alg, 0))
    with pytest.raises(DifferenceError):
        strong_diff(g2, g1)


def test_thm_chain_identity_for_differences():
    # the degenerate square of a strong difference equals the two-step
    # difference against the frozen frame
    rng = random.Random(16)
    alg = algebra(["d1", "d2"])
    for model in (HEIS, build_model("trivial_gauge", "gl2")):
        for _ in range(10):
            g1 = sample_microcube(rng, model, "G", ("d1", "d2"), alg)
            g2 = perturbed_square(rng, g1)
            lhs = degenerate_square(strong_diff(g2, g1), ("d1", "d2"), alg)
            rhs = diff(diff(g2, g1, 1), tau(g1, 2), 2)
            assert lhs == rhs


# -- degenerate squares -------------------------------------------------------------


def test_degenerate_square_concentrates_on_top():
    alg = algebra(["d1", "d2"])
    v = e01(alg, 2) + e02(alg, 1)
    t = TangentData(HEIS, "G", (), (), v)
    sq = degenerate_square(t, ("d1", "d2"), alg)
    top = alg.term(1, ("d1", "d2"))
    assert sq.arrow.body == Matrix.identity(3, alg) + v * top
    z = TangentData(HEIS, "G", (), (), Matrix.zero(3, alg))
    assert degenerate_square(z, ("d1", "d2"), alg).arrow.body.is_identity()


def test_degenerate_square_recovers_its_tangent():
    alg = algebra(["d1", "d2"])
    v = e01(alg, -3) + e02(alg, 5)
    t = TangentData(HEIS, "G", (), (), v)
    sq = degenerate_square(t, ("d1", "d2"), alg)
    zero = TangentData(HEIS, "G", (), (), Matrix.zero(3, alg))
    flat = degenerate_square(zero, ("d1", "d2"), alg)
    assert strong_diff(sq, flat) == t


# -- bisections -----------------------------------------------------------------------


def test_bisection_product_over_a_point_is_the_matrix_square():
    rng = random.Random(17)
    alg = algebra(["d1", "d2"])
    for _ in range(10):
        a, b, _ = random_g_matrices(rng, alg)
        x_sec = ConstantSection(HEIS, "G", Matrix.from_rational(a.constant_matrix(), ALG0))
        y_sec = ConstantSection(HEIS, "G", Matrix.from_rational(b.constant_matrix(), ALG0))
        sq = bisection_product(y_sec, x_sec, (), ("d1", "d2"), alg)
        g1, g2 = alg.gen("d1"), alg.gen("d2")
        want = Matrix.identity(3, alg) + a * g1 + b * g2 + (b * a) * (g1 * g2)
        assert sq.arrow.body == want


def test_bisection_product_with_zero_section():
    alg = algebra(["d1", "d2"])
    b = e02(alg, 4)
    x_sec = ConstantSection(HEIS, "G", Matrix.zero(3, ALG0))
    y_sec = ConstantSection(HEIS, "G", Matrix.from_rational(b.constant_matrix(), ALG0))
    sq = bisection_product(y_sec, x_sec, (), ("d1", "d2"), alg)
    assert sq.arrow.body == Matrix.identity(3, alg) + b * alg.gen("d2")


def test_bisection_product_coordinate_sections_pair_groupoid():
    model = build_model("trivial_gauge", "scalar")
    alg = algebra(["d1", "d2"])
    one, zero = Poly(2, {(0, 0): 1}), Poly(2, {})
    x_sec = PolySection(model, "G", (one, zero))
    y_sec = PolySection(model, "G", (zero, one))
    x = (alg.scalar(3), alg.scalar(-1))
    sq = bisection_product(y_sec, x_sec, x, ("d1", "d2"), alg)
    assert sq.arrow.target == (x[0] + alg.gen("d1"), x[1] + alg.gen("d2"))
    assert sq.arrow.source == x


def test_bracket_of_coordinate_fields_vanishes():
    model = build_model("trivial_gauge", "scalar")
    alg = algebra([])
    one, zero = Poly(2, {(0, 0): 1}), Poly(2, {})
    x_sec = PolySection(model, "G", (one, zero))
    y_sec = PolySection(model, "G", (zero, one))
    x = (alg.scalar(0), alg.scalar(2))
    assert bracket_sections(x_sec, y_sec, x, alg).is_zero()


def test_bracket_sections_matches_classical_vector_field_bracket():
    # oracle: [v, w] = Dw . v - Dv . w via symbolic partials
    rng = random.Random(18)
    model = build_model("trivial_gauge", "scalar")
    alg = algebra([])
    for _ in range(10):
        vx = [Poly(2, {(i, j): Fraction(rng.randint(-2, 2)) for i in range(2) for j in range(2)}) for _ in range(2)]
        wx = [Poly(2, {(i, j): Fraction(rng.randint(-2, 2)) for i in range(2) for j in range(2)}) for _ in range(2)]
        x_sec = PolySection(model, "G", tuple(vx))
        y_sec = PolySection(model, "G", tuple(wx))
        x = (alg.scalar(rng.randint(-2, 2)), alg.scalar(rng.randint(-2, 2)))
        got = bracket_sections(x_sec, y_sec, x, alg)
        want = []
        for k in range(2):
            acc = alg.zero
            for i in range(2):
                acc = acc + partial(wx[k], i)((x[0], x[1])) * vx[i]((x[0], x[1]))
                acc = acc - partial(vx[k], i)((x[0], x[1])) * wx[i]((x[0], x[1]))
            want.append(acc)
        assert got.direction == tuple(want)


# -- the trust boundary -----------------------------------------------------------

ALG3 = algebra(["d1", "d2", "d3"])

# each function that derives a cube from a checked one, with one call on a cube
DERIVED = {
    "slice_multi": lambda c: slice_multi(c, {1: 0, 3: "d3"}),
    "slice_cube-own-name": lambda c: slice_multi(c, {2: "d2"}),
    "slice_cube-zero": lambda c: slice_multi(c, {1: 0}),
    "permute": lambda c: permute(c, (3, 1, 2)),
    "scale_arg": lambda c: scale_arg(c, 2, Fraction(-3, 2)),
    "tau": lambda c: tau(c, 3),
}


@pytest.mark.parametrize("name", DERIVED)
def test_derived_cubes_pass_the_cube_checks(name):
    # slicing, permuting, rescaling and zeroing wrap their arrow unchecked;
    # on every model and bundle the result passes every check it skipped
    rng = random.Random(77)
    alg = ALG3.extend("e")
    for model in all_models():
        for grp in ("G", "H"):
            cube = sample_microcube(rng, model, grp, ("d1", "d2", "d3"), alg)
            got = DERIVED[name](cube)
            assert got == make_microcube(got.arrow, got.args)


@pytest.mark.parametrize("name", DERIVED)
def test_derived_cubes_are_wrapped_by_one_name(monkeypatch, name):
    # the unchecked constructor is looked up at call time, so rebinding it
    # (as the suite oracle does) reaches every derived cube
    def refuse(arrow, args):
        raise CubeError("rebound")

    cube = sample_microcube(random.Random(78), HEIS, "G", ("d1", "d2", "d3"), ALG3.extend("e"))
    monkeypatch.setattr(microcalc, "_cube", refuse)
    with pytest.raises(CubeError, match="rebound"):
        DERIVED[name](cube)


SCALAR_GAUGE = build_model("trivial_gauge", "scalar")


def _malformed():
    """Each input `make_microcube` rejects, with its error and message."""
    alg = algebra(["d1", "d2", "x"])
    d1, d2 = alg.gen("d1"), alg.gen("d2")
    i3, i1 = Matrix.identity(3, alg), Matrix.identity(1, alg)
    good = Arrow(HEIS, "G", (), (), i3 + e01(alg) * d1 + e02(alg) * d2)
    off_origin = Arrow(HEIS, "G", (), (), i3 + e01(alg) + e02(alg) * d1)
    lower = Matrix.from_rational([[0, 0, 0], [1, 0, 0], [0, 0, 0]], alg)
    non_member = Arrow(HEIS, "G", (), (), i3 + lower * d1)
    x = (alg.scalar(1), alg.scalar(2))
    moving = (x[0] + d1, x[1])
    moving_source = Arrow(SCALAR_GAUGE, "G", moving, moving, i1)
    off_source = Arrow(SCALAR_GAUGE, "G", x, (x[0] + 1 + d1, x[1] + d2), i1)
    cases = {
        "repeated-argument": (good, ("d1", "d1"), CubeError, "repeated"),
        "foreign-generator": (good, ("d1", "y"), CubeError, "not in the ambient"),
        "non-identity-origin": (off_origin, ("d1", "d2"), CubeError, "origin"),
        "origin-off-its-source": (off_source, ("d1", "d2"), CubeError, "origin"),
        "moving-source": (moving_source, ("d1", "d2"), CubeError, "source"),
        "non-member-body": (non_member, ("d1", "d2"), MembershipError, "invalid G"),
    }
    return [pytest.param(*case, id=label) for label, case in cases.items()]


@pytest.mark.parametrize("arrow, args, error, message", _malformed())
def test_make_microcube_rejects_malformed_input(arrow, args, error, message):
    with pytest.raises(error, match=message):
        make_microcube(arrow, args)


@pytest.mark.parametrize(
    "model, grp",
    [(HEIS, "G"), (build_model("trivial_gauge", "sl2"), "H")],
    ids=["heisenberg-G", "sl2-H"],
)
def test_renaming_must_be_a_map_of_algebras(model, grp):
    # with d1*d2 killed but d1*d3 alive, swapping d2 and d3 is no map of
    # algebras: it would return a wrong cube unchecked
    alg = algebra(["d1", "d2", "d3", "e"], killed=[("d1", "d2")])
    cube = sample_microcube(random.Random(80), model, grp, ("d1", "d2", "d3"), alg)
    with pytest.raises(CubeError, match="killed monomials"):
        permute(cube, (1, 3, 2))
    swapped = permute(cube, (2, 1, 3))
    assert swapped == make_microcube(swapped.arrow, swapped.args)
    assert permute(swapped, (2, 1, 3)) == cube


def test_sample_microcube_rejects_a_moving_source():
    alg = algebra(["d1", "d2"])
    x = (alg.scalar(1) + alg.gen("d1"), alg.scalar(2))
    with pytest.raises(CubeError, match="source"):
        sample_microcube(random.Random(79), SCALAR_GAUGE, "H", ("d1", "d2"), alg, x=x)


@pytest.mark.parametrize(
    "args, message",
    [(("d1", "d1"), "repeated"), (("d1", "x"), "not in the ambient")],
    ids=["repeated-argument", "foreign-generator"],
)
def test_sample_microcube_names_malformed_arguments_before_drawing(args, message):
    # the arguments are checked before the first draw: the generator's
    # state is untouched
    rng = random.Random(81)
    state = rng.getstate()
    sl2 = build_model("trivial_gauge", "sl2")
    with pytest.raises(CubeError, match=message):
        sample_microcube(rng, sl2, "G", args, algebra(["d1", "d2"]))
    assert rng.getstate() == state
