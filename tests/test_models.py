import random
from fractions import Fraction

import pytest
from oracles import entry, invert, matrix, rows

from nilgeo.matrices import Matrix, _det
from nilgeo.models import (
    ALG0,
    Arrow,
    CompositionError,
    MatrixGroup,
    _full,
    all_models,
    build_model,
    compose,
)
from nilgeo.sampling import (
    sample_lie_rows,
    sample_point,
    sample_rational,
    sample_vert,
    sample_weil,
)
from nilgeo.weil import algebra


ALG2 = algebra(["d1", "d2"])


def _constant_member(rng, spec, bound):
    """Random rational matrix satisfying the spec, built by closure: a
    random member of each block, then the free cells outside the blocks."""
    n = spec.size
    rows = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    inside = set()
    for span, kind in spec.blocks:
        block = _block_member(rng, len(span), kind, bound)
        for a, i in enumerate(span):
            for b, j in enumerate(span):
                rows[i][j] = block[a][b]
                inside.add((i, j))
    for i, j in spec.free:
        if (i, j) not in inside:
            rows[i][j] = sample_rational(rng, bound)
    return tuple(tuple(r) for r in rows)


def _block_member(rng, k, kind, bound):
    if kind == "SL":
        # product of shears keeps the determinant pinned at one
        assert k == 2
        a, b, c = (sample_rational(rng, bound) for _ in range(3))
        return (
            (1 + a * b, a + c + a * b * c),
            (b, 1 + b * c),
        )
    while True:
        rows = tuple(tuple(sample_rational(rng, bound) for _ in range(k)) for _ in range(k))
        if _det(rows) != 0:
            return rows


def sample_body(rng, model, grp, alg, bound=Fraction(2)):
    """Random group member over the full ambient algebra: a random constant
    member times one perturbation per ambient monomial."""
    spec = model.spec(grp)
    body = Matrix.from_rational(_constant_member(rng, spec, bound), alg)
    size = spec.size
    if model.spec(grp).lie_basis:
        for mask in range(1, 1 << len(alg.names)):
            if mask in alg.killed:
                continue
            mono = alg.term(1, alg.mono_names(mask))
            body = body * (
                Matrix.identity(size, alg)
                + sample_vert(rng, model, grp, alg, bound) * mono
            )
    return body


def random_arrow(rng, model, grp, alg, x=None):
    """Random checked arrow; endpoints may be any Weil-valued points."""
    if x is None:
        x = tuple(sample_weil(rng, alg) for _ in range(model.base_dim))
    y = tuple(sample_weil(rng, alg) for _ in range(model.base_dim))
    if grp == "L":
        y = x
    return model.check(Arrow(model, grp, x, y, sample_body(rng, model, grp, alg)))


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
    det = entry(body, 0, 0) * entry(body, 1, 1) - entry(body, 0, 1) * entry(body, 1, 0)
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


def test_matrix_group_refuses_blocks_it_cannot_test():
    # membership reads the determinant of each block, of size 1 or 2
    cells = [(i, j) for i in range(3) for j in range(3)]
    with pytest.raises(ValueError, match="1 or 2 distinct indices below 3"):
        _full(3, "GL")
    for span in ((0, 1, 1), (1, 1), (), (0, 3), (-1, 0)):
        with pytest.raises(ValueError, match="1 or 2 distinct indices below 3"):
            MatrixGroup(3, cells, ((span, "SL"),))
    with pytest.raises(ValueError, match="'GL' or 'SL'"):
        MatrixGroup(3, cells, (((0, 1), "SO"),))
    group = MatrixGroup(3, cells, (((2, 0), "SL"), ((1,), "GL")))
    assert group.contains(Matrix.identity(3, ALG0))


@pytest.mark.parametrize(
    "free, message",
    [
        ([(-1, 0)], "below 2: \\(-1, 0\\)"),
        ([(0, -1)], "below 2: \\(0, -1\\)"),
        ([(2, 0)], "below 2: \\(2, 0\\)"),
        ([(0, 2)], "below 2: \\(0, 2\\)"),
        ([(0, 1), (0, 1)], "repeated free cell"),
    ],
    ids=["negative-row", "negative-column", "row-past-size", "column-past-size", "repeated"],
)
def test_matrix_group_refuses_free_cells_it_cannot_hold(free, message):
    # a negative flat index would wrap to another cell, one past the size
    # would not exist, and a repeated cell would give two equal basis matrices
    with pytest.raises(ValueError, match=message):
        MatrixGroup(2, free)


# -- table reads against per-entry oracles ----------------------------------------


def entry_contains(spec, m):
    """Oracle: the group test read entry by entry."""
    alg, n = m.algebra, m.size
    if n != spec.size:
        return False
    cells = [(i, j) for i in range(n) for j in range(n)]
    if any(
        entry(m, i, j) != (alg.one if i == j else alg.zero)
        for i, j in cells
        if (i, j) not in spec.free
    ):
        return False
    for span, kind in spec.blocks:
        det = _det([[entry(m, i, j) for j in span] for i in span])
        if not (det.constant_term() != 0 if kind == "GL" else det == alg.one):
            return False
    return True


def entry_project_vert(model, w):
    """Oracle: the downstairs part of an H-matrix, rebuilt entry by entry."""
    z = w.algebra.zero
    if model.family == "heisenberg":
        return matrix(((z, entry(w, 0, 1), entry(w, 1, 2)), (z, z, z), (z, z, z)))
    if model.family == "direct_product":
        return matrix(((entry(w, 0, 0), entry(w, 0, 1)), (entry(w, 1, 0), entry(w, 1, 1))))
    return matrix(((z,),))


def entry_project(model, h):
    body = entry_project_vert(model, h.body)
    if model.family != "direct_product":  # the identity plus the kept part
        body = Matrix.identity(body.size, h.algebra) + body
    return Arrow(model, "G", h.source, h.target, body)


def _unit(n, i, j, alg):
    return Matrix.from_rational(
        [[int((r, c) == (i, j)) for c in range(n)] for r in range(n)], alg
    )


def test_table_reads_match_entry_oracles_on_every_spec():
    rng = random.Random(11)
    alg = algebra(["d1", "d2", "d3"])
    top = alg.term(Fraction(-1, 3), ("d1", "d2", "d3"))
    for model in all_models():
        for grp in ("G", "H", "L"):
            spec = model.spec(grp)
            n = spec.size
            for _ in range(3):
                m = sample_body(rng, model, grp, alg)
                assert spec.contains(m) and entry_contains(spec, m)
                # moved at one position, by a constant or by the top monomial
                for i in range(n):
                    for j in range(n):
                        for c in (alg.scalar(2), top):
                            off = m + _unit(n, i, j, alg) * c
                            assert spec.contains(off) == entry_contains(spec, off)
        for _ in range(5):
            h = random_arrow(rng, model, "H", alg)
            assert model.project(h) == entry_project(model, h)
            assert model.project_vert(h.body) == entry_project_vert(model, h.body)


def test_members_off_only_at_a_nilpotent_monomial_are_rejected():
    alg = algebra(["d1", "d2"])
    d12 = alg.term(1, ("d1", "d2"))
    for name, group, n, (i, j) in (
        ("heisenberg", None, 3, (1, 0)),  # off the unipotent3 pattern
        ("direct_product", None, 3, (0, 2)),  # off the GL2 x GL1 blocks
        ("trivial_gauge", "sl2", 2, (0, 0)),  # det = 1 + d1 d2
    ):
        spec = build_model(name, group).spec("H")
        bad = Matrix.identity(n, alg) + _unit(n, i, j, alg) * d12
        assert not spec.contains(bad) and not entry_contains(spec, bad)
        assert spec.contains(bad.drop(("d2",)))
    bump = Matrix.identity(2, alg) + _unit(2, 0, 0, alg) * d12
    assert _det(rows(bump)) == alg.one + d12
    assert build_model("trivial_gauge", "gl2").spec("H").contains(bump)


def _lie_contains_oracle(spec, m):
    """The definition: I + m * d lies in the group over Q[d]."""
    alg = algebra(["d"])
    step = m.convert(alg) * alg.gen("d")
    return spec.contains(Matrix.identity(spec.size, alg) + step)


def test_lie_contains_matches_the_group_over_dual_numbers():
    rng = random.Random(12)
    for model in all_models():
        for grp in ("G", "H", "L"):
            spec = model.spec(grp)
            n = spec.size
            basis = spec.lie_basis
            sl_blocks = sum(kind == "SL" for _, kind in spec.blocks)
            assert len(basis) == len(spec.free) - sl_blocks
            assert all(spec.lie_contains(b) for b in basis)
            for _ in range(20):
                rows = [[sample_rational(rng, Fraction(2)) for _ in range(n)] for _ in range(n)]
                shift = sum(rows[i][i] for i in range(n)) / n
                traceless = [
                    [q - shift if i == j else q for j, q in enumerate(r)]
                    for i, r in enumerate(rows)
                ]
                lie = sample_lie_rows(rng, model, grp)
                assert spec.lie_contains(lie)
                cases = [rows, traceless, lie.constant_matrix()]
                # moved at one cell: off the pattern, or off a traceless block
                for i in range(n):
                    for j in range(n):
                        moved = [list(r) for r in lie.constant_matrix()]
                        moved[i][j] += 1
                        cases.append(moved)
                for r in cases:
                    m = Matrix.from_rational(r, ALG0)
                    assert spec.lie_contains(m) == _lie_contains_oracle(spec, m), (
                        model.name, grp, r,
                    )
