import random
from fractions import Fraction

import pytest
from oracles import coeffs, entry, poly_rows, poly_terms

from nilgeo.matrices import Matrix
from nilgeo.microcalc import make_microcube, scale_arg
from nilgeo.models import Arrow, build_model
from nilgeo.polynomials import Poly, PolyMatrix
from nilgeo.weil import WeilAlgebra, WeilElement, algebra


def termwise(p, coords):
    """Reference evaluation: every term scaled and multiplied out on its own,
    from a per-coordinate table of powers."""
    alg = coords[0].algebra
    powers = [[alg.one, x] for x in coords]
    out = alg.zero
    for exps, c in sorted(poly_terms(p).items()):
        term = alg.scalar(c)
        for i, k in enumerate(exps):
            while len(powers[i]) <= k:
                powers[i].append(powers[i][-1] * coords[i])
            if k:
                term = term * powers[i][k]
        out = out + term
    return out


def _rational(rng):
    return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 6, 7)))


def _random_poly(rng, nvars, degree):
    if rng.random() < 0.25:
        return Poly(nvars, {})
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = _rational(rng)
    return Poly(nvars, terms)


def _random_point(rng, alg, nvars):
    coords = []
    for _ in range(nvars):
        x = alg.scalar(_rational(rng))
        for mask in range(1, 1 << len(alg.names)):
            if mask not in alg.killed and rng.random() < 0.6:
                x = x + alg.term(_rational(rng), alg.mono_names(mask))
        coords.append(x)
    return tuple(coords)


@pytest.mark.parametrize(
    "alg",
    [
        algebra(["d1"]),
        algebra(["d1", "d2"]),
        algebra(["d1", "d2", "d3"]),
        algebra(["d1", "d2", "d3"], killed=[("d1", "d3")]),
    ],
    ids=["d1", "d1d2", "d1d2d3", "killed"],
)
def test_poly_matrix_evaluation_matches_termwise_reference(alg):
    rng = random.Random(40 + len(alg.names) + len(alg.killed))
    for _ in range(30):
        nvars = rng.randint(1, 3)
        degree = rng.randint(0, 3)
        size = rng.randint(1, 3)
        pm = PolyMatrix(
            [[_random_poly(rng, nvars, degree) for _ in range(size)] for _ in range(size)]
        )
        x = _random_point(rng, alg, nvars)
        got = pm(x)
        assert got.algebra is alg
        for i, row in enumerate(poly_rows(pm)):
            for j, p in enumerate(row):
                want = termwise(p, x)
                assert coeffs(entry(got, i, j)) == coeffs(want)
                assert coeffs(p(x)) == coeffs(want)


def test_linear_combination_matches_fraction_sum():
    # a polynomial's value, read alone and as a 1 x 1 matrix, is the
    # Fraction sum of the coefficient tables of its terms q * x^e
    rng = random.Random(47)
    alg = algebra(["d1", "d2"], killed=[("d1", "d2")])
    for _ in range(50):
        p = _random_poly(rng, 2, 3)
        x = _random_point(rng, alg, 2)
        want = {}
        for e, q in poly_terms(p).items():
            mono = alg.one
            for xi, k in zip(x, e):
                for _ in range(k):
                    mono = mono * xi
            for names, v in coeffs(mono).items():
                want[names] = want.get(names, Fraction(0)) + q * v
        want = {names: v for names, v in want.items() if v}
        assert coeffs(p(x)) == want
        assert coeffs(entry(PolyMatrix(((p,),))(x), 0, 0)) == want


def test_poly_matrix_evaluation_shares_monomials(monkeypatch):
    alg = algebra(["d1", "d2"])
    x = (alg.scalar(Fraction(1, 2)) + alg.gen("d1"), alg.scalar(-3) + alg.gen("d2"))
    full = {(0, 0): 1, (1, 0): 2, (0, 1): 3, (2, 0): 4, (1, 1): 5, (0, 2): 6}
    pm = PolyMatrix(
        [
            [Poly(2, full), Poly(2, {e: -c for e, c in full.items()})],
            [Poly(2, {e: Fraction(c, 7) for e, c in full.items()}), Poly(2, full)],
        ]
    )
    counts = {"mul": 0, "scalar": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(WeilElement, "__mul__", counted("mul", WeilElement.__mul__))
    monkeypatch.setattr(WeilAlgebra, "scalar", counted("scalar", WeilAlgebra.scalar))
    got = pm(x)
    assert counts == {"mul": 3, "scalar": 0}  # x1^2, x1*x2 and x2^2
    monkeypatch.undo()
    for i in range(2):
        for j in range(2):
            assert entry(got, i, j) == termwise(poly_rows(pm)[i][j], x)


def test_poly_rejects_negative_and_fractional_exponents():
    with pytest.raises(ValueError):
        Poly(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        Poly(2, {(Fraction(1, 2), 0): 1})
    with pytest.raises(ValueError):
        Poly(1, {(1.0,): 1})


def test_floats_are_rejected_as_coefficients():
    with pytest.raises(TypeError):
        Poly(1, {(1,): 0.1})
    with pytest.raises(TypeError):
        algebra(["d1"]).scalar(0.1)
    alg = algebra(["d1"])
    with pytest.raises(TypeError):
        alg.term(0.1, ("d1",))
    model = build_model("heisenberg")
    cube = make_microcube(Arrow(model, "G", (), (), Matrix.identity(3, alg)), ("d1",))
    with pytest.raises(TypeError):
        scale_arg(cube, 1, 0.5)
    assert coeffs(alg.term(Fraction(1, 10), ("d1",))) == {("d1",): Fraction(1, 10)}
    assert alg.scalar(Fraction(1, 10)).constant_term() == Fraction(1, 10)
    assert poly_terms(Poly(1, {(1,): Fraction(1, 10)})) == {(1,): Fraction(1, 10)}


def test_var_refuses_an_index_out_of_range():
    for nvars, i in ((2, 2), (2, -1), (0, 0)):
        with pytest.raises(ValueError):
            Poly.var(nvars, i)
    assert poly_terms(Poly.var(2, 1)) == {(0, 1): 1}


def test_poly_times_weil_element_is_not_implemented():
    p = Poly.var(1, 0)
    w = algebra(["d1"]).gen("d1")
    with pytest.raises(TypeError):
        p * w
    with pytest.raises(TypeError):
        w * p


def test_adding_a_non_polynomial_raises_type_error():
    p = Poly.var(1, 0)
    with pytest.raises(TypeError):
        p + 1
    with pytest.raises(TypeError):
        p - 1


def test_poly_matrix_rejects_empty_and_mixed_arity():
    with pytest.raises(ValueError):
        PolyMatrix(())
    with pytest.raises(ValueError):
        PolyMatrix([[Poly.var(1, 0), Poly(2, {})], [Poly(1, {}), Poly(1, {})]])
