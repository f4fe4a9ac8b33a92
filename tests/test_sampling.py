"""The integer samplers against their `Fraction` oracles: the same draws in
the same order give the same values, at the default bound and at the
README's `coeff_bound = 3/2`, and the tables they write are canonical."""

import random
from fractions import Fraction
from math import gcd

import pytest
from oracles import (
    fraction_lie_rows,
    fraction_microcube,
    fraction_perturbed_square,
    fraction_point,
    fraction_poly_matrix,
    fraction_rational,
    fraction_vert,
    fraction_weil,
    poly_rows,
)

from nilgeo.matrices import Matrix
from nilgeo.models import ALG0, all_models
from nilgeo.polynomials import Poly, PolyMatrix
from nilgeo.sampling import (
    perturbed_square,
    sample_lie_rows,
    sample_microcube,
    sample_point,
    sample_poly_matrix,
    sample_rational,
    sample_vert,
    sample_weil,
)
from nilgeo.weil import algebra

DRAWS = 200
BOUNDS = (Fraction(2), Fraction(3, 2))
ALGEBRAS = (
    algebra(["d1"]),
    algebra(["d1", "d2"]),
    algebra(["d1", "d2", "d3"]),
    algebra(["d1", "d2"], killed=[("d1", "d2")]),
)
ALG_IDS = ["d1", "d1d2", "d1d2d3", "paired"]


def _twins(seed):
    return random.Random(seed), random.Random(seed)


def _same_stream(a, b):
    # both sides made the same number of draws
    assert a.random() == b.random()


# at 0 each denominator has one numerator, drawn from one random bit and
# redrawn while it is set; 1/3 mixes one numerator with three; 100 reads up
# to ten bits for 601 numerators
@pytest.mark.parametrize("bound", BOUNDS + (Fraction(0), Fraction(1, 3), Fraction(100)), ids=str)
def test_scalar_draws_match_the_fraction_oracle(bound):
    a, b = _twins(f"rational:{bound}")
    for _ in range(DRAWS):
        assert sample_rational(a, bound) == fraction_rational(b, bound)
    _same_stream(a, b)


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
@pytest.mark.parametrize("alg", ALGEBRAS, ids=ALG_IDS)
def test_weil_draws_match_the_fraction_oracle(alg, bound):
    a, b = _twins(f"weil:{alg.names}:{len(alg.killed)}:{bound}")
    for _ in range(DRAWS):
        got, want = sample_weil(a, alg, bound), fraction_weil(b, alg, bound)
        assert got == want and got._den == want._den
    _same_stream(a, b)


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_matrix_draws_match_the_fraction_oracle(model, bound):
    alg = ALGEBRAS[1]
    a, b = _twins(f"matrix:{model.name}:{bound}")
    for k in range(DRAWS):
        grp = "HGL"[k % 3]
        lie = sample_lie_rows(a, model, grp, bound)
        assert lie == Matrix.from_rational(fraction_lie_rows(b, model, grp, bound), ALG0)
        vert = sample_vert(a, model, grp, alg, bound)
        assert vert == fraction_vert(b, model, grp, alg, bound)
        assert sample_point(a, model, alg, bound) == fraction_point(b, model, alg, bound)
    _same_stream(a, b)


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_poly_matrix_draws_match_the_fraction_oracle(model, bound):
    a, b = _twins(f"poly:{model.name}:{bound}")
    for k in range(DRAWS):
        grp, degree = "HL"[k % 2], k % 4
        got = sample_poly_matrix(a, model, grp, degree, bound)
        want = fraction_poly_matrix(b, model, grp, degree, bound)
        assert (got.size, got.nvars) == (want.size, want.nvars)
        assert (got._t, got._den) == (want._t, want._den)
    _same_stream(a, b)


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
@pytest.mark.parametrize("alg", ALGEBRAS, ids=ALG_IDS)
@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_cube_draws_match_the_fraction_oracle(model, alg, bound):
    a, b = _twins(f"cube:{model.name}:{alg.names}:{len(alg.killed)}:{bound}")
    for k in range(DRAWS):
        args = alg.names[k % len(alg.names):]
        got = sample_microcube(a, model, "G", args, alg, bound=bound)
        want = fraction_microcube(b, model, "G", args, alg, bound)
        assert got == want
        if len(args) == 2:
            partner = perturbed_square(a, got, bound)
            assert partner == fraction_perturbed_square(b, want, bound)
    _same_stream(a, b)


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_poly_matrix_tables_are_canonical(model):
    rng = random.Random(f"canonical:{model.name}")
    built = []
    for k in range(40):
        built.append(sample_poly_matrix(rng, model, "HL"[k % 2], k % 4))
    # mixed denominators, a zero coefficient, and the zero matrix
    third = Fraction(1, 3)
    built.append(PolyMatrix([
        [Poly(2, {(1, 0): 2 * third, (0, 0): 4}), Poly(2, {(2, 0): 6})],
        [Poly(2, {(1, 0): Fraction(1, 2), (0, 1): 0}), Poly(2, {})],
    ]))
    built.append(PolyMatrix([[Poly(1, {})]]))
    for pm in built:
        assert pm._den > 0
        for e, flat in pm._t.items():
            assert len(e) == pm.nvars and len(flat) == pm.size * pm.size
            assert any(flat), e
        assert gcd(pm._den, *(v for flat in pm._t.values() for v in flat)) == 1
        # the constructor reads the same table back from the entries
        again = PolyMatrix(poly_rows(pm))
        assert (again._t, again._den) == (pm._t, pm._den)
