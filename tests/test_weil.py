import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import coeffs

import nilgeo
from nilgeo.weil import (
    AlgebraMismatch,
    NotInvertible,
    SubstitutionError,
    _rename_plan,
    _restrict_plan,
    _scale_plan,
    algebra,
)


def subs(x, mapping, into=None):
    """Oracle: the ring homomorphism determined by generator images.

    Each image must be 0 or an element of the target algebra whose square
    is exactly zero; unmapped generators keep their names."""
    target = into if into is not None else x.algebra
    images = {}
    for name, img in mapping.items():
        x.algebra.gen_bit(name)  # the generator must exist
        if isinstance(img, (int, Fraction)):
            if img != 0:
                raise SubstitutionError(f"constant image {img} for {name} is not square-zero")
            img = target.zero
        elif img.algebra != target:
            raise AlgebraMismatch(f"image of {name} lives in {img.algebra!r}, not the target")
        elif not (img * img).is_zero():
            raise SubstitutionError(f"image of {name} is not square-zero")
        images[name] = img
    out = target.zero
    for names, c in coeffs(x).items():
        term = target.scalar(c)
        for g in names:
            term = term * (images[g] if g in images else target.gen(g))
        out = out + term
    return out


def rename(x, mapping):
    return x._apply(_rename_plan(x.algebra, tuple(mapping.items())))


def scale_gen(x, name, a):
    return x._apply(_scale_plan(x.algebra, name, a))


def restrict(x, kill):
    return x._apply(_restrict_plan(x.algebra.kill(kill)))


def D(n):
    return algebra([f"d{i}" for i in range(1, n + 1)])


def D2():
    # two square-zero generators whose product also vanishes
    return algebra(["d1", "d2"], killed=[("d1", "d2")])


def random_element(rng, alg, bound=4):
    out = alg.zero
    for mask in range(1 << len(alg.names)):
        if mask in alg.killed:
            continue
        num = rng.randint(-bound, bound)
        den = rng.choice((1, 1, 1, 2, 3))
        out = out + alg.term(Fraction(num, den), alg.mono_names(mask))
    return out


# -- products ---------------------------------------------------------------


def test_product_truncates_squares():
    a = D(1)
    x = a.scalar(1) + 2 * a.gen("d1")
    y = a.scalar(3) + a.gen("d1")
    assert x * y == a.scalar(3) + 7 * a.gen("d1")


def test_distinct_generators_multiply_and_squares_die():
    a = D(2)
    d1, d2 = a.gen("d1"), a.gen("d2")
    assert d1 * d2 == a.term(1, ("d1", "d2"))
    assert (d1 * d1).is_zero()


def test_product_in_quotient_drops_killed_monomial():
    a = D2()
    x = a.one + a.gen("d1")
    y = a.one + a.gen("d2")
    assert x * y == a.one + a.gen("d1") + a.gen("d2")


def test_mixing_algebras_raises():
    with pytest.raises(AlgebraMismatch):
        D(2).gen("d1") * D2().gen("d1")


# -- inverses ---------------------------------------------------------------


def test_inverse_of_one_plus_generator():
    a = D(1)
    x = a.one + a.gen("d1")
    assert x.invert() == a.one - a.gen("d1")


def test_inverse_two_generators_round_trips():
    a = D(2)
    x = a.one + a.gen("d1") + a.gen("d2")
    inv = x.invert()
    # oracle: multiply back and land on 1
    assert x * inv == a.one
    assert inv * x == a.one
    assert inv == a.one - a.gen("d1") - a.gen("d2") + 2 * a.term(1, ("d1", "d2"))


def test_inverse_of_constant():
    a = D(1)
    assert a.scalar(2).invert() == a.scalar(Fraction(1, 2))


def test_zero_constant_term_not_invertible():
    with pytest.raises(NotInvertible):
        D(1).gen("d1").invert()


# -- restriction -------------------------------------------------------------


def test_restrict_deletes_killed_coefficients():
    a = D(2)
    x = a.one + a.gen("d1") + 5 * a.term(1, ("d1", "d2"))
    y = restrict(x, [("d1", "d2")])
    assert y == y.algebra.one + y.algebra.gen("d1")


def test_restrict_nothing_is_identity():
    a = D(2)
    x = a.one + a.gen("d1")
    assert restrict(x, []) == x


def test_restrict_to_wedge_quotient():
    big = algebra(["d1", "d2", "e"])
    x = big.one + big.gen("d1") + big.term(1, ("d1", "e")) + big.term(
        2, ("d1", "d2", "e")
    )
    y = restrict(x, [("d1", "e"), ("d2", "e")])
    wedge = algebra(["d1", "d2", "e"], killed=[("d1", "e"), ("d2", "e")])
    assert y.algebra == wedge
    assert y == wedge.one + wedge.gen("d1")
    # the triple product is killed by upward closure
    assert wedge.mask(("d1", "d2", "e")) in wedge.killed


# -- substitution -------------------------------------------------------------


def test_substitute_monomial_target():
    src = algebra(["e"])
    tgt = D(2)
    x = src.one + src.gen("e")
    assert subs(x, {"e": tgt.term(1, ("d1", "d2"))}, into=tgt) == tgt.one + tgt.term(
        1, ("d1", "d2")
    )


def test_substitute_zero_evaluates():
    a = D(2)
    x = a.one + a.gen("d1") + a.term(1, ("d1", "d2"))
    assert subs(x, {"d2": 0}) == a.one + a.gen("d1")


def test_substitute_scaled_generator():
    a = D(2)
    x = a.one + a.gen("d1") + 3 * a.term(1, ("d1", "d2"))
    got = subs(x, {"d1": 2 * a.gen("d1")})
    assert got == a.one + 2 * a.gen("d1") + 6 * a.term(1, ("d1", "d2"))


def test_substitute_rejects_non_square_zero_target():
    src = algebra(["e"])
    tgt = D(2)
    bad = tgt.gen("d1") + tgt.gen("d2")  # square is 2*d1*d2, nonzero
    with pytest.raises(SubstitutionError):
        subs(src.one + src.gen("e"), {"e": bad}, into=tgt)


def test_substitute_sum_allowed_once_product_killed():
    src = algebra(["d"])
    tgt = D2()
    img = tgt.gen("d1") + tgt.gen("d2")
    t = src.one + 5 * src.gen("d")
    assert subs(t, {"d": img}, into=tgt) == tgt.one + 5 * img


def test_rename_matches_general_substitution():
    rng = random.Random(19)
    a = D(3)
    for _ in range(30):
        x = random_element(rng, a)
        mapping = {"d1": "d2", "d2": "d1"}
        want = subs(x, {k: a.gen(v) for k, v in mapping.items()})
        assert rename(x, mapping) == want


def test_rename_collision_is_rejected():
    a = D(2)
    x = a.term(1, ("d1", "d2"))
    with pytest.raises(SubstitutionError):
        rename(x, {"d1": "d2"})


def test_scale_gen_matches_general_substitution():
    rng = random.Random(20)
    a = D(3)
    for _ in range(30):
        x = random_element(rng, a)
        q = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        assert scale_gen(x, "d2", q) == subs(x, {"d2": a.gen("d2") * q})


def test_permutation_substitutions_compose():
    rng = random.Random(7)
    a = D(3)
    names = a.names
    for _ in range(50):
        x = random_element(rng, a)
        p1 = list(names)
        p2 = list(names)
        rng.shuffle(p1)
        rng.shuffle(p2)
        s1 = {g: a.gen(h) for g, h in zip(names, p1)}
        s2 = {g: a.gen(h) for g, h in zip(names, p2)}
        two = dict(zip(names, p2))
        combined = {g: a.gen(two[p1[i]]) for i, g in enumerate(names)}
        assert subs(subs(x, s1), s2) == subs(x, combined)


# -- ring laws ----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ring_laws_random(n):
    rng = random.Random(1000 + n)
    alg = D(n)
    for _ in range(250):
        a = random_element(rng, alg)
        b = random_element(rng, alg)
        c = random_element(rng, alg)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inverse_two_sided_random(n):
    rng = random.Random(2000 + n)
    alg = D(n)
    for _ in range(100):
        a = random_element(rng, alg)
        if a.constant_term() == 0:
            a = a + 1
        inv = a.invert()
        assert a * inv == alg.one
        assert inv * a == alg.one


def test_restrict_is_algebra_map():
    rng = random.Random(3)
    alg = D(3)
    kill = [("d1", "d2")]
    for _ in range(60):
        a = random_element(rng, alg)
        b = random_element(rng, alg)
        assert restrict(a * b, kill) == restrict(a, kill) * restrict(b, kill)


# -- misc ---------------------------------------------------------------------


def test_coefficient_extracts_cofactor():
    a = D(3)
    x = (
        a.scalar(4)
        + 3 * a.gen("d1")
        + a.term(5, ("d1", "d2"))
        + a.term(7, ("d1", "d2", "d3"))
    )
    cof = x.coefficient(("d1", "d2"))
    assert cof == a.scalar(5) + 7 * a.gen("d3")
    assert x.coefficient(()) == x


def test_killed_generator_collapses_to_zero():
    a = algebra(["d1"], killed=[("d1",)])
    assert a.gen("d1").is_zero()


@pytest.mark.parametrize(
    "build",
    [
        lambda: algebra(["d1", "d2"], killed=[("d1", "d1")]),
        lambda: algebra(["d1", "d2"]).kill([("d2", "d2")]),
    ],
    ids=["algebra", "kill"],
)
def test_a_killed_monomial_refuses_a_repeated_generator(build):
    # d1 * d1 is already 0: read as d1 it would kill the generator itself
    with pytest.raises(ValueError, match="repeated generator in monomial"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: algebra(["d1", "d2"], killed=[("d1", "x")]),
        lambda: algebra(["d1", "d2"]).kill([("x",)]),
    ],
    ids=["algebra", "kill"],
)
def test_a_killed_monomial_refuses_an_unknown_generator(build):
    with pytest.raises(ValueError, match="unknown generator in monomial: 'x'"):
        build()


def test_str_roundtrip_smoke():
    a = D(2)
    x = a.one - a.gen("d1") + Fraction(1, 2) * a.term(1, ("d1", "d2"))
    assert "d1" in str(x)


# -- dense products -----------------------------------------------------------


def pair_loop_product(a, b):
    """Reference product over the name tables: every pair of monomials,
    skipping repeated generators and killed products."""
    alg = a.algebra
    out = {}
    for n1, q1 in coeffs(a).items():
        for n2, q2 in coeffs(b).items():
            if set(n1) & set(n2) or alg.term(1, n1 + n2).is_zero():
                continue
            key = alg.mono_names(alg.mask(n1 + n2))
            out[key] = out.get(key, 0) + q1 * q2
    return {k: v for k, v in out.items() if v}


def sparse_element(rng, alg):
    """`random_element` with each monomial kept with one probability, itself
    drawn, so that products fall on both sides of the dense threshold."""
    keep = rng.random()
    return sum(
        (alg.term(q, names) for names, q in coeffs(random_element(rng, alg)).items()
         if rng.random() < keep),
        alg.zero,
    )


@pytest.mark.parametrize(
    "n, killed",
    [
        (1, []),
        (2, []),
        (2, [("d1", "d2")]),
        (3, []),
        (3, [("d1", "d3")]),
        (4, []),
        (4, [("d1", "d3"), ("d2", "d3", "d4")]),
        (0, []),
        (5, [("d2", "d5")]),
        (6, []),
        (6, [("d1", "d2", "d3")]),
        (7, []),  # past the kernel's cap: the pair loop on dense operands
        (7, [("d1", "d7"), ("d3", "d4", "d5")]),
    ],
)
def test_dense_product_matches_pair_loop(n, killed):
    rng = random.Random(4000 + 10 * n + len(killed))
    alg = algebra([f"d{i}" for i in range(1, n + 1)], killed=killed)
    for _ in range(60 if n <= 4 else 6):
        a = sparse_element(rng, alg)
        b = sparse_element(rng, alg)
        assert coeffs(a * b) == pair_loop_product(a, b)
        assert coeffs(b * a) == pair_loop_product(b, a)


# run in the child: importing the package and parsing each model's config
KERNELS_AFTER_SETUP = """
from nilgeo import cli, weil
from nilgeo.models import all_models

for model in all_models():
    text = f"model = {model.family}\\nseed = 1\\nsuite = all\\n"
    if model.structure is not None:
        text += f"structure_group = {model.structure}\\n"
    cli.parse_config(text)
print(weil._kernel.cache_info().currsize)
"""


def test_setup_builds_no_kernel():
    # kernels are built on the first dense product, not at import or set-up
    env = dict(os.environ)
    src = str(Path(nilgeo.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", KERNELS_AFTER_SETUP],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    assert out.stdout.split() == ["0"]


def test_sparse_product_matches_pair_loop():
    rng = random.Random(4100)
    alg = algebra(["d1", "d2", "d3"], killed=[("d2", "d3")])
    for _ in range(60):
        a = random_element(rng, alg)
        b = alg.scalar(rng.randint(-3, 3)) + rng.randint(-3, 3) * alg.gen("d2")
        assert coeffs(a * b) == pair_loop_product(a, b)


# -- mask plans -----------------------------------------------------------------


def _subsets(names):
    return [
        tuple(g for k, g in enumerate(names) if m >> k & 1)
        for m in range(1 << len(names))
    ]


def _rebuild(target, terms):
    """Oracle: the sum of target.term(c, names) over the (names, c) terms."""
    return sum((target.term(c, names) for names, c in terms), target.zero)


@pytest.mark.parametrize(
    "alg",
    [D(3), algebra(["d1", "d2", "d3"], killed=[("d1", "d3")])],
    ids=["d1d2d3", "d1d3-killed"],
)
def test_every_plan_matches_its_oracle_on_every_subset(alg):
    rng = random.Random(40 + len(alg.killed))
    dead = [alg.mono_names(m) for m in alg.killed]
    wide = algebra(["d3", "e", "d2", "d1"], killed=dead)  # reordered, one more name
    for _ in range(10):
        x = random_element(rng, alg)
        terms = list(coeffs(x).items())
        for names in _subsets(alg.names):
            gone = set(names)
            assert x.drop(names) == _rebuild(
                alg, [(k, c) for k, c in terms if not gone & set(k)]
            )
            assert x.coefficient(names) == _rebuild(
                alg,
                [(tuple(g for g in k if g not in gone), c) for k, c in terms if gone <= set(k)],
            )
            assert restrict(x, [names]) == _rebuild(alg.kill([names]), terms)
            cycle = dict(zip(names, names[1:] + names[:1]))
            assert rename(x, cycle) == subs(x, {g: alg.gen(h) for g, h in cycle.items()})
            for g in names:
                q = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                assert scale_gen(x, g, q) == subs(x, {g: q * alg.gen(g)})
        assert x.convert(wide) == _rebuild(wide, terms)
        assert x.convert(wide).convert(alg) == x
        if x.coefficient(("d1", "d2")).is_zero():
            continue
        with pytest.raises(AlgebraMismatch):
            x.convert(algebra(alg.names, killed=dead + [("d1", "d2")]))
