"""Property suites: every verified identity as a seeded, repeatable check.

Each check is written as one trial: given a model, a `random.Random` and
the run parameters, it returns `ok` or `(ok, note)`.  `_trials` registers
it under its property id and builds the check that the CLI and the
acceptance tests call, `check(model, rng, trials, params)`, which returns
one `TrialResult` per trial.  That loop is the one place that repeats,
labels and isolates trials: a trial that raises becomes a failed result
noted `error: <Type>: <msg>`, and the next trial goes on with the same
generator.  The CLI prints the results in the line protocol.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .bianchi import (
    build_cube,
    corrupt_edge,
    face_curvature_checks,
    verify_abstract_bianchi,
    verify_classical_bianchi,
)
from .connection import (
    LiftedSection,
    curvature,
    curvature_via_strong_diff,
    lift,
    structure_equation,
)
from .forms import (
    curvature_form,
    d_nabla,
    one_form,
    validate_form,
)
from .microcalc import (
    TangentData,
    bisection_at,
    bisection_product,
    bracket,
    bracket_sections,
    degenerate_square,
    diff,
    scale_arg,
    strong_diff,
    tau,
)
from .models import ALG0, compose, invert
from .sampling import (
    _CONNECTIONS,
    perturbed_square,
    preset_connection,
    sample_connection,
    sample_lie_rows,
    sample_microcube,
    sample_point,
    sample_poly_matrix,
    sample_rational,
    sample_section,
    sample_vert,
    sample_weil,
)
from .weil import algebra


@dataclass(frozen=True)
class TrialResult:
    prop_id: str
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class SuiteParams:
    connection: str = "random"  # "random" or "preset:<name>"
    bound: Fraction = Fraction(2)
    degree: int = 2


def _trials(prop_id: str):
    """Register one trial as the check `check(model, rng, trials, params)`.

    The check keeps the trial's name, which seeds its generator, and labels
    every result `prop_id`."""

    def register(trial):
        @functools.wraps(trial)
        def check(model, rng, trials, params) -> list[TrialResult]:
            out = []
            for _ in range(trials):
                try:
                    got = trial(model, rng, params)
                except Exception as exc:
                    got = False, f"error: {type(exc).__name__}: {exc}"
                ok, note = got if isinstance(got, tuple) else (got, "")
                out.append(TrialResult(prop_id, ok, note))
            return out

        return check

    return register


def _connection(model, rng, params: SuiteParams):
    if params.connection.startswith("preset:"):
        return preset_connection(model, params.connection.split(":", 1)[1])
    return sample_connection(rng, model, bound=params.bound, degree=params.degree)


ALG1 = algebra(["d1"])
ALG2 = algebra(["d1", "d2"])
ALG3 = algebra(["d1", "d2", "d3"])
PAIRED = algebra(["d1", "d2"], killed=[("d1", "d2")])


def _square(rng, model, params):
    return sample_microcube(rng, model, "G", ("d1", "d2"), ALG2, bound=params.bound)


def _cube(rng, model, params):
    return sample_microcube(rng, model, "G", ("d1", "d2", "d3"), ALG3, bound=params.bound)


# ---------------------------------------------------------------------------
# algebra suite

RING_ALGEBRAS = tuple(algebra([f"d{i}" for i in range(1, n + 1)]) for n in (1, 2, 3, 4))


@_trials("weil-ring")
def check_weil_ring(model, rng, params):
    ok = True
    for alg in RING_ALGEBRAS:
        a = sample_weil(rng, alg, params.bound)
        b = sample_weil(rng, alg, params.bound)
        c = sample_weil(rng, alg, params.bound)
        ab = a * b
        if ab * c != a * (b * c) or ab != b * a:
            ok = False
        if a * (b + c) != ab + a * c:
            ok = False
        if a.constant_term() == 0:
            a = a + 1
        inv = a.invert()
        if a * inv != alg.one or inv * a != alg.one:
            ok = False
    return ok


# ---------------------------------------------------------------------------
# tangent suite


@_trials("prop-1.1")
def check_prop_1_1(model, rng, params):
    sec = sample_section(rng, model, params.degree, params.bound)
    x = sample_point(rng, model, PAIRED, params.bound)
    ga, gb = PAIRED.gen("d1"), PAIRED.gen("d2")
    lhs = bisection_at(sec, ga + gb, x)
    first = bisection_at(sec, gb, x)
    one_way = compose(bisection_at(sec, ga, first.target), first)
    second = bisection_at(sec, ga, x)
    other_way = compose(bisection_at(sec, gb, second.target), second)
    ok = lhs == one_way == other_way
    # inverse law: walking back along -d undoes the step
    x1 = sample_point(rng, model, ALG1, params.bound)
    step = bisection_at(sec, ALG1.gen("d1"), x1)
    back = compose(bisection_at(sec, -ALG1.gen("d1"), step.target), step)
    ok = ok and back == model.identity("G", x1, ALG1)
    if model.base_dim == 0:
        ok = ok and bisection_at(sec, -ALG1.gen("d1"), x1) == invert(step)
    return ok


@_trials("prop-1.2")
def check_prop_1_2(model, rng, params):
    xs = sample_section(rng, model, params.degree, params.bound)
    ys = sample_section(rng, model, params.degree, params.bound)
    x = sample_point(rng, model, ALG1, params.bound)
    d = ALG1.gen("d1")
    lhs = bisection_at(xs + ys, d, x)
    a1 = bisection_at(xs, d, x)
    path1 = compose(bisection_at(ys, d, a1.target), a1)
    b1 = bisection_at(ys, d, x)
    path2 = compose(bisection_at(xs, d, b1.target), b1)
    ok = lhs == path1 == path2
    # scaled parameters in shared directions still commute
    x3 = sample_point(rng, model, ALG3, params.bound)
    w1 = ALG3.term(1, ("d1", "d2"))
    w2 = ALG3.term(1, ("d1", "d3"))
    c1 = bisection_at(xs, w1, x3)
    c2 = bisection_at(ys, w2, c1.target)
    e1 = bisection_at(ys, w2, x3)
    e2 = bisection_at(xs, w1, e1.target)
    return ok and compose(c2, c1) == compose(e2, e1)


@_trials("prop-1.3")
def check_prop_1_3(model, rng, params):
    xs = sample_section(rng, model, params.degree, params.bound)
    ys = sample_section(rng, model, params.degree, params.bound)
    x = sample_point(rng, model, ALG0, params.bound)
    s = bracket_sections(xs, ys, x, ALG0)  # extraction asserts are part of the claim
    # the bracket is the unique tangent matching the word at products
    ext = algebra(["u", "v"])
    xe = tuple(c.convert(ext) for c in x)
    gu, gv = ext.gen("u"), ext.gen("v")
    a1 = bisection_at(xs, gu, xe)
    a2 = bisection_at(ys, gv, a1.target)
    a3 = bisection_at(xs, -gu, a2.target)
    a4 = bisection_at(ys, -gv, a3.target)
    word = compose(a4, compose(a3, compose(a2, a1)))
    return s.convert(ext).arrow_at(gu * gv) == word


def _group_tangent(rng, model, x, alg, bound):
    zeros = tuple(alg.zero for _ in range(model.base_dim))
    return TangentData(model, "H", x, zeros, sample_vert(rng, model, "H", alg, bound))


@_trials("thm-1.4")
def check_thm_1_4(model, rng, params):
    x = sample_point(rng, model, ALG0, params.bound)
    t1 = _group_tangent(rng, model, x, ALG0, params.bound)
    t2 = _group_tangent(rng, model, x, ALG0, params.bound)
    t3 = _group_tangent(rng, model, x, ALG0, params.bound)
    t12 = bracket(t1, t2)
    ok = t12 == -bracket(t2, t1)
    # the value: minus the matrix commutator of the vertical parts
    ok = ok and t12.vert == t2.vert * t1.vert - t1.vert * t2.vert
    ok = ok and bracket(t1, t1).is_zero()
    t13, t23 = bracket(t1, t3), bracket(t2, t3)
    t31, t32 = bracket(t3, t1), bracket(t3, t2)
    for a in (-2, -1, 0, Fraction(1, 2), 1, 3):
        lhs = bracket(t1.scale(a) + t2, t3)
        ok = ok and lhs == t13.scale(a) + t23
        lhs2 = bracket(t3, t1.scale(a) + t2)
        ok = ok and lhs2 == t31.scale(a) + t32
    jac = (
        bracket(t1, bracket(t2, t3))
        + bracket(t2, bracket(t3, t1))
        + bracket(t3, bracket(t1, t2))
    )
    return ok and jac.is_zero()


@_trials("prop-1.5")
def check_prop_1_5(model, rng, params):
    g1 = _square(rng, model, params)
    g2 = perturbed_square(rng, g1, params.bound)
    g3 = perturbed_square(rng, g1, params.bound)
    total = strong_diff(g2, g1) + strong_diff(g3, g2) + strong_diff(g1, g3)
    return total.is_zero()


# ---------------------------------------------------------------------------
# lift suite


@_trials("prop-3.1")
def check_prop_3_1(model, rng, params):
    conn = _connection(model, rng, params)
    cube = _square(rng, model, params)
    lifted = lift(conn, cube)
    ok = True
    for i in (1, 2):
        for a in (0, 1, -1, 2, Fraction(1, 2)):
            if lift(conn, scale_arg(cube, i, a)) != scale_arg(lifted, i, a):
                ok = False
    return ok


@_trials("cor-3.2")
def check_cor_3_2(model, rng, params):
    conn = _connection(model, rng, params)
    g1 = _square(rng, model, params)
    g2 = perturbed_square(rng, g1, params.bound)
    return all(
        lift(conn, diff(g2, g1, k)) == diff(lift(conn, g2), lift(conn, g1), k) for k in (1, 2)
    )


@_trials("prop-3.3")
def check_prop_3_3(model, rng, params):
    conn = _connection(model, rng, params)
    x = sample_point(rng, model, ALG2, params.bound)
    direction = tuple(
        ALG2.scalar(sample_rational(rng, params.bound)) for _ in range(model.base_dim)
    )
    td = TangentData(
        model, "G", x, direction, sample_vert(rng, model, "G", ALG2, params.bound)
    )
    lhs = lift(conn, degenerate_square(td, ("d1", "d2"), ALG2))
    return lhs == degenerate_square(conn.apply(td), ("d1", "d2"), ALG2)


@_trials("thm-3.4")
def check_thm_3_4(model, rng, params):
    conn = _connection(model, rng, params)
    g1 = _square(rng, model, params)
    g2 = perturbed_square(rng, g1, params.bound)
    lhs = conn.apply(strong_diff(g2, g1))
    rhs = strong_diff(lift(conn, g2), lift(conn, g1))
    ok = lhs == rhs
    # the two-step difference chain reproduces the degenerate square
    chain = diff(diff(g2, g1, 1), tau(g1, 2), 2)
    return ok and chain == degenerate_square(strong_diff(g2, g1), ("d1", "d2"), ALG2)


# ---------------------------------------------------------------------------
# curvature suite


@_trials("prop-4.1")
def check_prop_4_1(model, rng, params):
    conn = _connection(model, rng, params)
    cube = _square(rng, model, params)
    value = curvature(conn, cube)  # edge and kernel checks run inside
    return all(c.is_zero() for c in value.direction)


@_trials("prop-4.2")
def check_prop_4_2(model, rng, params):
    conn = _connection(model, rng, params)
    problems = validate_form(curvature_form(conn), [_square(rng, model, params)])
    return problems == [], "; ".join(problems)


@_trials("prop-4.3")
def check_prop_4_3(model, rng, params):
    conn = _connection(model, rng, params)
    xs = sample_section(rng, model, params.degree, params.bound)
    ys = sample_section(rng, model, params.degree, params.bound)
    x = sample_point(rng, model, ALG2, params.bound)
    lifted = lift(conn, bisection_product(ys, xs, x, ("d1", "d2"), ALG2))
    product = bisection_product(
        LiftedSection(conn, ys), LiftedSection(conn, xs), x, ("d1", "d2"), ALG2
    )
    return lifted == product


@_trials("prop-4.5")
def check_prop_4_5(model, rng, params):
    conn = _connection(model, rng, params)
    cube = _square(rng, model, params)
    return curvature(conn, cube) == curvature_via_strong_diff(conn, cube)


@_trials("thm-4.4")
def check_thm_4_4(model, rng, params):
    conn = _connection(model, rng, params)
    xs = sample_section(rng, model, params.degree, params.bound)
    ys = sample_section(rng, model, params.degree, params.bound)
    x = sample_point(rng, model, ALG0, params.bound)
    lhs, rhs = structure_equation(conn, xs, ys, x, ALG0)
    return lhs == rhs


def nonzero_curvature_witnesses(only_model: str | None = None) -> list[TrialResult]:
    """The shipped nonflat witnesses, pinned to their exact values: the
    witness of each configuration's row in the connection table."""
    return [
        TrialResult("thm-4.4", witness[0](), witness[1])
        for name, (_, _, witness) in _CONNECTIONS.items()
        if witness is not None and only_model in (None, name)
    ]


# ---------------------------------------------------------------------------
# forms suite


@_trials("dnabla-form")
def check_dnabla_form(model, rng, params):
    conn = _connection(model, rng, params)
    images = [sample_lie_rows(rng, model, "L", params.bound) for _ in model.spec("G").lie_basis]
    coeffs = [
        sample_poly_matrix(rng, model, "L", params.degree, params.bound)
        for _ in range(model.base_dim)
    ]
    omega = one_form(model, images, coeffs)
    tangent = sample_microcube(rng, model, "G", ("d1",), ALG1, bound=params.bound)
    ok = validate_form(omega, [tangent]) == []
    derived = d_nabla(conn, omega)
    square = _square(rng, model, params)
    derived(square)  # structural asserts run inside
    problems = validate_form(derived, [square], scalars=(0, 1, -1, 2))
    return ok and problems == []


# ---------------------------------------------------------------------------
# bianchi suite


@_trials("face-curvature")
def check_face_curvature(model, rng, params):
    conn = _connection(model, rng, params)
    checks = face_curvature_checks(build_cube(conn, _cube(rng, model, params)))
    bad = [name for name, ok in checks if not ok]
    return not bad, ",".join(bad)


@_trials("bianchi-abstract")
def check_bianchi_abstract(model, rng, params):
    conn = _connection(model, rng, params)
    report = verify_abstract_bianchi(build_cube(conn, _cube(rng, model, params)))
    return report.symbolic_empty and report.numeric_identity


@_trials("bianchi-classical")
def check_bianchi_classical(model, rng, params):
    conn = _connection(model, rng, params)
    report = verify_classical_bianchi(conn, _cube(rng, model, params))
    bad = [name for name, ok in report.commutations if not ok]
    note = "" if report.derivative_zero else "derivative nonzero"
    if bad:
        note = (note + "; " if note else "") + "commutation " + ",".join(bad)
    return report.ok, note


@_trials("bianchi-mutation")
def check_bianchi_mutation(model, rng, params):
    """Corrupting one directed edge must break the numeric check only."""
    conn = _connection(model, rng, params)
    labeling = build_cube(conn, _cube(rng, model, params))
    bump = sample_lie_rows(rng, model, "H", params.bound)
    while bump.is_zero():
        bump = sample_lie_rows(rng, model, "H", params.bound)
    report = verify_abstract_bianchi(corrupt_edge(labeling, ("B", "D"), bump))
    ok = report.symbolic_empty and not report.numeric_identity
    return ok, "numeric check failed as designed (expected failure)"


# ---------------------------------------------------------------------------
# suite registry

SUITES: dict[str, tuple] = {
    "algebra": (check_weil_ring,),
    "tangent": (
        check_prop_1_1,
        check_prop_1_2,
        check_prop_1_3,
        check_thm_1_4,
        check_prop_1_5,
    ),
    "lift": (check_prop_3_1, check_cor_3_2, check_prop_3_3, check_thm_3_4),
    "curvature": (
        check_prop_4_1,
        check_prop_4_2,
        check_prop_4_3,
        check_prop_4_5,
        check_thm_4_4,
    ),
    "forms": (check_dnabla_form,),
    "bianchi": (check_face_curvature, check_bianchi_abstract, check_bianchi_classical),
}

SUITE_NAMES = tuple(SUITES) + ("all",)
