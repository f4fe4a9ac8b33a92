"""Property suites: every verified identity as a seeded, repeatable check.

Each check function takes a model, a `random.Random`, a trial count and the
run parameters, and returns one `TrialResult` per trial.  The CLI prints
them in the line protocol; the acceptance tests call them directly.
"""

from __future__ import annotations

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
    CurvatureError,
    LiftedSection,
    curvature,
    curvature_via_strong_diff,
    lift,
    structure_equation,
)
from .forms import (
    FormError,
    curvature_form,
    d_nabla,
    gauge_one_form,
    splitting_one_form,
    validate_form,
)
from .matrices import Matrix
from .microcalc import (
    ConstantSection,
    TangentData,
    bisection_at,
    bisection_product,
    bracket,
    bracket_sections,
    degenerate_square,
    diff1,
    diff2,
    make_microcube,
    scale_arg,
    strong_diff,
    tau,
)
from .models import Arrow, build_model, compose, invert
from .sampling import (
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


def _connection(model, rng, params: SuiteParams):
    if params.connection.startswith("preset:"):
        return preset_connection(model, params.connection.split(":", 1)[1])
    return sample_connection(rng, model, bound=params.bound, degree=params.degree)


ALG1 = algebra(["d1"])
ALG2 = algebra(["d1", "d2"])
ALG3 = algebra(["d1", "d2", "d3"])
PAIRED = algebra(["d1", "d2"], killed=[("d1", "d2")])


# ---------------------------------------------------------------------------
# algebra suite


def check_weil_ring(model, rng, trials, params) -> list[TrialResult]:
    out = []
    algebras = [algebra([f"d{i}" for i in range(1, n + 1)]) for n in (1, 2, 3, 4)]
    for t in range(trials):
        ok = True
        for alg in algebras:
            a = sample_weil(rng, alg, params.bound)
            b = sample_weil(rng, alg, params.bound)
            c = sample_weil(rng, alg, params.bound)
            if (a * b) * c != a * (b * c) or a * b != b * a:
                ok = False
            if a * (b + c) != a * b + a * c:
                ok = False
            if a.constant_term() == 0:
                a = a + 1
            inv = a.invert()
            if a * inv != alg.one or inv * a != alg.one:
                ok = False
        out.append(TrialResult("weil-ring", ok))
    return out


# ---------------------------------------------------------------------------
# tangent suite


def check_prop_1_1(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        sec = sample_section(rng, model, "G", params.degree, params.bound)
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
        out.append(TrialResult("prop-1.1", ok))
    return out


def check_prop_1_2(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        xs = sample_section(rng, model, "G", params.degree, params.bound)
        ys = sample_section(rng, model, "G", params.degree, params.bound)
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
        ok = ok and compose(c2, c1) == compose(e2, e1)
        out.append(TrialResult("prop-1.2", ok))
    return out


def check_prop_1_3(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        xs = sample_section(rng, model, "G", params.degree, params.bound)
        ys = sample_section(rng, model, "G", params.degree, params.bound)
        x = sample_point(rng, model, algebra([]), params.bound)
        alg = algebra([])
        try:
            s = bracket_sections(xs, ys, x, alg)
        except Exception as exc:  # extraction asserts are part of the claim
            out.append(TrialResult("prop-1.3", False, str(exc)))
            continue
        # the bracket is the unique tangent matching the word at products
        ext = algebra(["u", "v"])
        xe = tuple(c.convert(ext) for c in x)
        gu, gv = ext.gen("u"), ext.gen("v")
        a1 = bisection_at(xs, gu, xe)
        a2 = bisection_at(ys, gv, a1.target)
        a3 = bisection_at(xs, -gu, a2.target)
        a4 = bisection_at(ys, -gv, a3.target)
        word = compose(a4, compose(a3, compose(a2, a1)))
        ok = s.convert(ext).arrow_at(gu * gv) == word
        out.append(TrialResult("prop-1.3", ok))
    return out


def _group_tangent(rng, model, x, alg, bound):
    zeros = tuple(alg.zero for _ in range(model.base_dim))
    return TangentData(model, "H", x, zeros, sample_vert(rng, model, "H", alg, bound))


def check_thm_1_4(model, rng, trials, params) -> list[TrialResult]:
    scalars = (-2, -1, 0, Fraction(1, 2), 1, 3)
    alg = algebra([])
    out = []
    for t in range(trials):
        x = sample_point(rng, model, alg, params.bound)
        t1 = _group_tangent(rng, model, x, alg, params.bound)
        t2 = _group_tangent(rng, model, x, alg, params.bound)
        t3 = _group_tangent(rng, model, x, alg, params.bound)
        ok = bracket(t1, t2).same_as(-bracket(t2, t1))
        ok = ok and bracket(t1, t1).is_zero()
        t13, t23 = bracket(t1, t3), bracket(t2, t3)
        t31, t32 = bracket(t3, t1), bracket(t3, t2)
        for a in scalars:
            lhs = bracket(t1.scale(a) + t2, t3)
            ok = ok and lhs.same_as(t13.scale(a) + t23)
            lhs2 = bracket(t3, t1.scale(a) + t2)
            ok = ok and lhs2.same_as(t31.scale(a) + t32)
        jac = (
            bracket(t1, bracket(t2, t3))
            + bracket(t2, bracket(t3, t1))
            + bracket(t3, bracket(t1, t2))
        )
        ok = ok and jac.is_zero()
        out.append(TrialResult("thm-1.4", ok))
    return out


def check_prop_1_5(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        g1 = sample_microcube(rng, model, "G", ("d1", "d2"), ALG2, bound=params.bound)
        g2 = perturbed_square(rng, g1, params.bound)
        g3 = perturbed_square(rng, g1, params.bound)
        total = strong_diff(g2, g1) + strong_diff(g3, g2) + strong_diff(g1, g3)
        out.append(TrialResult("prop-1.5", total.is_zero()))
    return out


# ---------------------------------------------------------------------------
# lift suite


def check_prop_3_1(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        conn = _connection(model, rng, params)
        cube = sample_microcube(rng, model, "G", ("d1", "d2"), ALG2, bound=params.bound)
        lifted = lift(conn, cube)
        ok = True
        for i in (1, 2):
            for a in (0, 1, -1, 2, Fraction(1, 2)):
                if lift(conn, scale_arg(cube, i, a)) != scale_arg(lifted, i, a):
                    ok = False
        out.append(TrialResult("prop-3.1", ok))
    return out


def check_cor_3_2(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        conn = _connection(model, rng, params)
        g1 = sample_microcube(rng, model, "G", ("d1", "d2"), ALG2, bound=params.bound)
        g2 = perturbed_square(rng, g1, params.bound)
        ok = lift(conn, diff1(g2, g1)) == diff1(lift(conn, g2), lift(conn, g1))
        ok = ok and lift(conn, diff2(g2, g1)) == diff2(lift(conn, g2), lift(conn, g1))
        out.append(TrialResult("cor-3.2", ok))
    return out


def check_prop_3_3(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        conn = _connection(model, rng, params)
        x = sample_point(rng, model, ALG2, params.bound)
        direction = tuple(
            ALG2.scalar(sample_rational(rng, params.bound))
            for _ in range(model.base_dim)
        )
        td = TangentData(
            model, "G", x, direction, sample_vert(rng, model, "G", ALG2, params.bound)
        )
        lhs = lift(conn, degenerate_square(td, ("d1", "d2"), ALG2))
        rhs = degenerate_square(conn.apply(td), ("d1", "d2"), ALG2)
        out.append(TrialResult("prop-3.3", lhs == rhs))
    return out


def check_thm_3_4(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        conn = _connection(model, rng, params)
        g1 = sample_microcube(rng, model, "G", ("d1", "d2"), ALG2, bound=params.bound)
        g2 = perturbed_square(rng, g1, params.bound)
        lhs = conn.apply(strong_diff(g2, g1))
        rhs = strong_diff(lift(conn, g2), lift(conn, g1))
        ok = lhs.same_as(rhs)
        # the two-step difference chain reproduces the degenerate square
        chain = diff2(diff1(g2, g1), tau(g1, 2))
        ok = ok and chain == degenerate_square(strong_diff(g2, g1), ("d1", "d2"), ALG2)
        out.append(TrialResult("thm-3.4", ok))
    return out


# ---------------------------------------------------------------------------
# curvature suite


def check_prop_4_1(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        conn = _connection(model, rng, params)
        cube = sample_microcube(rng, model, "G", ("d1", "d2"), ALG2, bound=params.bound)
        try:
            value = curvature(conn, cube)  # edge and kernel checks run inside
            ok = all(c.is_zero() for c in value.direction)
        except CurvatureError as exc:
            out.append(TrialResult("prop-4.1", False, str(exc)))
            continue
        out.append(TrialResult("prop-4.1", ok))
    return out


def check_prop_4_2(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        conn = _connection(model, rng, params)
        cube = sample_microcube(rng, model, "G", ("d1", "d2"), ALG2, bound=params.bound)
        problems = validate_form(curvature_form(conn), [cube])
        out.append(TrialResult("prop-4.2", problems == [], "; ".join(problems)))
    return out


def check_prop_4_3(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        conn = _connection(model, rng, params)
        xs = sample_section(rng, model, "G", params.degree, params.bound)
        ys = sample_section(rng, model, "G", params.degree, params.bound)
        x = sample_point(rng, model, ALG2, params.bound)
        square = bisection_product(ys, xs, x, ("d1", "d2"), ALG2)
        lifted = lift(conn, square)
        product = bisection_product(
            LiftedSection(conn, ys), LiftedSection(conn, xs), x, ("d1", "d2"), ALG2
        )
        out.append(TrialResult("prop-4.3", lifted == product))
    return out


def check_prop_4_5(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        conn = _connection(model, rng, params)
        cube = sample_microcube(rng, model, "G", ("d1", "d2"), ALG2, bound=params.bound)
        a = curvature(conn, cube)
        b = curvature_via_strong_diff(conn, cube)
        out.append(TrialResult("prop-4.5", a.same_as(b)))
    return out


def check_thm_4_4(model, rng, trials, params) -> list[TrialResult]:
    alg = algebra([])
    out = []
    for t in range(trials):
        conn = _connection(model, rng, params)
        xs = sample_section(rng, model, "G", params.degree, params.bound)
        ys = sample_section(rng, model, "G", params.degree, params.bound)
        x = sample_point(rng, model, alg, params.bound)
        lhs, rhs = structure_equation(conn, xs, ys, x, alg)
        out.append(TrialResult("thm-4.4", lhs.same_as(rhs)))
    return out


def nonzero_curvature_witnesses(only_model: str | None = None) -> list[TrialResult]:
    """The shipped nonflat witnesses, pinned to their exact values."""
    out = []
    if only_model in (None, "heisenberg"):
        heis = build_model("heisenberg")
        conn = preset_connection(heis)
        xs = ConstantSection(heis, "G", [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        ys = ConstantSection(heis, "G", [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        square = bisection_product(ys, xs, (), ("d1", "d2"), ALG2)
        omega = curvature(conn, square)
        want = Matrix.from_rational([[0, 0, 1], [0, 0, 0], [0, 0, 0]], ALG2)
        out.append(TrialResult("thm-4.4", omega.vert == want, "heisenberg witness"))

    if only_model in (None, "trivial_gauge[scalar]"):
        gauge = build_model("trivial_gauge", "scalar")
        gconn = preset_connection(gauge, "x1dx2")
        x = (ALG2.scalar(Fraction(1, 2)), ALG2.scalar(-3))
        target = (x[0] + ALG2.gen("d1"), x[1] + ALG2.gen("d2"))
        square2 = make_microcube(
            Arrow(gauge, "G", x, target, Matrix.identity(1, ALG2)), ("d1", "d2")
        )
        omega2 = curvature(gconn, square2)
        out.append(
            TrialResult(
                "thm-4.4",
                omega2.vert == Matrix.from_rational([[1]], ALG2),
                "abelian gauge witness",
            )
        )
    return out


# ---------------------------------------------------------------------------
# forms suite


def check_dnabla_form(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        conn = _connection(model, rng, params)
        if model.base_dim == 0:
            images = [
                sample_lie_rows(rng, model, "L", params.bound)
                for _ in model.lie_basis("G")
            ]
            omega = splitting_one_form(model, images)
        else:
            coeffs = [
                sample_poly_matrix(rng, model, "L", params.degree, params.bound)
                for _ in range(model.base_dim)
            ]
            omega = gauge_one_form(model, coeffs)
        tangent_samples = [
            sample_microcube(rng, model, "G", ("d1",), ALG1, bound=params.bound)
        ]
        ok = validate_form(omega, tangent_samples) == []
        derived = d_nabla(conn, omega)
        square = sample_microcube(rng, model, "G", ("d1", "d2"), ALG2, bound=params.bound)
        try:
            derived(square)  # structural asserts run inside
            problems = validate_form(derived, [square], scalars=(0, 1, -1, 2))
            ok = ok and problems == []
        except FormError as exc:
            out.append(TrialResult("dnabla-form", False, str(exc)))
            continue
        out.append(TrialResult("dnabla-form", ok))
    return out


# ---------------------------------------------------------------------------
# bianchi suite


def check_face_curvature(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        conn = _connection(model, rng, params)
        cube = sample_microcube(
            rng, model, "G", ("d1", "d2", "d3"), ALG3, bound=params.bound
        )
        checks = face_curvature_checks(build_cube(conn, cube))
        bad = [name for name, ok in checks if not ok]
        out.append(TrialResult("face-curvature", not bad, ",".join(bad)))
    return out


def check_bianchi_abstract(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        conn = _connection(model, rng, params)
        cube = sample_microcube(
            rng, model, "G", ("d1", "d2", "d3"), ALG3, bound=params.bound
        )
        report = verify_abstract_bianchi(build_cube(conn, cube))
        out.append(
            TrialResult(
                "bianchi-abstract", report.symbolic_empty and report.numeric_identity
            )
        )
    return out


def check_bianchi_classical(model, rng, trials, params) -> list[TrialResult]:
    out = []
    for t in range(trials):
        conn = _connection(model, rng, params)
        cube = sample_microcube(
            rng, model, "G", ("d1", "d2", "d3"), ALG3, bound=params.bound
        )
        report = verify_classical_bianchi(conn, cube)
        bad = [name for name, ok in report.commutations if not ok]
        note = "" if report.derivative_zero else "derivative nonzero"
        if bad:
            note = (note + "; " if note else "") + "commutation " + ",".join(bad)
        out.append(TrialResult("bianchi-classical", report.ok, note))
    return out


def check_bianchi_mutation(model, rng, params) -> TrialResult:
    """Corrupting one directed edge must break the numeric check only."""
    conn = _connection(model, rng, params)
    cube = sample_microcube(rng, model, "G", ("d1", "d2", "d3"), ALG3, bound=params.bound)
    labeling = build_cube(conn, cube)
    bump = sample_lie_rows(rng, model, "H", params.bound)
    while all(v == 0 for row in bump for v in row):
        bump = sample_lie_rows(rng, model, "H", params.bound)
    broken = corrupt_edge(labeling, ("B", "D"), bump)
    report = verify_abstract_bianchi(broken)
    ok = report.symbolic_empty and not report.numeric_identity
    return TrialResult(
        "bianchi-mutation", ok, "numeric check failed as designed (expected failure)"
    )


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
