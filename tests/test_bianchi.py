import random

import pytest

from nilgeo import bianchi, forms
from nilgeo.bianchi import (
    FACES,
    ClassicalReport,
    WordError,
    abstract_word,
    build_cube,
    corrupt_edge,
    face_curvature_checks,
    face_loop,
    face_words,
    reduce_word,
    verify_abstract_bianchi,
    verify_classical_bianchi,
)
from nilgeo.connection import curvature
from nilgeo.forms import curvature_form, d_nabla
from nilgeo.microcalc import arrow_drop, include_tangent, slice_cube
from nilgeo.models import build_model, all_models, compose, compose_all, invert
from nilgeo.sampling import (
    preset_connection,
    preset_names,
    sample_connection,
    sample_lie_rows,
    sample_microcube,
)
from nilgeo.weil import algebra

ALG3 = algebra(["d1", "d2", "d3"])
HEIS = build_model("heisenberg")
FLAT = build_model("direct_product")


def random_setup(rng, model, degree=2):
    conn = sample_connection(rng, model, degree=degree)
    cube = sample_microcube(rng, model, "G", ("d1", "d2", "d3"), ALG3)
    return conn, cube


# -- word reduction -------------------------------------------------------------


def test_reduce_simple_cancellation():
    assert reduce_word([("O", "A"), ("A", "O")]) == ()


def test_reduce_is_idempotent_on_reduced_words():
    word = (("O", "A"), ("A", "D"), ("D", "G"))
    assert reduce_word(word) == word
    assert reduce_word(reduce_word(word)) == word


def test_full_abstract_word_reduces_to_nothing():
    assert reduce_word(abstract_word()) == ()


def test_reduction_is_confluent():
    rng = random.Random(50)
    letters = [("O", "A"), ("A", "O"), ("A", "D"), ("D", "A"), ("O", "B"), ("B", "O")]
    for _ in range(200):
        word = [rng.choice(letters) for _ in range(rng.randint(0, 12))]
        forward = reduce_word(word)
        backward = tuple(
            (b, a) for a, b in reversed(reduce_word([(b, a) for a, b in reversed(word)]))
        )
        assert forward == backward


# -- cube construction ------------------------------------------------------------


def test_flat_model_has_identity_face_loops():
    rng = random.Random(51)
    conn, cube = random_setup(rng, FLAT)
    labeling = build_cube(conn, cube)
    for face in FACES:
        loop = face_loop(labeling, face)
        assert loop.body.is_identity()
        assert loop.source == loop.target


def test_heisenberg_standard_connection_has_a_curved_face():
    rng = random.Random(52)
    conn = preset_connection(HEIS)
    found = False
    for _ in range(10):
        cube = sample_microcube(rng, HEIS, "G", ("d1", "d2", "d3"), ALG3)
        labeling = build_cube(conn, cube)
        if any(not face_loop(labeling, f).body.is_identity() for f in FACES):
            found = True
            break
    assert found


def test_dropping_the_third_generator_collapses_top_onto_bottom():
    rng = random.Random(53)
    for model in (HEIS, build_model("trivial_gauge", "gl2")):
        conn, cube = random_setup(rng, model)
        labeling = build_cube(conn, cube)
        collapse = {"C": "O", "E": "A", "F": "B", "G": "D"}
        for (top_a, top_b), (bot_a, bot_b) in (
            (("C", "E"), ("O", "A")),
            (("C", "F"), ("O", "B")),
            (("E", "G"), ("A", "D")),
            (("F", "G"), ("B", "D")),
        ):
            assert collapse[top_a] == bot_a and collapse[top_b] == bot_b
            dropped = arrow_drop(labeling.edge_arrow(top_a, top_b), ("d3",))
            assert dropped == labeling.edge_arrow(bot_a, bot_b)


def test_edge_vanishes_when_its_own_generator_is_dropped():
    rng = random.Random(54)
    for model in all_models():
        conn, cube = random_setup(rng, model)
        labeling = build_cube(conn, cube)
        gen_of = {
            ("O", "A"): "d1", ("O", "B"): "d2", ("O", "C"): "d3",
            ("A", "D"): "d2", ("A", "E"): "d3", ("B", "D"): "d1",
            ("B", "F"): "d3", ("C", "E"): "d1", ("C", "F"): "d2",
            ("D", "G"): "d3", ("E", "G"): "d2", ("F", "G"): "d1",
        }
        for pair, g in gen_of.items():
            dropped = arrow_drop(labeling.edge_arrow(*pair), (g,))
            assert dropped.body.is_identity()
            assert dropped.source == dropped.target == labeling.points[pair[0]]


def test_face_loop_rejects_non_faces():
    rng = random.Random(55)
    conn, cube = random_setup(rng, HEIS)
    labeling = build_cube(conn, cube)
    with pytest.raises(WordError):
        face_loop(labeling, ("O", "A", "G", "B"))


@pytest.mark.parametrize("cycle", [("O", "A", "D"), ("O", "A", "D", "B", "O"), ()])
def test_face_walks_reject_a_cycle_of_the_wrong_length(cycle):
    rng = random.Random(57)
    conn, cube = random_setup(rng, HEIS)
    labeling = build_cube(conn, cube)
    with pytest.raises(WordError, match="four-vertex"):
        face_loop(labeling, cycle)
    with pytest.raises(WordError, match="four-vertex"):
        face_words(cycle)


def test_face_loop_reversal_is_the_inverse():
    rng = random.Random(56)
    for model in (HEIS, build_model("trivial_gauge", "sl2")):
        conn, cube = random_setup(rng, model)
        labeling = build_cube(conn, cube)
        forward = face_loop(labeling, ("O", "A", "D", "B"))
        backward = face_loop(labeling, ("O", "B", "D", "A"))
        assert backward == invert(forward)


# -- face curvature -----------------------------------------------------------------


def test_face_curvature_identities_random_models():
    rng = random.Random(57)
    for model in all_models():
        for _ in range(5):
            conn, cube = random_setup(rng, model)
            labeling = build_cube(conn, cube)
            for name, ok in face_curvature_checks(labeling):
                assert ok, f"{model.name}: face {name}"


def test_far_face_conjugation_identities():
    # walking out to a far face, looping it, and walking back equals the
    # matching slice curvature transported along the first edge
    rng = random.Random(63)
    from nilgeo.connection import curvature
    from nilgeo.microcalc import include_tangent, slice_cube
    from nilgeo.models import compose_all

    for model in (HEIS, build_model("trivial_gauge", "gl2")):
        conn, cube = random_setup(rng, model)
        labeling = build_cube(conn, cube)
        d1, d2, d3 = cube.args
        alg = cube.algebra
        cases = (
            (("G", "D", "A", "E"), ("O", "A"), 1, d1, (d2, d3), 1),
            (("G", "F", "B", "D"), ("O", "B"), 2, d2, (d1, d3), -1),
            (("G", "E", "C", "F"), ("O", "C"), 3, d3, (d1, d2), 1),
        )
        for face, first_edge, axis, kept, mono, sign in cases:
            loop = face_loop(labeling, face)
            out_and_back = compose_all(
                labeling.edge_arrow("A", "O"),
                labeling.edge_arrow("D", "A"),
                labeling.edge_arrow("G", "D"),
                loop,
                labeling.edge_arrow("D", "G"),
                labeling.edge_arrow("A", "D"),
                labeling.edge_arrow("O", "A"),
            )
            omega = curvature(conn, slice_cube(cube, axis, kept))
            value = include_tangent(omega).arrow_at(alg.term(sign, mono))
            edge = labeling.edge_arrow(*first_edge)
            transported = compose_all(
                invert(edge), value, edge
            )
            assert out_and_back == transported, f"{model.name}: face {face}"


# -- abstract identity -----------------------------------------------------------------


def test_abstract_bianchi_on_every_model():
    rng = random.Random(58)
    for model in all_models():
        for _ in range(3):
            conn, cube = random_setup(rng, model)
            report = verify_abstract_bianchi(build_cube(conn, cube))
            assert report.symbolic_empty
            assert report.numeric_identity


def test_mutation_breaks_numerics_but_not_symbols():
    rng = random.Random(59)
    conn, cube = random_setup(rng, HEIS)
    labeling = build_cube(conn, cube)
    bump = sample_lie_rows(rng, HEIS, "H")
    while bump.is_zero():
        bump = sample_lie_rows(rng, HEIS, "H")
    broken = corrupt_edge(labeling, ("B", "D"), bump)
    report = verify_abstract_bianchi(broken)
    assert report.symbolic_empty  # letters still cancel on paper
    assert not report.numeric_identity  # the matrices notice


# -- classical identity ----------------------------------------------------------------


def test_classical_bianchi_flat_model():
    rng = random.Random(60)
    conn, cube = random_setup(rng, FLAT)
    report = verify_classical_bianchi(conn, cube)
    assert report.ok


def test_classical_bianchi_heisenberg_random():
    rng = random.Random(61)
    for _ in range(5):
        conn, cube = random_setup(rng, HEIS)
        report = verify_classical_bianchi(conn, cube)
        assert report.derivative_zero
        assert all(ok for _, ok in report.commutations)


def test_classical_bianchi_gauge_quadratic_connection():
    rng = random.Random(62)
    for structure in ("scalar", "gl2", "sl2"):
        model = build_model("trivial_gauge", structure)
        conn, cube = random_setup(rng, model, degree=2)
        report = verify_classical_bianchi(conn, cube)
        assert report.ok, f"{model.name}"


def _unshared_classical_report(conn, cube):
    """The classical report with nothing shared: the derivative of the plain
    curvature form, and each face curvature evaluated where it is used."""
    derivative_zero = d_nabla(conn, curvature_form(conn))(cube).is_zero()
    labeling = build_cube(conn, cube)
    alg = cube.algebra
    d1, d2, d3 = cube.args

    def face(axis, e, sign, mono):
        omega = curvature(conn, slice_cube(cube, axis, e))
        return include_tangent(omega).arrow_at(alg.term(sign, mono))

    def conj(g, loop):
        return compose_all(invert(g), loop, g)

    def commute(a, b):
        return compose(a, b) == compose(b, a)

    named = {
        "w1": face(1, 0, -1, (d2, d3)),
        "c1": conj(labeling.edge_arrow("O", "A"), face(1, d1, 1, (d2, d3))),
        "w2": face(2, 0, 1, (d1, d3)),
        "c2": conj(labeling.edge_arrow("O", "B"), face(2, d2, -1, (d1, d3))),
        "w3": face(3, 0, -1, (d1, d2)),
        "c3": conj(labeling.edge_arrow("O", "C"), face(3, d3, 1, (d1, d2))),
    }
    keys = list(named)
    commutations = [
        (f"{a}~{b}", commute(named[a], named[b]))
        for i, a in enumerate(keys)
        for b in keys[i + 1 :]
    ]
    inner = conj(invert(labeling.edge_arrow("A", "E")), face(1, d1, -1, (d2, d3)))
    nested = conj(labeling.edge_arrow("C", "E"), inner)
    commutations.append(("nested~far", commute(nested, face(3, d3, 1, (d1, d2)))))
    return ClassicalReport(derivative_zero, tuple(commutations))


def test_classical_bianchi_operation_counts(monkeypatch):
    counts = {"curvature": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # the report reads its faces through `forms.curvature_form`
    for module in (bianchi, forms):
        monkeypatch.setattr(module, "curvature", counted("curvature", curvature))
    rng = random.Random(63)
    for model in (HEIS, build_model("trivial_gauge", "gl2")):
        for _ in range(2):
            draw = rng.getstate()
            conn, cube = random_setup(rng, model)
            counts.update(curvature=0)
            report = verify_classical_bianchi(conn, cube)
            assert counts == {"curvature": 6}, model.name
            # the oracle gets a connection and cube of its own from the same
            # draw, so it lifts every edge itself instead of reading the memo
            fresh = random.Random()
            fresh.setstate(draw)
            conn, cube = random_setup(fresh, model)
            calls = _counted_applies(conn)
            assert report == _unshared_classical_report(conn, cube), model.name
            assert calls, model.name


# -- one lift per distinct edge ----------------------------------------------------------


def _preset(model):
    return preset_connection(model, preset_names(model)[0])


def _counted_applies(conn):
    calls = []
    original = conn.apply

    def counted(td):
        calls.append(None)
        return original(td)

    conn.apply = counted
    return calls


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_each_distinct_edge_is_lifted_once_per_connection(model):
    rng = random.Random(64)
    cube = sample_microcube(rng, model, "G", ("d1", "d2", "d3"), ALG3)
    square = sample_microcube(rng, model, "G", ("d1", "d2"), algebra(["d1", "d2"]))
    conn = _preset(model)
    calls = _counted_applies(conn)
    report = verify_classical_bianchi(conn, cube)
    assert 0 < len(calls) <= 12  # a cube has twelve edges
    seen = len(calls)
    labeling = build_cube(conn, cube)
    assert len(calls) == seen
    omega = curvature(conn, square)
    assert 0 < len(calls) - seen <= 4
    seen = len(calls)
    assert curvature(conn, square) == omega
    assert len(calls) == seen
    # the memo hands back what a connection that has seen nothing computes
    assert report == verify_classical_bianchi(_preset(model), cube)
    assert labeling.edges == build_cube(_preset(model), cube).edges
    assert omega == curvature(_preset(model), square)
