"""Acceptance criteria, one test per criterion.

Every check is exact (tolerance zero, rational arithmetic); each criterion
also carries its wall-clock budget.  Run with `pytest -s` to see the
per-criterion PASS lines as they complete.
"""

import random
import time

from nilgeo.cli import parse_config, run_suite
from nilgeo.models import all_models, build_model
from nilgeo.suites import (
    SuiteParams,
    check_bianchi_abstract,
    check_bianchi_classical,
    check_bianchi_mutation,
    check_cor_3_2,
    check_prop_1_1,
    check_prop_1_5,
    check_prop_3_1,
    check_prop_3_3,
    check_prop_4_1,
    check_prop_4_2,
    check_prop_4_5,
    check_thm_1_4,
    check_thm_3_4,
    check_thm_4_4,
    check_weil_ring,
    nonzero_curvature_witnesses,
)

PARAMS = SuiteParams()
MODELS = all_models()


def _run(check, model, seed, trials, params=PARAMS):
    rng = random.Random(f"acceptance:{seed}:{model.name if model else ''}")
    return check(model, rng, trials, params)


def _report(number, label, results, started, budget):
    elapsed = time.perf_counter() - started
    bad = [r for r in results if not r.ok]
    status = "PASS" if not bad and elapsed < budget else "FAIL"
    print(f"criterion {number:02d} {status} ({elapsed:.2f}s < {budget}s) {label}")
    assert not bad, f"criterion {number}: {len(bad)} failing trials: {bad[:3]}"
    assert elapsed < budget, f"criterion {number}: {elapsed:.2f}s over budget {budget}s"


def test_c01_weil_ring_laws():
    started = time.perf_counter()
    results = _run(check_weil_ring, None, 1, 1000)
    _report(1, "ring laws and inverses, 1000 triples per generator count", results, started, 2)


def test_c02_tangent_group_law():
    started = time.perf_counter()
    results = []
    for model in MODELS:
        results += _run(check_prop_1_1, model, 2, 200)
    _report(2, "split-parameter product and inverse laws, 200 per model", results, started, 2)


def test_c03_lie_algebra_structure():
    started = time.perf_counter()
    results = []
    for model in (build_model("heisenberg"), build_model("trivial_gauge", "gl2")):
        results += _run(check_thm_1_4, model, 3, 100)
    _report(3, "bracket antisymmetry, bilinearity and Jacobi, 100 triples", results, started, 5)


def test_c04_strong_difference_cocycle():
    started = time.perf_counter()
    results = []
    for model in MODELS:
        results += _run(check_prop_1_5, model, 4, 100)
    _report(4, "three-term strong-difference cocycle, 100 triples per model", results, started, 5)


def test_c05_lift_compatibilities():
    started = time.perf_counter()
    results = []
    for model in MODELS:
        results += _run(check_prop_3_1, model, 5, 25)
        results += _run(check_cor_3_2, model, 5, 25)
        results += _run(check_prop_3_3, model, 5, 25)
        results += _run(check_thm_3_4, model, 5, 25)
    _report(5, "lift linearity, degenerate-square and strong-difference compatibility, 100 instances per model", results, started, 5)


def test_c06_curvature_well_defined():
    started = time.perf_counter()
    results = []
    for model in MODELS:
        results += _run(check_prop_4_1, model, 6, 200)
    _report(6, "curvature word has identity edges and kernel residue, 200 per model", results, started, 5)


def test_c07_curvature_is_a_form():
    started = time.perf_counter()
    results = []
    for model in MODELS:
        results += _run(check_prop_4_2, model, 7, 20)
    _report(7, "curvature passes two-form validation (homogeneity and alternation)", results, started, 5)


def test_c08_structure_equation_and_witnesses():
    started = time.perf_counter()
    results = []
    for model in MODELS:
        results += _run(check_prop_4_5, model, 8, 100)
        results += _run(check_thm_4_4, model, 8, 100)
    results += nonzero_curvature_witnesses()
    _report(8, "both curvature routes agree; structure equation, 100 pairs per model; nonzero witnesses", results, started, 10)


def test_c09_abstract_bianchi():
    from nilgeo.bianchi import abstract_word, reduce_word

    started = time.perf_counter()
    assert reduce_word(abstract_word()) == ()  # model-independent, single check
    results = []
    for model in MODELS:
        results += _run(check_bianchi_abstract, model, 9, 100)
    rng = random.Random("acceptance:9:mutation")
    results += check_bianchi_mutation(build_model("heisenberg"), rng, 1, PARAMS)
    _report(9, "cube word reduces symbolically and numerically, 100 per model; mutation detected", results, started, 10)


def test_c10_classical_bianchi():
    started = time.perf_counter()
    results = []
    for model in (
        build_model("heisenberg"),
        build_model("direct_product"),
        build_model("trivial_gauge", "gl2"),
    ):
        results += _run(check_bianchi_classical, model, 10, 100)
    _report(10, "derived curvature form vanishes with its commutation facts, 100 cubes per model", results, started, 30)


def test_c11_cli_contract():
    started = time.perf_counter()
    text = "model = heisenberg\nseed = 11\ntrials = 1\nmutation = true\n"
    cfg = parse_config(text)
    first = run_suite(cfg)
    second = run_suite(cfg)
    ok = first == second and first[0] == 0
    report = "\n".join(first[1])
    for ident in (
        "1.1", "1.2", "1.3", "1.4", "1.5",
        "3.1", "3.2", "3.3", "3.4",
        "4.1", "4.2", "4.3", "4.4", "4.5",
        "dnabla-form", "bianchi-abstract", "bianchi-classical", "face-curvature",
    ):
        ok = ok and ident in report
    try:
        parse_config("model = unknown\nseed = 1\n")
        ok = False
    except Exception:
        pass
    elapsed = time.perf_counter() - started
    print(f"criterion 11 {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) CLI determinism, coverage and exit codes")
    assert ok
