"""The one trial loop of `suites`: a trial that raises becomes one `not ok`
line with the error as its note, and every other trial and check still
reports."""

import hashlib
import random

import pytest
from oracles import poly_rows

from nilgeo import microcalc, suites
from nilgeo.cli import RunConfig, parse_config, run_suite
from nilgeo.connection import GaugeConnection, SplittingConnection
from nilgeo.microcalc import ConstantSection, Microcube, PolySection
from nilgeo.models import all_models
from nilgeo.polynomials import Poly, PolyMatrix
from nilgeo.sampling import preset_names

FAULT = "planted on the second call"


def _raise_on_second_call(original):
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError(FAULT)
        return original(*args, **kwargs)

    return patched


@pytest.mark.parametrize(
    "name, suite, prop_id",
    [
        ("bracket_sections", "tangent", "prop-1.3"),
        ("curvature", "curvature", "prop-4.1"),
        ("d_nabla", "forms", "dnabla-form"),
    ],
)
def test_a_raising_trial_fails_alone(monkeypatch, name, suite, prop_id):
    cfg = parse_config(f"model = heisenberg\nseed = 3\ntrials = 3\nsuite = {suite}\n")
    clean_status, clean = run_suite(cfg)
    monkeypatch.setattr(suites, name, _raise_on_second_call(getattr(suites, name)))
    status, lines = run_suite(cfg)

    assert clean_status == 0 and status == 1
    assert len(lines) == len(clean)
    changed = [k for k, (a, b) in enumerate(zip(clean, lines)) if a != b]
    assert len(changed) == 2 and changed[-1] == len(lines) - 1
    k = changed[0]
    assert clean[k] == f"ok {k} - {prop_id} model=heisenberg seed=3 trial=1"
    assert lines[k] == f"not ok {k} - {prop_id} model=heisenberg seed=3 trial=1" + (
        f" # error: RuntimeError: {FAULT}"
    )
    total = len(lines) - 2
    assert lines[-1] == f"# pass={total - 1} fail=1 total={total}"


def test_every_check_keeps_its_name():
    # run_suite seeds each check's generator with its name; the report
    # bytes alone would not show a renamed check while every trial passes
    checks = [check for group in suites.SUITES.values() for check in group]
    names = [check.__name__ for check in checks + [suites.check_bianchi_mutation]]
    assert len(set(names)) == len(names)
    for name in names:
        assert name.startswith("check_")
        assert getattr(suites, name).__name__ == name


# SHA-256, over the five configurations at seed 1, of every value the
# samplers named in `suites` return (as canonical text) and of each check's
# generator's next draw after the check.  A passing report line shows none
# of the sampled data, so this is what pins the checks' seeds and draw order.
SAMPLED_DRAWS_DIGEST = "211461819ad8019660a70afa46d307fd92571ce5591a58c47097bf354e42260e"

SAMPLERS = (
    "perturbed_square",
    "preset_connection",
    "sample_connection",
    "sample_lie_rows",
    "sample_microcube",
    "sample_point",
    "sample_poly_matrix",
    "sample_rational",
    "sample_section",
    "sample_vert",
    "sample_weil",
)


def _canonical(value) -> str:
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_canonical(v) for v in value) + ")"
    if isinstance(value, Poly):
        return repr(sorted(value.terms.items()))
    if isinstance(value, PolyMatrix):
        return _canonical(poly_rows(value))
    if isinstance(value, Microcube):
        a = value.arrow
        return f"cube{value.args}[{_canonical(a.source)} -> {_canonical(a.target)}: {a.body}]"
    if isinstance(value, SplittingConnection):
        return f"splitting{_canonical(tuple(img.constant_matrix() for img in value.images))}"
    if isinstance(value, GaugeConnection):
        return f"gauge{_canonical(value.coeffs)}"
    if isinstance(value, ConstantSection):
        return f"constant{_canonical(value.vert.constant_matrix())}"
    if isinstance(value, PolySection):
        return f"poly{_canonical(value.velocity)}/None"
    return str(value)


def test_sampled_draws_are_pinned(monkeypatch):
    seen: list[str] = []

    def recording(name, sampler):
        def record(*args, **kwargs):
            value = sampler(*args, **kwargs)
            # a Lie value is pinned as the rows it was drawn as
            rows = value.constant_matrix() if name == "sample_lie_rows" else value
            seen.append(f"{name}: {_canonical(rows)}")
            return value

        return record

    for name in SAMPLERS:
        monkeypatch.setattr(suites, name, recording(name, getattr(suites, name)))
    params = suites.SuiteParams()
    for model in all_models():
        checks = [check for group in suites.SUITES.values() for check in group]
        for check in checks + [suites.check_bianchi_mutation]:
            key = "mutation" if check is suites.check_bianchi_mutation else check.__name__
            rng = random.Random(f"1:{model.name}:{key}")
            results = check(model, rng, 1, params)
            assert all(res.ok for res in results), (model.name, check.__name__)
            seen.append(f"{model.name} {check.__name__} next {rng.random()!r}")
    digest = hashlib.sha256("\n".join(seen).encode()).hexdigest()
    assert digest == SAMPLED_DRAWS_DIGEST


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
def test_trusted_cubes_report_as_checked_cubes(monkeypatch, model):
    # the oracle for `microcalc._cube`: with every derived cube checked
    # again, the suites that slice, permute and rescale report the same
    # lines, and nothing the trusted path let through raises
    connections = ["random"] + [f"preset:{name}" for name in preset_names(model)]
    cfgs = [
        RunConfig(
            model.family, model.structure, connection=connection,
            seed=1, trials=2, suite=suite, mutation=True,
        )
        for connection in connections
        for suite in ("lift", "curvature", "forms", "bianchi")
    ]
    trusted = [run_suite(cfg) for cfg in cfgs]
    checked = []

    def check(arrow, args):
        checked.append(args)
        return microcalc.make_microcube(arrow, args)

    monkeypatch.setattr(microcalc, "_cube", check)
    assert [run_suite(cfg) for cfg in cfgs] == trusted
    assert all(status == 0 for status, _ in trusted)
    assert checked


@pytest.mark.parametrize(
    "fault",
    [lambda value: -value, lambda value: value.scale(0)],
    ids=["negated", "zeroed"],
)
@pytest.mark.parametrize("name", ["heisenberg", "trivial_gauge[gl2]"])
def test_thm_1_4_pins_the_bracket_value(monkeypatch, fault, name):
    # antisymmetry, alternation, bilinearity and Jacobi all hold for any
    # multiple of the bracket; only its value against the matrix
    # commutator tells a negated or zeroed bracket apart
    model = next(m for m in all_models() if m.name == name)
    params = suites.SuiteParams()
    clean = suites.check_thm_1_4(model, random.Random(4), 3, params)
    assert all(res.ok for res in clean)
    original = suites.bracket
    monkeypatch.setattr(suites, "bracket", lambda t1, t2: fault(original(t1, t2)))
    faulty = suites.check_thm_1_4(model, random.Random(4), 3, params)
    assert not any(res.ok for res in faulty)
