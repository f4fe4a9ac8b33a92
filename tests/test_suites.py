"""The one trial loop of `suites`: a trial that raises becomes one `not ok`
line with the error as its note, and every other trial and check still
reports."""

import pytest

from nilgeo import suites
from nilgeo.cli import parse_config, run_suite

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
