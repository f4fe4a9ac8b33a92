"""The kill matrix: planted faults, each caught through an identity's value.

A row is (fault, configuration, check).  The fault is a monkeypatch,
rebound in every module of the package that holds the original under its
name.  The row passes when the check passes on clean code and at least
one of its results under the fault is `not ok` with a note that is not a
raised error, so the check must see the fault in a value it computes, not
in a crash on the way.  The checks run as the CLI runs them: the
generator `f"1:{model}:{check}"` and 3 trials.  This is the
mutation-adequacy test of DeMillo, Lipton and Sayward (*Hints on test
data selection*, 1978)."""

import random
import sys
from math import lcm

import pytest

from nilgeo import matrices, microcalc, models, suites, weil
from nilgeo.connection import Connection
from nilgeo.microcalc import TangentData
from nilgeo.models import all_models


def _rebind(monkeypatch, module, name, make):
    """Replace `module.name` by `make(original)` wherever a module of the
    package binds the original."""
    original = getattr(module, name)
    fake = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "nilgeo" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, fake)


def reversed_compose(monkeypatch):
    def make(original):
        def compose(g, h):
            original(g, h)  # the groupoid checks
            return models.Arrow(g.model, g.grp, h.source, g.target, h.body * g.body)

        return compose

    _rebind(monkeypatch, models, "compose", make)


def unscaled_combine(monkeypatch):
    # the second operand's numerators taken over the common denominator as
    # they are, without the factor that brings them there
    def make(original):
        def combine(a, b, sign):
            den = lcm(a._den, b._den)
            return original(a, matrices._normal(b.algebra, b.size, dict(b._t), den), sign)

        return combine

    _rebind(monkeypatch, matrices, "_combine", make)


def negated_bracket_sections(monkeypatch):
    _rebind(monkeypatch, microcalc, "bracket_sections", lambda f: lambda *a: -f(*a))


def negated_bracket(monkeypatch):
    _rebind(monkeypatch, microcalc, "bracket", lambda f: lambda *a: -f(*a))


def zeroed_bracket(monkeypatch):
    _rebind(monkeypatch, microcalc, "bracket", lambda f: lambda *a: f(*a).scale(0))


def flipped_gauge_transport(monkeypatch):
    # the lift's vertical part negated; its base direction stays
    original = Connection.apply

    def apply(self, td):
        t = original(self, td)
        vert = matrices.Matrix.zero(t.vert.size, t.algebra) - t.vert
        return TangentData(t.model, t.grp, t.anchor, t.direction, vert)

    monkeypatch.setattr(Connection, "apply", apply)


def uninverted_edge_read(monkeypatch):
    # vert read as the d-cofactor of the body alone, without the inverse of
    # the body at d = 0
    def make(original):
        def edge_tangent(a, d):
            t = original(a, d)
            return TangentData(t.model, t.grp, t.anchor, t.direction, a.body.coefficient(d))

        return edge_tangent

    _rebind(monkeypatch, microcalc, "_edge_tangent", make)


def unflipped_step_inverse(monkeypatch):
    # the closed-form inverse of a square-zero step I + U returns I + U
    _rebind(monkeypatch, matrices, "_step_inverse", lambda f: lambda m: m)


def unsigned_step_shift(monkeypatch):
    # the plan of one term c * x^m of a step parameter drops the sign of c
    _rebind(
        monkeypatch,
        weil,
        "_times_plan",
        lambda f: lambda alg, mask, num, den: f(alg, mask, abs(num), den),
    )


def halved_kernel(monkeypatch):
    # the written-out product of an algebra sums only the pairs (m1, m2)
    # with m1 <= m2
    def kernel(alg):
        def mul(a, b):
            out = {}
            for m1, v1 in a.items():
                for m2, v2 in b.items():
                    if m1 <= m2 and not m1 & m2 and m1 | m2 not in alg.killed:
                        out[m1 | m2] = out.get(m1 | m2, 0) + v1 * v2
            return out

        return mul

    _rebind(monkeypatch, weil, "_kernel", lambda f: kernel)


def unmasked_inheritance(monkeypatch):
    # a slice inherits its parent's far reads with the parent's drops only,
    # not the arguments the slice zeroes
    _rebind(
        monkeypatch,
        microcalc,
        "_inherit_far_edges",
        lambda f: lambda parent, child, zeroed: f(parent, child, 0),
    )


GAUGE = ("trivial_gauge[scalar]", "trivial_gauge[gl2]", "trivial_gauge[sl2]")

ROWS = (
    [(reversed_compose, name, "thm-1.4")
     for name in ("heisenberg", "direct_product", "trivial_gauge[gl2]", "trivial_gauge[sl2]")]
    + [(reversed_compose, "heisenberg", "witness"),
       (reversed_compose, "direct_product", "prop-4.3")]
    + [(unscaled_combine, "heisenberg", check) for check in ("thm-1.4", "cor-3.2")]
    + [(negated_bracket_sections, name, "prop-1.3") for name in ("direct_product", *GAUGE)]
    + [(negated_bracket_sections, name, "thm-4.4") for name in ("heisenberg", *GAUGE)]
    + [(negated_bracket, name, "thm-1.4")
       for name in ("heisenberg", "direct_product", "trivial_gauge[gl2]", "trivial_gauge[sl2]")]
    + [(zeroed_bracket, name, "thm-1.4") for name in ("heisenberg", "trivial_gauge[gl2]")]
    + [(flipped_gauge_transport, "trivial_gauge[scalar]", "witness")]
    + [(uninverted_edge_read, "direct_product", "prop-4.3")]
    + [(unflipped_step_inverse, "trivial_gauge[gl2]", "bianchi-abstract")]
    + [(unsigned_step_shift, "direct_product", "prop-1.1")]
    + [(halved_kernel, "heisenberg", "weil-ring")]
    + [(unmasked_inheritance, "heisenberg", "face-curvature")]
)


def _run(name, check):
    """The results of one check on one configuration, as the CLI gets them."""
    if check == "witness":
        return suites.nonzero_curvature_witnesses(name)
    model = next(m for m in all_models() if m.name == name)
    fn = getattr(suites, "check_" + check.replace("-", "_").replace(".", "_"))
    rng = random.Random(f"1:{name}:{fn.__name__}")
    return fn(model, rng, 3, suites.SuiteParams())


@pytest.mark.parametrize(
    "fault, name, check",
    ROWS,
    ids=[f"{fault.__name__}-{check}-{name}" for fault, name, check in ROWS],
)
def test_a_planted_fault_is_caught_by_value(monkeypatch, fault, name, check):
    clean = _run(name, check)
    assert clean and all(res.ok for res in clean)
    fault(monkeypatch)
    faulty = _run(name, check)
    assert any(not res.ok and not res.note.startswith("error:") for res in faulty)
