#!/usr/bin/env python3
"""Self-tests of the benchmark itself, on reduced workloads (about fifteen seconds).

    python3 benchmarks/selftest.py

Checks that
  * the correctness gate rejects doctored reports (a `not ok` line, a plan
    that does not match the line count, a nonzero `fail=` summary, a missing
    instance) and same-seed passes whose bytes differ;
  * an exception inside a check does not crash the runner: that call's
    planned instances count as failed and the pass goes on;
  * after the tracer is installed no module, class or container of the
    program still binds an unwrapped original, and an alias planted where
    the tracer cannot rebind it is reported;
  * traced and untraced passes give byte-identical reports, and every call
    count and ratio repeats exactly, in one process and across two fresh
    processes with the same seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace

import run
from gate import gate_self_test
from tracer import Tracer
from workloads import WORKLOADS

def reduced(workload):
    """The workload with one trial per check, for quick checks."""
    return replace(workload, trials={suite: 1 for suite in workload.trials})


def check_failure_isolation(cli) -> list[str]:
    import nilgeo.suites as suites

    def broken(model, rng, trials, params):
        raise RuntimeError("planted fault")

    broken.__name__ = "check_bianchi_abstract"
    plan = run.build_plan(cli, reduced(WORKLOADS["cubes"]))
    original = suites.SUITES["bianchi"]
    suites.SUITES["bianchi"] = (original[0], broken, original[2])
    try:
        result = run.run_pass(cli, plan, seed=5)
    finally:
        suites.SUITES["bianchi"] = original
    errors = []
    if result.failed != result.attempted:
        errors.append(f"{result.failed} of {result.attempted} instances failed, "
                      "expected every call of the faulty suite")
    if len(result.reports) != len(plan):
        errors.append("the pass stopped at the first faulty call")
    if not all("planted fault" in p for p in result.problems):
        errors.append("the fault's traceback was not reported")
    return errors


def check_tracer(cli) -> list[str]:
    import nilgeo.connection as connection

    errors = []
    planted = [connection.curvature]  # a list: install does not rebind lists
    tracer = Tracer()
    tracer.install()
    try:
        missed = tracer.unwrapped_bindings()
    finally:
        tracer.uninstall()
    if not any("curvature held by list" in m for m in missed):
        errors.append("a planted unwrapped alias went unreported")
    del planted, tracer
    for name, workload in WORKLOADS.items():
        plan = run.build_plan(cli, reduced(workload))
        reference = run.run_pass(cli, plan, seed=11)
        first, counts, missed = run.traced_pass(cli, plan, 11, check_aliases=True)
        second, again, _ = run.traced_pass(cli, plan, 11, check_aliases=True)
        errors += [f"{name}: unwrapped alias {m}" for m in missed]
        if reference.problems or reference.failed:
            errors.append(f"{name}: reference pass failed: {reference.problems[:3]}")
        if not (reference.reports == first.reports == second.reports):
            errors.append(f"{name}: traced reports differ from untraced bytes")
        changed = [n for n in run.EXACT if counts[n] != again[n]]
        if changed:
            errors.append(f"{name}: counts differ between traced passes: {changed}")
    return errors


def child_counts(workload_name: str, seed: int) -> dict:
    """Counts of one traced pass in a fresh interpreter, after a warm-up."""
    cli = run.import_program()
    plan = run.build_plan(cli, reduced(WORKLOADS[workload_name]))
    run.run_pass(cli, plan, seed)
    _, metrics, _ = run.traced_pass(cli, plan, seed, check_aliases=False)
    return {n: metrics[n] for n in run.EXACT}


def check_counts_across_processes() -> list[str]:
    errors = []
    for name in WORKLOADS:
        runs = [
            json.loads(subprocess.run(
                [sys.executable, __file__, "--child", name, "23"],
                capture_output=True, text=True, check=True,
            ).stdout)
            for _ in range(2)
        ]
        changed = [n for n in run.EXACT if runs[0][n] != runs[1][n]]
        if changed:
            errors.append(f"{name}: counts differ between processes: {changed}")
    return errors


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(child_counts(sys.argv[2], int(sys.argv[3]))))
        return 0
    cli = run.import_program()
    failures = 0
    for label, errors in (
        ("gate rejects doctored reports", gate_self_test()),
        ("a raising check does not crash the runner", check_failure_isolation(cli)),
        ("tracer wraps every alias and changes no byte", check_tracer(cli)),
        ("counts repeat across processes", check_counts_across_processes()),
    ):
        print(f"{'FAIL' if errors else 'ok'}: {label}")
        for error in errors:
            print(f"    {error}")
        failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
