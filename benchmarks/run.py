#!/usr/bin/env python3
"""Benchmark of nilgeo's exact checker, driven through the public CLI path.

    python3 benchmarks/run.py --workload cubes --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Each workload (see workloads.py) is a closed loop over
the five shipped configurations: `nilgeo.cli.parse_config` once per
(config, suite) at set-up, then one `nilgeo.cli.run_suite` call at a time.
A pass is one call per (config, suite), with one seed derived from
`--seed`; every report goes through the correctness gate (gate.py).

`--trace 0` measures the end-to-end metrics:
  setup_s       median over fresh interpreters of the time from spawn until
                nilgeo is imported, the five models are built and the
                workload's configs are parsed, i.e. until a check could run
  trials_per_kref
                report lines per kref of run_suite time, over the measured
                passes, each with its own seed.  A kref is the time the host
                takes for 1000 runs of the reference kernel (reference.py),
                probed before every call, so host drift cancels out
  peak_rss_mb   peak resident memory of this measuring process
and prints trials_per_s and failed_share, which the gate keeps at zero.
After the timed passes the warm-up seed runs again and must give the same
bytes.

`--trace 1` measures the per-layer metrics of tracer.py: untraced and traced
passes of one seed alternate, every report must match the untraced bytes,
and every count must repeat exactly between traced passes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit status is 0 only when
every report was correct; it is 2, with no JSON line, when the program
cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import reference
from gate import check_report, gate_self_test, same_bytes
from tracer import Tracer
from workloads import CONFIGS, WORKLOADS, config_text, planned_instances

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 15

END_TO_END = (("setup_s", "s"), ("trials_per_kref", "1/kref"), ("peak_rss_mb", "MB"))

# Every check function the suites can run, for the per-criterion view.
CHECK_FUNCTIONS = (
    "check_weil_ring",
    "check_prop_1_1",
    "check_prop_1_2",
    "check_prop_1_3",
    "check_thm_1_4",
    "check_prop_1_5",
    "check_prop_3_1",
    "check_cor_3_2",
    "check_prop_3_3",
    "check_thm_3_4",
    "check_prop_4_1",
    "check_prop_4_2",
    "check_prop_4_3",
    "check_prop_4_5",
    "check_thm_4_4",
    "nonzero_curvature_witnesses",
    "check_dnabla_form",
    "check_face_curvature",
    "check_bianchi_abstract",
    "check_bianchi_classical",
    "check_bianchi_mutation",
)

# (metric, span or span-name prefix ending in "_", field of SpanStat)
SPAN_METRICS = (
    ("weil.mul.calls", "weil.mul", "calls"),
    ("weil.mul.self_s", "weil.mul", "self_s"),
    ("weil.add.calls", "weil.add", "calls"),
    ("weil.add.self_s", "weil.add", "self_s"),
    ("weil.invert.calls", "weil.invert", "calls"),
    ("weil.invert.total_s", "weil.invert", "total_s"),
    ("weil.scalar.calls", "weil.scalar", "calls"),
    ("matrices.mul.calls", "matrices.mul", "calls"),
    ("matrices.mul.self_s", "matrices.mul", "self_s"),
    ("matrices.inverse.calls", "matrices.inverse", "calls"),
    ("matrices.inverse.total_s", "matrices.inverse", "total_s"),
    ("matrices.from_rational.calls", "matrices.from_rational", "calls"),
    ("polynomials.eval.calls", "polynomials.eval", "calls"),
    ("polynomials.eval.total_s", "polynomials.eval", "total_s"),
    ("models.compose.calls", "models.compose", "calls"),
    ("models.invert.calls", "models.invert", "calls"),
    ("models.check.calls", "models.check", "calls"),
    ("models.check.total_s", "models.check", "total_s"),
    ("microcalc.slice_multi.calls", "microcalc.slice_multi", "calls"),
    ("microcalc.slice_multi.self_s", "microcalc.slice_multi", "self_s"),
    ("microcalc.make_microcube.calls", "microcalc.make_microcube", "calls"),
    ("microcalc.make_microcube.self_s", "microcalc.make_microcube", "self_s"),
    ("microcalc.bracket.total_s", "microcalc.bracket", "total_s"),
    ("microcalc.bisection_at.total_s", "microcalc.bisection_at", "total_s"),
    ("microcalc.strong_diff.total_s", "microcalc.strong_diff", "total_s"),
    ("sampling.self_s", "sampling.sample_", "self_s"),
    ("connection.apply.calls", "connection.apply", "calls"),
    ("connection.apply.self_s", "connection.apply", "self_s"),
    ("connection.lift.calls", "connection.lift", "calls"),
    ("connection.lift.total_s", "connection.lift", "total_s"),
    ("connection.curvature.calls", "connection.curvature", "calls"),
    ("connection.curvature.total_s", "connection.curvature", "total_s"),
    ("forms.eval.calls", "forms.eval", "calls"),
    ("forms.eval.total_s", "forms.eval", "total_s"),
    ("forms.validate_form.total_s", "forms.validate_form", "total_s"),
    ("bianchi.build_cube.calls", "bianchi.build_cube", "calls"),
    ("bianchi.build_cube.total_s", "bianchi.build_cube", "total_s"),
    ("bianchi.verify_classical.total_s", "bianchi.verify_classical_bianchi", "total_s"),
    ("bianchi.verify_abstract.total_s", "bianchi.verify_abstract_bianchi", "total_s"),
    ("bianchi.face_checks.total_s", "bianchi.face_curvature_checks", "total_s"),
) + tuple(
    (f"suites.{name}.total_s", f"suites.{name}", "total_s") for name in CHECK_FUNCTIONS
) + (("cli.run_suite.total_s", "cli.run_suite", "total_s"),)

RATIO_METRICS = (
    "matrices.inverse.identity_const_share",
    "connection.curvature.distinct_share",
    "trace.overhead_ratio",
)

_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}
PER_LAYER = tuple((name, _UNITS[field]) for name, _, field in SPAN_METRICS) + tuple(
    (name, "ratio") for name in RATIO_METRICS
)
# per-layer metrics that must repeat exactly for a given seed
EXACT = tuple(name for name, _ in PER_LAYER if name.endswith(("calls", "_share")))

# Set-up as a user pays it: a fresh interpreter imports the package, builds
# the models and parses the configs, then reports that a check could start.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from nilgeo.cli import parse_config
for text in sys.argv[2:]:
    parse_config(text)
print("ready", flush=True)
"""


class ProgramMissing(Exception):
    """The checkout has no importable program."""


@dataclass(frozen=True)
class Call:
    """One planned run_suite call of a pass."""

    model: str
    group: str | None
    suite: str
    planned: int
    cfg: object  # nilgeo.cli.RunConfig, seed replaced per pass


@dataclass
class PassResult:
    call_seconds: list[float]  # run_suite time of each call of the plan
    kernel_seconds: list[float]  # reference kernel time probed before each call
    reports: list[list[str]]
    attempted: int
    failed: int
    problems: list[str]

    @property
    def seconds(self) -> float:
        return sum(self.call_seconds)

    @property
    def rate(self) -> float:
        return self.attempted / self.seconds


def import_program():
    """Import nilgeo from this checkout's src/ and nowhere else."""
    if not (SRC / "nilgeo" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import nilgeo
        import nilgeo.cli
    except ImportError as exc:
        raise ProgramMissing(f"cannot import nilgeo: {exc}") from exc
    if Path(nilgeo.__file__).resolve().parent != (SRC / "nilgeo").resolve():
        raise ProgramMissing(f"nilgeo was imported from {nilgeo.__file__}")
    return nilgeo.cli


def config_texts(workload) -> list[tuple[str, str | None, str, str]]:
    return [
        (model, group, suite,
         config_text(model, group, suite, trials, workload.mutation, seed=0))
        for model, group in CONFIGS
        for suite, trials in workload.trials.items()
    ]


def build_plan(cli, workload) -> list[Call]:
    return [
        Call(model, group, suite,
             planned_instances(model, group, suite, workload.trials[suite],
                               workload.mutation),
             cli.parse_config(text))
        for model, group, suite, text in config_texts(workload)
    ]


def pass_seeds(workload_name: str, seed: int):
    rng = random.Random(f"nilgeo-bench:{workload_name}:{seed}")
    while True:
        yield rng.getrandbits(63)


def run_pass(cli, plan: list[Call], seed: int) -> PassResult:
    """One closed-loop pass; only run_suite time is timed, and the reference
    kernel is probed just before each call.  An exception in one call counts
    that call's planned instances as failed and the pass goes on with the
    next call."""
    call_seconds, kernel_seconds, reports, problems = [], [], [], []
    attempted = failed = 0
    for call in plan:
        cfg = replace(call.cfg, seed=seed)
        attempted += call.planned
        kernel_seconds.append(reference.probe())
        t0 = time.perf_counter()
        try:
            status, lines = cli.run_suite(cfg)
        except Exception:
            call_seconds.append(time.perf_counter() - t0)
            failed += call.planned
            problems.append(f"{call.model}/{call.group}/{call.suite} seed={seed} "
                            f"raised:\n{traceback.format_exc()}")
            reports.append([])
            continue
        call_seconds.append(time.perf_counter() - t0)
        bad, found = check_report(status, lines, call.planned, call.model, seed)
        failed += bad
        problems.extend(f"{call.model}/{call.group}/{call.suite}: {p}" for p in found)
        reports.append(lines)
    return PassResult(call_seconds, kernel_seconds, reports, attempted, failed, problems)


def measure_setup(workload, probes: int) -> list[float]:
    texts = [text for _, _, _, text in config_texts(workload)]
    argv = [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), *texts]
    samples = []
    for _ in range(probes + 1):  # the first one may compile bytecode
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
        samples.append(elapsed)
    return samples[1:]


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.6g} median={q2:.6g} q3={q3:.6g} n={len(values)}"


def run_untraced(cli, workload, seed: int, seconds: float):
    setup = measure_setup(workload, SETUP_PROBES)
    plan = build_plan(cli, workload)
    seeds = pass_seeds(workload.name, seed)
    warm_seed = next(seeds)
    warm = run_pass(cli, plan, warm_seed)
    measured = []
    deadline = time.perf_counter() + seconds
    while len(measured) < MIN_PASSES or time.perf_counter() < deadline:
        measured.append(run_pass(cli, plan, next(seeds)))
    again = run_pass(cli, plan, warm_seed)
    passes = [warm, *measured, again]
    problems = [p for r in passes for p in r.problems]
    if not same_bytes(warm.reports, again.reports):
        problems.append(f"seed {warm_seed} gave different report bytes on a rerun")
    trials = sum(r.attempted for r in measured)
    run_s = sum(r.seconds for r in measured)
    kernel_s = statistics.fmean(t for r in measured for t in r.kernel_seconds)
    kref_s = reference.RUNS_PER_KREF * kernel_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(setup),
        "trials_per_kref": trials * kref_s / run_s,
        "peak_rss_mb": rss_mb,
    }
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    print(f"# setup_s per probe: {_quartiles(setup)}")
    print(f"# {len(measured)} passes of {measured[0].attempted} instances; "
          f"trials_per_s per pass: {_quartiles([r.rate for r in measured])}")
    print(f"# trials_per_s = {trials / run_s:.6g} 1/s; "
          f"kref = {kref_s:.6g} s, the mean of {len(plan) * len(measured)} probes")
    print(f"# failed_share = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} instances)")
    return metrics, attempted, failed, problems


def span_metrics(tracer: Tracer) -> dict[str, float]:
    values = {}
    for name, span, field in SPAN_METRICS:
        if span.endswith("_"):
            stats = [s for k, s in tracer.stats.items() if k.startswith(span)]
        else:
            stats = [tracer.stats[span]] if span in tracer.stats else []
        values[name] = sum(getattr(s, field) for s in stats)
    inverses = values["matrices.inverse.calls"]
    curvatures = values["connection.curvature.calls"]
    values["matrices.inverse.identity_const_share"] = (
        tracer.inverse_identity_const / inverses if inverses else 0.0
    )
    values["connection.curvature.distinct_share"] = (
        tracer.curvature_distinct / curvatures if curvatures else 0.0
    )
    return values


def traced_pass(cli, plan: list[Call], seed: int, check_aliases: bool):
    """One pass under a fresh tracer; returns (result, metrics, missed aliases)."""
    tracer = Tracer()
    tracer.install()
    try:
        missed = tracer.unwrapped_bindings() if check_aliases else []
        result = run_pass(cli, plan, seed)
    finally:
        tracer.uninstall()
    if check_aliases:
        for name in tracer.missing:
            print(f"# not traced, missing from the program: {name}")
    return result, span_metrics(tracer), missed


def run_traced(cli, workload, seed: int, seconds: float):
    plan = build_plan(cli, workload)
    pass_seed = next(pass_seeds(workload.name, seed))
    reference = run_pass(cli, plan, pass_seed)  # warm-up, untraced
    problems = list(reference.problems)
    untraced, traced, snapshots = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        result, snapshot, missed = traced_pass(cli, plan, pass_seed,
                                               check_aliases=not traced)
        problems.extend(f"tracer missed an alias: {m}" for m in missed)
        traced.append(result)
        snapshots.append(snapshot)
        untraced.append(run_pass(cli, plan, pass_seed))
    passes = [reference, *traced, *untraced]
    for r in passes[1:]:
        problems.extend(r.problems)
        if not same_bytes(reference.reports, r.reports):
            problems.append("a traced or untraced rerun changed the report bytes")
    for snap in snapshots[1:]:
        changed = [n for n in EXACT if snap[n] != snapshots[0][n]]
        if changed:
            problems.append(f"counts differ between traced passes: {changed}")
    metrics = {
        name: (snapshots[0][name] if name in EXACT
               else statistics.median(s[name] for s in snapshots))
        for name, _ in PER_LAYER if name != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.seconds for r in traced)
        / statistics.median(r.seconds for r in untraced)
    )
    print(f"# {len(traced)} traced and {len(untraced) + 1} untraced passes of seed {pass_seed}")
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    return metrics, attempted, failed, problems


def declared_metrics(trace: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Workload names and (metric, unit) pairs that BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = spec["per_layer" if trace else "end_to_end"]
    return [w["name"] for w in spec["workloads"]], [(m["name"], m["unit"]) for m in metrics]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    """Run every workload, each in its own process so peak memory stays its own."""
    status = 0
    for name in WORKLOADS:
        print(f"## workload {name}", flush=True)
        status |= subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    escaped = gate_self_test()
    if escaped:
        print(f"error: the correctness gate accepted: {escaped}", file=sys.stderr)
        return 2
    try:
        cli = import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = dict(PER_LAYER if args.trace else END_TO_END)
    if declared_metrics(args.trace) != (list(WORKLOADS), list(units.items())):
        print("error: BENCHMARK.json does not list the workloads and metrics "
              "this runner measures", file=sys.stderr)
        return 2
    run = run_traced if args.trace else run_untraced
    metrics, attempted, failed, problems = run(cli, workload, args.seed, args.seconds)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
