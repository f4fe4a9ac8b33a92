"""The benchmark's workloads: which configs, suites and trial counts each runs.

A workload is one closed loop: a single caller runs one `run_suite` call at
a time, in one process, over the five shipped model configurations.  A
pass is one `run_suite` call per (config, suite) pair; the benchmark times
passes.  This table is the single source of truth for what a workload runs.
"""

from __future__ import annotations

from dataclasses import dataclass

# (model, structure_group) for the five shipped configurations
CONFIGS = (
    ("heisenberg", None),
    ("direct_product", None),
    ("trivial_gauge", "scalar"),
    ("trivial_gauge", "gl2"),
    ("trivial_gauge", "sl2"),
)

# Check functions per suite at this commit.  The benchmark plans its own
# instance counts instead of trusting the report, so a report that drops
# lines counts the missing instances as failed.
CHECKS_PER_SUITE = {
    "algebra": 1,
    "tangent": 5,
    "lift": 4,
    "curvature": 5,
    "forms": 1,
    "bianchi": 3,
}

# The curvature suite appends one pinned nonzero-curvature witness for these
# configurations; the bianchi suite appends one line for the mutation check.
WITNESS_CONFIGS = {("heisenberg", None), ("trivial_gauge", "scalar")}


@dataclass(frozen=True)
class Workload:
    name: str
    trials: dict[str, int]  # suite -> trials per check, in run order
    mutation: bool


# Why each workload exists, and what it loads and bypasses: BENCHMARK.json
# and README.md.  Trial counts size one pass at about two seconds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ring_tangent", {"algebra": 80, "tangent": 12}, mutation=False),
        Workload("squares", {"lift": 4, "curvature": 4, "forms": 4}, mutation=False),
        Workload("cubes", {"bianchi": 4}, mutation=True),
    )
}


def config_text(model: str, group: str | None, suite: str, trials: int,
                mutation: bool, seed: int) -> str:
    """The configuration file a user would write for one run_suite call."""
    lines = [
        "[run]",
        f"model = {model}",
        f"structure_group = {group}" if group else "",
        f"seed = {seed}",
        f"trials = {trials}",
        f"suite = {suite}",
        f"mutation = {'true' if mutation else 'false'}",
    ]
    return "\n".join(line for line in lines if line) + "\n"


def planned_instances(model: str, group: str | None, suite: str, trials: int,
                      mutation: bool) -> int:
    """Report lines one run_suite call must produce, counted independently
    of the program."""
    n = CHECKS_PER_SUITE[suite] * trials
    if suite == "curvature" and (model, group) in WITNESS_CONFIGS:
        n += 1
    if suite == "bianchi" and mutation:
        n += 1
    return n
