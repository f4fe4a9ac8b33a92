"""Correctness gate for `run_suite` reports.

A report passes when its `1..N` plan, its numbered lines and its
`# pass=.. fail=.. total=..` summary agree with each other and with the
number of instances the benchmark planned, and every line is `ok` with
exit status 0.  Each function here reads only report text, so the
self-test can feed it doctored reports.
"""

from __future__ import annotations

import re

_LINE = re.compile(
    r"(ok|not ok) (\d+) - (\S+) model=(\S+) seed=(\d+) trial=(\d+)(?: # .*)?"
)
_SUMMARY = re.compile(r"# pass=(\d+) fail=(\d+) total=(\d+)")


def check_report(status: int, lines: list[str], planned: int, model: str,
                 seed: int) -> tuple[int, list[str]]:
    """Return (failed instances, problems) for one report.

    Failed instances are the `not ok` lines.  A report whose structure is
    wrong, including one with missing or extra instances, counts every
    planned instance as failed."""
    problems = []
    body = lines[1:-1]
    if not lines or lines[0] != f"1..{len(body)}":
        problems.append(f"plan line {lines[0] if lines else None!r} "
                        f"does not match {len(body)} instance lines")
    not_ok = 0
    for k, line in enumerate(body, 1):
        m = _LINE.fullmatch(line)
        if m is None:
            problems.append(f"malformed line {line!r}")
            continue
        if m.group(1) != "ok":
            not_ok += 1
            problems.append(f"failed instance: {line}")
        if int(m.group(2)) != k:
            problems.append(f"line {k} is numbered {m.group(2)}")
        if not m.group(4).startswith(model) or int(m.group(5)) != seed:
            problems.append(f"line {k} names another run: {line}")
    summary = _SUMMARY.fullmatch(lines[-1]) if lines else None
    if summary is None:
        problems.append(f"missing summary line, got {lines[-1] if lines else None!r}")
    else:
        passed, failed, total = (int(g) for g in summary.groups())
        if failed != not_ok or total != len(body) or passed != total - not_ok:
            problems.append(f"summary {lines[-1]!r} disagrees with "
                            f"{len(body)} lines, {not_ok} not ok")
    if len(body) != planned:
        problems.append(f"{len(body)} instances reported, {planned} planned")
    if status != (1 if not_ok else 0):
        problems.append(f"exit status {status} with {not_ok} not ok")
    if any(not p.startswith("failed instance") for p in problems):
        return planned, problems
    return not_ok, problems


def same_bytes(first: list[list[str]], second: list[list[str]]) -> bool:
    """Two passes with the same seed must give byte-identical reports."""
    return first == second


def gate_self_test() -> list[str]:
    """Run the gate on doctored report text; returns what it failed to reject."""
    good = [
        "1..2",
        "ok 1 - weil-ring model=heisenberg seed=7 trial=0",
        "ok 2 - weil-ring model=heisenberg seed=7 trial=1",
        "# pass=2 fail=0 total=2",
    ]
    escaped = []
    failed, problems = check_report(0, good, 2, "heisenberg", 7)
    if failed or problems:
        escaped.append(f"a good report was rejected: {problems}")
    not_ok = list(good)
    not_ok[2] = "not ok 2 - weil-ring model=heisenberg seed=7 trial=1"
    not_ok[3] = "# pass=1 fail=1 total=2"
    bad_plan = ["1..3"] + good[1:]
    bad_summary = good[:3] + ["# pass=2 fail=1 total=2"]
    short = ["1..1", good[1], "# pass=1 fail=0 total=1"]
    for label, report, status in (
        ("one not ok line", not_ok, 1),
        ("plan that does not match the line count", bad_plan, 0),
        ("nonzero fail= summary", bad_summary, 0),
        ("missing planned instance", short, 0),
    ):
        failed, problems = check_report(status, report, 2, "heisenberg", 7)
        if failed == 0 or not problems:
            escaped.append(label)
    altered = list(good)
    altered[1] += " "
    if same_bytes([good], [altered]):
        escaped.append("same-seed passes whose bytes differ")
    return escaped
