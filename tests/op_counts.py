"""Operation-count ceilings for the traced benchmark run.

    python3 benchmarks/run.py --workload all --seed 1 --seconds 1 --trace 1 > trace.out
    python3 tests/op_counts.py trace.out

The traced run prints, for each workload, a `## workload <name>` line and
then one JSON line whose metrics hold every `*.calls` count of one seed-1
pass; those counts repeat exactly from run to run.  This script compares
each count with its ceiling in `op_count_ceilings.json`, next to it, and
exits 1 when a count is missing, above its ceiling, or below it.  A change
that lowers a count lowers its ceiling too, so a count below its ceiling
names a stale ceiling; a change that must raise a ceiling says why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

CEILINGS = Path(__file__).with_name("op_count_ceilings.json")


def counts(text: str) -> dict[str, dict[str, float]]:
    """workload -> `*.calls` metric -> count, read off a traced run's output."""
    found: dict[str, dict[str, float]] = {}
    workload = None
    for line in text.splitlines():
        if line.startswith("## workload "):
            workload = line.split()[-1]
        elif line.startswith("{") and workload is not None:
            metrics = json.loads(line)["metrics"]
            found[workload] = {
                name: m["value"] for name, m in metrics.items() if name.endswith(".calls")
            }
    return found


def problems(found, ceilings) -> list[str]:
    """Each count of `ceilings` that `found` lacks or holds above or below
    its ceiling."""
    out = []
    for workload, table in ceilings.items():
        for name, ceiling in table.items():
            got = found.get(workload, {}).get(name)
            if got is None:
                out.append(f"{workload}: {name} is missing")
            elif got > ceiling:
                out.append(f"{workload}: {name} = {got}, above its ceiling {ceiling}")
            elif got < ceiling:
                out.append(f"{workload}: {name} = {got}, below its stale ceiling {ceiling}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: op_counts.py TRACE_OUTPUT", file=sys.stderr)
        return 2
    ceilings = json.loads(CEILINGS.read_text())
    bad = problems(counts(Path(argv[1]).read_text()), ceilings)
    for line in bad:
        print(f"error: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
