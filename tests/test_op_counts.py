"""The operation-count ceiling check passes on counts at their ceilings
and fails on one count raised by 1, lowered by 1 or missing."""

import json

import op_counts


def _trace(table) -> str:
    """The output of a traced run whose counts are `table`."""
    lines = []
    for workload, calls in table.items():
        metrics = {name: {"value": v, "unit": "count"} for name, v in calls.items()}
        metrics["trace.overhead_ratio"] = {"value": 1.3, "unit": "ratio"}
        lines += [f"## workload {workload}", json.dumps({"metrics": metrics})]
    return "\n".join(lines)


def _check(tmp_path, table) -> int:
    path = tmp_path / "trace.out"
    path.write_text(_trace(table))
    return op_counts.main(["op_counts.py", str(path)])


def test_counts_at_their_ceilings_pass_and_a_raised_or_missing_one_fails(tmp_path, capsys):
    ceilings = json.loads(op_counts.CEILINGS.read_text())
    assert set(ceilings) == {"ring_tangent", "squares", "cubes"}
    assert _check(tmp_path, ceilings) == 0

    ceiling = ceilings["squares"]["connection.apply.calls"]
    raised = json.loads(json.dumps(ceilings))
    raised["squares"]["connection.apply.calls"] += 1
    assert _check(tmp_path, raised) == 1
    err = capsys.readouterr().err
    assert f"squares: connection.apply.calls = {ceiling + 1}, above its ceiling {ceiling}" in err

    lowered = json.loads(json.dumps(ceilings))
    lowered["squares"]["connection.apply.calls"] -= 1
    assert _check(tmp_path, lowered) == 1
    err = capsys.readouterr().err
    assert f"squares: connection.apply.calls = {ceiling - 1}, below its stale ceiling {ceiling}" in err

    del raised["cubes"]["matrices.inverse.calls"]
    assert _check(tmp_path, raised) == 1
    assert "cubes: matrices.inverse.calls is missing" in capsys.readouterr().err
