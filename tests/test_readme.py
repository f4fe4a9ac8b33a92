"""The README's Python examples run as written: each `python` block in a
fresh namespace, with what it prints checked against its comments."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_every_python_block_of_the_readme_runs():
    blocks = python_blocks()
    assert blocks
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {"__name__": "readme"})
        printed += out.getvalue().splitlines()
    assert printed == ["Matrix[1]", "True"]
