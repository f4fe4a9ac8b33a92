"""Every public function of the package, and every public or dunder method
of a class it defines, runs when the shipped program does: `nilgeo
--list-models`, then `nilgeo --config` on each registered configuration
with every suite and the mutation check.  Code that only tests call
belongs in the tests.

The run is watched with `sys.setprofile`, which sees each Python frame
that starts, so properties, static methods and operators count like any
other call.  It runs in a fresh interpreter: the package interns algebras
and caches plans and models, so in a process where other tests ran, a
builder whose result is already cached would not run again.  The profile
starts before the package is imported, so the constructors its import
runs, those of the model registry, count too.  Methods that
dataclasses generate have no source in the package and are not listed."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import nilgeo
from nilgeo.models import all_models

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(nilgeo.__file__).resolve().parent

# display methods, which the report never calls; a class's own `__init__`
# is not exempt, so a constructor only tests call is found too
EXEMPT_METHODS = ("__repr__", "__str__")


def benchmark_reads() -> set[str]:
    """Attribute names read by the benchmark harness, such as the tracer
    hook's `constant_matrix`."""
    return {
        node.attr
        for path in sorted((ROOT / "benchmarks").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }


def _functions(value):
    """The plain functions behind a class attribute."""
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    if isinstance(value, property):
        return [f for f in (value.fget, value.fset, value.fdel) if f is not None]
    return [value] if isinstance(value, types.FunctionType) else []


def _where(code: types.CodeType) -> tuple[str, int, str]:
    return str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name


def definitions() -> dict[tuple[str, int, str], list[str]]:
    """Where each definition starts -> the qualified names bound to it,
    over every module of the package; aliases such as `__rmul__ = __mul__`
    share one entry."""
    found: dict[tuple[str, int, str], list[str]] = {}
    for info in pkgutil.iter_modules(nilgeo.__path__):
        mod = importlib.import_module(f"nilgeo.{info.name}")
        for name, value in vars(mod).items():
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            if isinstance(value, types.FunctionType) and not name.startswith("_"):
                found.setdefault(_where(value.__code__), []).append(f"{info.name}.{name}")
            elif isinstance(value, type):
                for attr, item in vars(value).items():
                    dunder = attr.startswith("__") and attr.endswith("__")
                    if attr in EXEMPT_METHODS or (attr.startswith("_") and not dunder):
                        continue
                    for fn in _functions(item):
                        if Path(fn.__code__.co_filename).resolve().parent == PACKAGE:
                            found.setdefault(_where(fn.__code__), []).append(
                                f"{info.name}.{name}.{attr}"
                            )
    return found


# run in the child: argv lists from the first argument, the calls out to the second
PROFILED_RUN = """
import json, sys
from pathlib import Path

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

argvs = json.loads(sys.argv[1])
sys.setprofile(profile)
from nilgeo import cli
statuses = [cli.main(argv) for argv in argvs]
sys.setprofile(None)
where = sorted(
    (str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in called
)
Path(sys.argv[2]).write_text(json.dumps({"statuses": statuses, "called": where}))
"""


def program_calls(tmp_path) -> set[tuple[str, int, str]]:
    """Where each function starts that runs while the program runs every
    configuration once, in a fresh interpreter."""
    argvs = [["--list-models"]]
    for k, model in enumerate(all_models()):
        text = f"model = {model.family}\nseed = 1\nsuite = all\ntrials = 1\nmutation = true\n"
        if model.structure is not None:
            text += f"structure_group = {model.structure}\n"
        path = tmp_path / f"run{k}.cfg"
        path.write_text(text)
        argvs.append(["--config", str(path)])
    out = tmp_path / "called.json"
    env = dict(os.environ)
    src = str(PACKAGE.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-c", PROFILED_RUN, json.dumps(argvs), str(out)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    result = json.loads(out.read_text())
    assert result["statuses"] == [0] * len(argvs)
    return {tuple(where) for where in result["called"]}


def test_no_public_code_is_called_only_from_tests(tmp_path):
    called = program_calls(tmp_path)
    reads = benchmark_reads()
    never = sorted(
        "/".join(names)
        for where, names in definitions().items()
        if where not in called
        and not any(n.rsplit(".", 1)[1] in reads for n in names)
    )
    assert not never, "never called by the program: " + ", ".join(never)


def traced_methods() -> dict[str, tuple[tuple[str, str], ...]]:
    """The benchmark tracer's span name -> (class, attribute) pairs, read
    from its source without importing it."""
    tree = ast.parse((ROOT / "benchmarks" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("the tracer assigns no METHODS")


def test_every_traced_method_is_defined_on_a_class_of_its_layer():
    # the tracer reports a missing name only after a full traced run
    methods = traced_methods()
    assert methods
    for span, members in methods.items():
        mod = importlib.import_module(f"nilgeo.{span.split('.')[0]}")
        for cls_name, attr in members:
            cls = getattr(mod, cls_name, None)
            assert isinstance(cls, type), f"{span}: {mod.__name__} has no class {cls_name}"
            assert attr in vars(cls), f"{span}: {cls_name} does not define {attr}"
