"""Every public function and method of the package has a caller in the
package or the benchmarks, or is exported from `nilgeo/__init__.py`; code
that only tests call belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nilgeo"


def public_definitions(tree):
    """(qualified name, is a method) for each public module-level function
    and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", True


def references(trees):
    """Names read as variables, attribute names, and strings (for lookups
    by name such as the benchmark tracer's method table)."""
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attrs.add(node.value)
    return names, attrs


def unreferenced(package: Path, callers: list[Path]) -> list[str]:
    trees = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    init = trees[package / "__init__.py"]
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    caller_trees = list(trees.values()) + [
        ast.parse(path.read_text()) for d in callers for path in sorted(d.glob("*.py"))
    ]
    names, attrs = references(caller_trees)
    found = []
    for path, tree in trees.items():
        for qualname, is_method in public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            used = name in attrs or (not is_method and (name in names or name in exported))
            if not used:
                found.append(f"{path.stem}.{qualname}")
    return found


def test_no_public_code_is_called_only_from_tests():
    assert unreferenced(PACKAGE, [ROOT / "benchmarks"]) == []
