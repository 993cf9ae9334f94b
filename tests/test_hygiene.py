"""Source hygiene of the package, checked with the standard library only."""

import ast
import importlib.util
from pathlib import Path

from smvirt.coordinator import Coordinator

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smvirt"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.

    A name listed in the module's ``__all__`` counts as read, and an import
    statement carrying ``# noqa: F401`` (a deliberate re-export) is exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_checker_finds_an_unused_import_and_honours_noqa():
    source = (
        "import os\n"
        "import sys\n"
        "from json import dumps, loads  # noqa: F401\n"
        "from math import pi as PI\n"
        "__all__ = ['PI']\n"
        "print(sys.argv)\n"
    )
    assert unused_imports(source) == ["line 1: os"]


def test_package_has_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {
        path.name: problems
        for path in modules
        if (problems := unused_imports(path.read_text()))
    }
    assert found == {}


def test_package_has_no_re_exports():
    """Every module imports a name from the module that defines it, so no
    import in the package is kept only for others to import from."""
    found = [
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "noqa: F401" in line
    ]
    assert found == []


def test_coordinator_defines_every_method_the_benchmark_counts():
    """The benchmark tracer wraps the methods a class defines itself, so a
    counted Coordinator method that is only inherited drops out of its
    figures."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    prefix = "coordinator.Coordinator."
    counted = set()
    for value in vars(spans).values():
        names = value if isinstance(value, frozenset) else (value,)
        counted.update(
            n[len(prefix):] for n in names if isinstance(n, str) and n.startswith(prefix)
        )
    assert len(counted) == 10  # six events, the retry, the guard, two accesses
    assert sorted(counted - set(vars(Coordinator))) == []
