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


def defined_names(source: str) -> dict[str, int]:
    """The names a module defines at its top level, with their lines:
    functions, classes and assigned names.  Dunder names are exempt, and
    imports are left to unused_imports."""
    names: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        names[n.id] = node.lineno
    return {n: line for n, line in names.items() if not (n.startswith("__") and n.endswith("__"))}


def read_names(source: str) -> set[str]:
    """Every name a module reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_name_checker_finds_a_module_level_name_nothing_reads():
    source = (
        "import os\n"
        "__version__ = '1'\n"
        "LIMIT = 3\n"
        "UNREAD, PAIR = 1, 2\n"
        "TABLE: dict = {}\n"
        "def helper():\n"
        "    return LIMIT\n"
        "class Thing:\n"
        "    pass\n"
    )
    reader = "import m\nfrom m import helper\nhelper(m.Thing, m.PAIR)\nm.TABLE = {}\n"
    read = read_names(source) | read_names(reader)
    assert sorted(set(defined_names(source)) - read) == ["TABLE", "UNREAD"]


def test_every_module_level_name_is_read_somewhere():
    read = set()
    for tree in ("src", "tests", "perfbench"):
        for path in (ROOT / tree).rglob("*.py"):
            read |= read_names(path.read_text())
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in defined_names(path.read_text()).items()
        if name not in read
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


def class_members(source: str) -> dict[str, int]:
    """The methods and properties each top-level class of a module defines,
    as "Class.name" with their lines; dunder methods are exempt."""
    members = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                name = getattr(item, "name", "")
                if isinstance(item, ast.FunctionDef) and not name.startswith("__"):
                    members[f"{node.name}.{name}"] = item.lineno
    return members


def data_attributes(source: str) -> set[str]:
    """The names a module assigns as instance data: ``self.name = ...`` and
    annotated class fields, such as dataclass fields."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            names.update(
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            )
    return names


def qualified_reads(source: str) -> set[str]:
    """Attribute reads whose class the source names: ``self.name`` inside
    class C reads "C.name", and ``C.name`` reads itself."""
    read = set()
    tree = ast.parse(source)
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        read.update(
            f"{cls.name}.{n.attr}"
            for n in ast.walk(cls)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "self"
        )
    read.update(
        f"{n.value.id}.{n.attr}"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
    )
    return read


def unread_members(package: list[str], everything: list[str]) -> list[str]:
    """Methods and properties of the package's classes that nothing reads.

    A read of ``.name`` on any object counts for every class member of
    that name, unless some class also keeps instance data of that name:
    then the read may be of the data, and only a class-qualified read
    counts for the member.
    """
    bare = set().union(*map(read_names, everything))
    data = set().union(*map(data_attributes, everything))
    qualified = set().union(*map(qualified_reads, everything))
    return [
        member
        for source in package
        for member in class_members(source)
        if member not in qualified and not (member.split(".")[1] in bare - data)
    ]


def test_member_checker_tells_a_property_from_data_of_the_same_name():
    source = (
        "class Table:\n"
        "    def __init__(self):\n"
        "        self.hits = 0\n"
        "    def clear(self):\n"
        "        self.reset()\n"
        "    def reset(self):\n"
        "        self.hits = 0\n"
        "class Stats:\n"
        "    count: int\n"
        "    @property\n"
        "    def hits(self):\n"
        "        return self.count\n"
        "    def total(self):\n"
        "        return 1\n"
        "    def unused(self):\n"
        "        return 2\n"
    )
    reader = "def f(t, s):\n    return t.hits + s.total() + t.clear()\n"
    assert unread_members([source], [source, reader]) == ["Stats.hits", "Stats.unused"]


def test_every_class_member_is_read_somewhere():
    everything = [
        path.read_text() for tree in ("src", "tests", "perfbench") for path in (ROOT / tree).rglob("*.py")
    ]
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_members(package, everything) == []
