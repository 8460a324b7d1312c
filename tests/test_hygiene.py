"""Every module of the package (except ``__init__.py``, which re-exports)
and every test file uses each name it imports; every function, method and
class the package defines is referenced; the package's modules import each
other without a cycle, and chambers sits below the move engine and the
planner."""

import ast
import graphlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "symcone").glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
FILES = MODULES + sorted((ROOT / "tests").glob("*.py"))
REFERRERS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted(
        (line, name) for name, line in imported_names(tree).items() if name not in used
    )
    assert not unused, ", ".join(f"{name} (line {line})" for line, name in unused)


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nfrom a import b as c, d\n"
        "def f(x: 'd') -> None:\n    return os\n"
    )
    assert set(imported_names(tree)) == {"os", "c", "d"}
    assert set(imported_names(tree)) - used_names(tree) == {"c"}


def defined_names(tree: ast.Module) -> list[tuple[str, int]]:
    """Each function, method and class defined, dunders aside, with its line."""
    return [
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def referenced_names(tree: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported (so re-exports
    count), and the parts of every string that is a dotted name (a string
    annotation, or an attribute path such as a tracer target)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                found |= set(node.value.split("."))
    return found


def unreferenced(sources: dict[str, ast.Module], referrers: list[ast.Module]) -> list[str]:
    """Definitions in sources that nothing references: a private _name must
    be referenced in sources, any other name in sources or referrers."""
    inside = set().union(*map(referenced_names, sources.values()))
    anywhere = inside.union(*map(referenced_names, referrers))
    return [
        f"{where}:{line} {name}"
        for where, tree in sources.items()
        for name, line in defined_names(tree)
        if name not in (inside if name.startswith("_") else anywhere)
    ]


def test_every_definition_is_referenced():
    sources = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    referrers = [ast.parse(p.read_text(encoding="utf-8")) for p in REFERRERS]
    dead = unreferenced(sources, referrers)
    assert not dead, ", ".join(dead)


def test_the_check_sees_an_unreferenced_definition():
    source = ast.parse(
        "class A:\n    def __init__(self): ...\n    def m(self): ...\n"
        "    def n(self): ...\n"
        "def _f(): ...\ndef _g(): ...\ndef h() -> 'A': return _f() + A().m()\n"
        "def k(): ...\n"
    )
    referrer = ast.parse("from x import k\nTARGET = 'A.n'\n_g()\nh()\n")
    assert [name for name, _ in defined_names(source)] == ["A", "_f", "_g", "h", "k", "m", "n"]
    # _g is referenced only from outside the package, which a private name may not be
    assert unreferenced({"s.py": source}, [referrer]) == ["s.py:6 _g"]
    assert unreferenced({"s.py": source}, []) == ["s.py:6 _g", "s.py:7 h", "s.py:8 k", "s.py:4 n"]


def package_imports(tree: ast.Module) -> set[str]:
    """The sibling modules a package module imports, relatively
    (``from .x import y``, ``from . import x``) or as ``symcone.x``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module
            elif node.level == 0 and (node.module or "").startswith("symcone"):
                module = node.module.removeprefix("symcone").lstrip(".")
            else:
                continue
            if module:
                found.add(module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names}
    return found


def import_graph() -> dict[str, set[str]]:
    names = {p.stem for p in MODULES}
    return {
        p.stem: package_imports(ast.parse(p.read_text(encoding="utf-8"))) & names
        for p in MODULES
    }


def test_chambers_imports_neither_moves_nor_planner():
    assert import_graph()["chambers"] & {"moves", "planner"} == set()


def test_package_import_graph_has_no_cycle():
    graphlib.TopologicalSorter(import_graph()).prepare()  # raises CycleError


def test_the_import_graph_sees_every_import_form():
    tree = ast.parse(
        "from . import linalg, moves\nfrom .lattice import ClassVector\n"
        "from symcone.planner import plan\nimport os\nfrom fractions import Fraction\n"
    )
    assert package_imports(tree) == {"linalg", "moves", "lattice", "planner"}
