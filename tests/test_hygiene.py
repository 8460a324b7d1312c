"""Every module of the package (except ``__init__.py``, which re-exports)
and every test file uses each name it imports; every function, method and
class the package defines is referenced; the package's modules import each
other without a cycle, and chambers sits below the move engine and the
planner.  No module imports dataclasses or imports inside a function, the
package serves every public name of the modules it loads lazily, no module
but perturb (and cli, which parses its numbers) uses floats, and only
chambers._neg_apply reads an adjugate or a Support's inverse, only
CurveModel._row pairs a Gram product with the declared curves or writes a
class's row, records are built unchecked only at pinned sites and from
object.__new__ only by Frozen._unchecked and ConfigurationState._proven,
and plan refuses only for a pinned set of reasons."""

import ast
import graphlib
import re
from pathlib import Path

import pytest

import symcone

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


def inverse_readers(tree: ast.Module) -> set[str]:
    """The functions that read an adjugate or a Support's inverse (any
    .adjugate or .inverse attribute), by name; module level reads as "."."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr in ("adjugate", "inverse"):
                found.add(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, ".")
    return found


def test_only_one_routine_applies_neg_inverse():
    # every -M^{-1} product goes through chambers._neg_apply, component by
    # component; a second apply would be a second copy of that algebra
    readers = {
        f"{path.stem}.{name}"
        for path in MODULES
        for name in inverse_readers(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert readers == {"chambers._neg_apply"}


def test_the_check_sees_an_inverse_read():
    tree = ast.parse(
        "x = s.inverse\nclass A:\n    def f(self):\n        def g():\n            return n.adjugate\n"
        "    def h(self, adjugate):\n        return adjugate.det\n"
    )
    assert inverse_readers(tree) == {".", "g"}


def curve_product_readers(tree: ast.Module) -> set[str]:
    """The functions that read a Gram product (a gram_product call, or a
    kept _gram_product or state _product) and the declared curves (any
    .curves attribute), by name; a nested function's reads count as its
    outermost function's, so a closure summing what its caller hands it is
    seen."""
    found = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child)
                continue
            read = {n.attr for n in ast.walk(child) if isinstance(n, ast.Attribute)}
            if "curves" in read and read & {"gram_product", "_gram_product", "_product"}:
                found.add(child.name)

    visit(tree)
    return found


def test_only_the_row_routine_pairs_a_gram_product_with_the_curves():
    # a class's pairings with the reference class and the declared curves
    # are read off its Gram product by CurveModel._row alone and kept on the
    # class; the scaled_pairings kernel sums over any vectors it is handed
    # and names no curves
    readers = {
        f"{path.stem}.{name}"
        for path in MODULES
        for name in curve_product_readers(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert readers == {"lattice._row"}


def test_the_check_sees_a_curve_pairing_read():
    tree = ast.parse(
        "class M:\n"
        "    def forms(self, a):\n"
        "        p = self.lattice.gram_product(a)\n"
        "        def dot(terms):\n"
        "            return sum(x * p[i] for i, x in terms)\n"
        "        return [dot(c.vector.integer_form[1]) for c in self.curves]\n"
        "    def nested(self, a):\n"
        "        def inner():\n"
        "            return [c.label for c in self.curves]\n"
        "        return a._gram_product, inner\n"
        "    def curves_only(self):\n"
        "        return self.curves\n"
        "def product_only(state):\n"
        "    return state._product\n"
        "def kernel(lat, a, model):\n"
        "    return lat.scaled_pairings(a, [c.vector for c in model.curves])\n"
    )
    assert curve_product_readers(tree) == {"forms", "nested"}


def owners(tree: ast.Module, sees) -> set[str]:
    """The functions holding a node for which sees(node) is true, by
    qualified name (a nested function by its own); module level reads as
    "."."""
    found = set()

    def visit(node: ast.AST, owner: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if sees(child):
                found.add(owner)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = scope + child.name
                visit(child, owner if isinstance(child, ast.ClassDef) else name, name + ".")
            else:
                visit(child, owner, scope)

    visit(tree, ".", "")
    return found


def package_owners(sees) -> set[str]:
    """owners in every package module, each as module.qualified_name."""
    return {
        f"{path.stem}.{name}"
        for path in MODULES
        for name in owners(ast.parse(path.read_text(encoding="utf-8")), sees)
    }


def calls_unchecked(node: ast.AST) -> bool:
    """A call of a record's unchecked constructor: any ._unchecked(...)."""
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_unchecked"


def test_records_are_built_unchecked_only_where_their_fields_are_proven():
    # Frozen._unchecked skips every check of a record's fields, so each
    # call site proves them where it calls it; a new site is added here on
    # purpose, with its proof
    assert package_owners(calls_unchecked) == {
        "chambers.classify",
        "documents._move_from_doc",
        "documents.certificate_from_doc",
        # a normalised integer form: nonzero terms by index, prime to d
        "lattice.ClassVector.from_integer_form",
        # a + p b over d_a for b integral: terms by index, d_a prime to them
        "lattice.ClassVector._combine",
        # a dead copy: the fields of an object of a state, alive False
        "moves._killed",
        "moves.smooth_and_reinstate",
        "planner._Peeler._execute",
        "planner._plan_single_curve",
        "planner._sweep_plan",
        "planner._construct",
    }


def test_the_check_sees_an_unchecked_build():
    tree = ast.parse(
        "x = R._unchecked(1)\n"
        "class A:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return B._unchecked(2, 3)\n"
        "        return g\n"
        "    @classmethod\n"
        "    def _unchecked(cls, *values):\n"
        "        return values\n"
        "def h(make):\n"
        "    return make(R._unchecked)\n"
    )
    assert owners(tree, calls_unchecked) == {".", "A.f.g"}


def calls_object_new(node: ast.AST) -> bool:
    """A bare instance made past its class's constructor: object.__new__(...)."""
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "__new__"
        and getattr(node.func.value, "id", None) == "object"
    )


def test_records_are_made_from_bare_instances_only_by_the_two_unchecked_constructors():
    # object.__new__ skips a record's constructor and its checks:
    # Frozen._unchecked fills the fields alone, and ConfigurationState._proven
    # also keeps the state's product and slots; every other proven build
    # goes through Frozen._unchecked
    assert package_owners(calls_object_new) == {"lattice.Frozen._unchecked", "moves.ConfigurationState._proven"}


def test_the_check_sees_a_bare_instance():
    tree = ast.parse(
        "x = object.__new__(R)\n"
        "class A:\n"
        "    def __new__(cls):\n"
        "        return super().__new__(cls)\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return object.__new__(B)\n"
        "        return g\n"
        "def h():\n"
        "    return object.__new__\n"
    )
    assert owners(tree, calls_object_new) == {".", "A.f.g"}


def writes_row(node: ast.AST) -> bool:
    """A write of a class's _row slot: an assignment to x._row or to
    x["_row"] (of vars(x) or x.__dict__), a setattr or __setattr__ naming
    "_row", or any call with a _row= keyword (an update)."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        return node.attr == "_row"
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        return isinstance(node.slice, ast.Constant) and node.slice.value == "_row"
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        named = name in ("setattr", "__setattr__") and any(
            isinstance(arg, ast.Constant) and arg.value == "_row" for arg in node.args
        )
        return named or any(k.arg == "_row" for k in node.keywords)
    return False


def test_only_the_row_routine_writes_a_row():
    # a class's row is read off its Gram product by CurveModel._row alone;
    # a sum inherits its operands' product, never a row carried beside it
    assert package_owners(writes_row) == {"lattice.CurveModel._row"}


def test_the_check_sees_a_row_write():
    tree = ast.parse(
        "class C:\n"
        "    def kept(self, a):\n"
        "        vars(a)['_row'] = self, ()\n"
        "    def read(self, a):\n"
        "        return a._row, vars(a)['_row'], vars(a).get('_row')\n"
        "def attribute(a):\n"
        "    a._row = None\n"
        "def by_dict(a):\n"
        "    a.__dict__['_row'] = None\n"
        "def by_setattr(a):\n"
        "    object.__setattr__(a, '_row', None)\n"
        "def by_update(a):\n"
        "    a.__dict__.update(_row=None)\n"
        "def other(a):\n"
        "    vars(a)['_gram_product'] = None\n"
    )
    assert owners(tree, writes_row) == {"C.kept", "attribute", "by_dict", "by_setattr", "by_update"}


def refusal_reasons(tree: ast.Module) -> set[str]:
    """The reason of each Unsupported(...) call, keyword or positional: a
    string as it reads, any other expression as its source."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if getattr(func, "id", None) != "Unsupported" and getattr(func, "attr", None) != "Unsupported":
            continue
        reasons = [k.value for k in node.keywords if k.arg == "reason"] + node.args[:1]
        for reason in reasons:
            found.add(reason.value if isinstance(reason, ast.Constant) else ast.unparse(reason))
    return found


def test_plan_refuses_only_for_the_pinned_reasons():
    # a reason is part of plan's contract (the CLI prints it and exits 3):
    # one is added or removed here on purpose, with the route it opens or closes
    tree = ast.parse((ROOT / "src" / "symcone" / "planner.py").read_text(encoding="utf-8"))
    assert refusal_reasons(tree) == {
        "model does not assume completeness; bases cannot be certified Kähler",
        "model has no reference class; the positive cone is undefined",
        "target is not in the positive cone",
        "vanishing locus is not negative definite",
        "f'{kind.label} configuration of (-2)-spheres is excluded'",
        "(-1)-sphere wall: the required amplitude equals the open bound 2A/h",
        "chamber wall out of reach: 4 v^2 >= (k-1)^2 alpha^2",
        "no inflation amplitude keeps the base Kähler",
        "no base scale makes the base Kähler",
        "the deficit does not peel into moves",
        "planned certificate failed replay",
    }


def test_the_check_sees_a_new_refusal_reason():
    tree = ast.parse(
        "def f(x):\n"
        "    if x:\n"
        "        return Unsupported(reason='new route', detail=())\n"
        "    if x is None:\n"
        "        return planner.Unsupported('positional')\n"
        "    return Unsupported(reason=f'{x} refused', component=(0,))\n"
        "def g():\n"
        "    return Witness(reason='not a refusal')\n"
    )
    assert refusal_reasons(tree) == {"new route", "positional", "f'{x} refused'"}


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level names of the modules a file imports absolutely."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_dataclasses():
    # records derive from lattice.Frozen; dataclasses, with the inspect it
    # pulls in, was a large share of a CLI child's start
    for path in SOURCES:
        assert "dataclasses" not in imported_modules(ast.parse(path.read_text(encoding="utf-8"))), path.name


def local_imports(tree: ast.Module) -> list[int]:
    """The lines of the imports made inside a function."""
    return sorted({
        node.lineno
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_no_module_imports_inside_a_function():
    # symcone/__init__ registers the modules loaded on first use lazily, so a
    # top-level import of one binds it without running it
    for path in SOURCES:
        assert local_imports(ast.parse(path.read_text(encoding="utf-8"))) == [], path.name


def test_the_check_sees_an_import_inside_a_function():
    tree = ast.parse(
        "import os\ndef f():\n    from . import perturb\n"
        "    def g():\n        import json\n"
    )
    assert local_imports(tree) == [3, 5]


def test_the_lazy_name_table_serves_the_public_names_of_each_lazy_module():
    for module, names in symcone._LAZY.items():
        tree = ast.parse((ROOT / "src" / "symcone" / f"{module}.py").read_text(encoding="utf-8"))
        public = {
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        }
        assert sorted(names) == sorted(public), module
    assert set(symcone._LAZY) == {"chambers", "planner", "perturb"}


def test_a_star_import_binds_every_public_name():
    namespace = {}
    exec("from symcone import *", namespace)
    for name in ("plan", "classify", "r_epsilon", "replace"):
        assert namespace[name] is getattr(symcone, name)
    assert set(symcone._OWNER) <= namespace.keys()


# perturb is the floating-point lab, and cli parses its a,k,c and --eps
INEXACT_ALLOWED = {"perturb.py", "cli.py"}
EXACT_MATH = {"gcd", "lcm", "isqrt"}


def inexact_uses(tree: ast.Module) -> list[str]:
    """Each float or complex literal, float() or complex() call, and import
    of cmath, statistics, math as a whole or a math name other than gcd, lcm
    and isqrt, with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{node.lineno} {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "complex"):
            found.append(f"{node.lineno} {node.func.id}()")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno} import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] in ("cmath", "math", "statistics")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in ("cmath", "math", "statistics"):
            found += [f"{node.lineno} {node.module}.{alias.name}" for alias in node.names
                      if node.module != "math" or alias.name not in EXACT_MATH]
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in INEXACT_ALLOWED], ids=lambda p: p.name)
def test_no_floats_outside_perturb(path):
    inexact = inexact_uses(ast.parse(path.read_text(encoding="utf-8")))
    assert not inexact, ", ".join(inexact)


def test_the_check_sees_a_float():
    tree = ast.parse(
        "import math, cmath\nfrom math import gcd, sqrt\nfrom statistics import mean\n"
        "from .linalg import lcm\nx = 0.5 + 2j + 3\ny = float('1') + complex(1)\nz = int(1)\n"
    )
    assert sorted(inexact_uses(tree)) == [
        "1 import cmath", "1 import math", "2 math.sqrt", "3 statistics.mean",
        "5 0.5", "5 2j", "6 complex()", "6 float()",
    ]
