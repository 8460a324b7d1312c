"""tools/mutants.py, the comparison-flip and and/or-swap mutation tool: a
run on a toy tree whose tests kill one mutant of each kind and miss another, and the committed list of
equivalent mutants against the current source."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

TOY = '''def sign(x):
    return 1 if x > 0 else 0  # a comment > stays


def big(x):
    return (x  # > in a comment between the operands
            >= 1000)


def first(a, b):
    return a or b


def both(a, b):
    return (a and  # an or in a comment stays
            b)
'''

TOY_TESTS = '''from toy import big, both, first, sign


def test_toy():
    assert (sign(0), sign(2)) == (0, 1)
    assert big(5000) and not big(5)
    assert (first(0, 3), both(1, 1)) == (3, 1)
'''


def test_the_tool_reports_the_mutant_the_tests_miss(tmp_path, capsys, monkeypatch):
    # the toy's tests need no pytest plugin, and its runs start 1 s sooner without
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    known = "# not the survivor\ntoy.py sign: x > 0 -> x >= 0 | not so\n"
    for path, text in (("src/toy.py", TOY), ("tests/test_toy.py", TOY_TESTS), ("tools/equivalent_mutants.txt", known)):
        (tmp_path / path).parent.mkdir(exist_ok=True)
        (tmp_path / path).write_text(text)
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    code = mutants.main(["src/toy.py"])
    assert capsys.readouterr().out.splitlines() == [
        "killed   toy.py sign: x > 0 -> x >= 0 (line 2)",
        "survives toy.py big: x # > in a comment between the operands >= 1000 -> x # > in a comment between the operands > 1000 (line 7)",
        "killed   toy.py first: a or b -> a and b (line 11)",
        "survives toy.py both: a and # an or in a comment stays b -> a or # an or in a comment stays b (line 15)",
        "4 mutants: 2 killed by tests/test_toy.py, 0 by the full suite, 2 survive it",
        "survivor toy.py big: x # > in a comment between the operands >= 1000 -> x # > in a comment between the operands > 1000 (line 7)",
        "survivor toy.py both: a and # an or in a comment stays b -> a or # an or in a comment stays b (line 15)",
    ]
    assert code == 1
    # the tree it mutated was a copy
    assert (tmp_path / "src" / "toy.py").read_text() == TOY


def _undone(name: str) -> str:
    """The name of the flip that undoes this one, without its rank."""
    head, _, mutated = name.split(" #")[0].rpartition(" -> ")
    where, _, original = head.partition(": ")
    return f"{where}: {mutated} -> {original}"


def test_every_listed_equivalent_mutant_is_a_mutant_of_the_source():
    """Each listed name is a mutant of the source, or, in a tree that
    carries that mutant (as the tool's runs do), the flip undoing it is."""
    known = mutants.read_equivalents(ROOT / "tools" / "equivalent_mutants.txt")
    assert known
    names = {
        name
        for path in (ROOT / "src" / "symcone").glob("*.py")
        for name, *_ in mutants.find_mutants(path.read_bytes(), path.name)
    }
    unranked = {name.split(" #")[0] for name in names}
    assert [name for name in known if name not in names and _undone(name) not in unranked] == []
