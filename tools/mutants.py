"""Comparison-flip and and/or-swap mutation testing of one module.

Each ``<``, ``<=``, ``>`` and ``>=`` of the module is flipped in turn (``<``
to ``<=``, ``>=`` to ``>`` and so on), and each ``and`` or ``or`` expression
has its operator swapped, in a copy of the tree.  The module's
own test files run on each mutant; the full suite then runs on each mutant
they leave alive, and the mutants that survive it are printed, each marked
when ``tools/equivalent_mutants.txt`` names it as equivalent.  The exit
status is 0 when every survivor is a known equivalent, 1 otherwise and 2
when the module's tests fail on the unmutated tree.

    python tools/mutants.py src/symcone/chambers.py
    python tools/mutants.py src/symcone/moves.py --tests tests/test_moves.py tests/test_checker.py

A mutant costs one run of the module's tests and a survivor one run of the
full suite, so this is a tool, not a test.  A mutant is named by its file,
the function or class around it, the expression and its mutated text, which
do not move when lines are added above it; its line, that of its (first)
operator, is printed beside the name.  Operators are found with ``ast`` and
replaced in place, so every line number and comment of the mutant is the
original's.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}
SWAPS = {ast.And: ("and", "or"), ast.Or: ("or", "and")}
# seconds a test run may take before the mutant counts as killed
TIMEOUT = 900
COPY_IGNORES = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
# an entry of the equivalents file: the mutant's name, " | ", a one-line proof
ENTRY = re.compile(r"^(.+?) \| (.+)$")


def find_mutants(source: bytes, file_name: str) -> list[tuple[str, int, int, int, bytes]]:
    """(name, line, start, end, mutated) for each flippable comparison and
    each and/or, where mutated replaces source[start:end], the expression."""
    starts = [0]
    for text in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(text))
    found = []
    seen: dict[str, int] = {}

    def text(chunk: bytes) -> str:
        return " ".join(chunk.decode("utf-8").split())

    def operator(left: ast.AST, right: ast.AST, pattern: bytes) -> int:
        # ast offsets count UTF-8 bytes; between two operands stand only
        # brackets, blanks, comments and the operator
        lo = starts[left.end_lineno - 1] + left.end_col_offset
        gap = source[lo : starts[right.lineno - 1] + right.col_offset]
        code = re.sub(rb"#[^\n]*", lambda comment: b" " * len(comment.group()), gap)
        return lo + re.search(pattern, code).start()

    def add(scope: tuple[str, ...], node: ast.AST, at: list[int], old: str, new: str) -> None:
        first = starts[node.lineno - 1] + node.col_offset
        last = starts[node.end_lineno - 1] + node.end_col_offset
        mutated, cut = b"", first
        for start in at:
            mutated += source[cut:start] + new.encode()
            cut = start + len(old)
        mutated += source[cut:last]
        name = f"{file_name} {'.'.join(scope) or '<module>'}: {text(source[first:last])} -> {text(mutated)}"
        # a second equal mutant in one scope is told apart by its rank
        seen[name] = seen.get(name, 0) + 1
        if seen[name] > 1:
            name += f" #{seen[name]}"
        found.append((name, source.count(b"\n", 0, at[0]) + 1, first, last, mutated))

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if type(op) in FLIPS:
                    old, new = FLIPS[type(op)]
                    add(scope, node, [operator(left, right, rb"[<>]")], old, new)
        elif isinstance(node, ast.BoolOp):
            # every operator of the node swaps at once; and binds tighter
            # than or and both associate, so the text means the swapped node
            old, new = SWAPS[type(node.op)]
            at = [operator(left, right, old.encode()) for left, right in zip(node.values, node.values[1:])]
            add(scope, node, at, old, new)
        for child in ast.iter_child_nodes(node):
            inner = (child.name,) if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else ()
            visit(child, scope + inner)

    visit(ast.parse(source), ())
    return found


def read_equivalents(path: Path) -> dict[str, str]:
    """Mutant name -> proof, from the lines of path that are not blank or
    comments; a missing file names none."""
    if not path.exists():
        return {}
    known = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            entry = ENTRY.match(line)
            if entry is None:
                raise SystemExit(f"{path}: not 'name | proof': {line!r}")
            known[entry.group(1)] = entry.group(2)
    return known


def passes(tree: Path, tests: list[str]) -> bool:
    """Whether pytest passes in the tree on the test paths (on its
    configured test paths when none are given); a hung run fails."""
    path = os.pathsep.join(filter(None, (str(tree / "src"), os.environ.get("PYTHONPATH"))))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(command, cwd=tree, env={**os.environ, "PYTHONPATH": path},
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module's path in this checkout, e.g. src/symcone/chambers.py")
    parser.add_argument("--tests", nargs="+", help="its test files (default: tests/test_<module>.py)")
    args = parser.parse_args(argv)
    module = Path(args.module)
    tests = args.tests or [f"tests/test_{module.stem}.py"]
    known = read_equivalents(ROOT / "tools" / "equivalent_mutants.txt")
    with tempfile.TemporaryDirectory() as workdir:
        tree = Path(workdir) / "tree"
        shutil.copytree(ROOT, tree, ignore=COPY_IGNORES)
        target = tree / module
        source = target.read_bytes()
        if not passes(tree, tests):
            print(f"{' '.join(tests)} fail on the unmutated tree")
            return 2
        mutants = find_mutants(source, module.name)
        alive = []
        for mutant in mutants:
            name, line, start, end, mutated = mutant
            target.write_bytes(source[:start] + mutated + source[end:])
            survived = passes(tree, tests)
            print(f"{'survives' if survived else 'killed  '} {name} (line {line})", flush=True)
            if survived:
                alive.append(mutant)
        survivors = []
        for mutant in alive:
            name, line, start, end, mutated = mutant
            target.write_bytes(source[:start] + mutated + source[end:])
            if passes(tree, []):
                survivors.append(mutant)
    print(f"{len(mutants)} mutants: {len(mutants) - len(alive)} killed by {' '.join(tests)}, "
          f"{len(alive) - len(survivors)} by the full suite, {len(survivors)} survive it")
    for name, line, *_ in survivors:
        proof = known.get(name)
        print(f"survivor {name} (line {line})" + (f"; equivalent: {proof}" if proof else ""))
    return 0 if all(name in known for name, *_ in survivors) else 1


if __name__ == "__main__":
    sys.exit(main())
