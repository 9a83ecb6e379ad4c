"""Every function, method and class defined in `src/envspin` has a caller
outside the tests: some code in `src/envspin`, `demos` or `bench` names it.

A name counts as referenced by a `Name` or `Attribute` node, by an import
alias, or by a string constant equal to it (`bench/spans.py` names traced
functions as strings).  The package `__init__.py` re-exports are not callers,
and a definition is not a reference to itself.  Dunder names are left out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "envspin"
CALLER_DIRS = (PACKAGE, ROOT / "demos", ROOT / "bench")


def _trees(directory):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions():
    defined = {}
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, "%s:%d" % (path.relative_to(ROOT), node.lineno))
    return defined


def _references():
    used = set()
    for directory in CALLER_DIRS:
        for path, tree in _trees(directory):
            reexports = path.name == "__init__.py"
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias) and not reexports:
                    used.add(node.name.rsplit(".", 1)[-1])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    return used


def test_every_defined_name_has_a_caller_outside_the_tests():
    used = _references()
    unused = sorted("%s (%s)" % (name, where) for name, where in _definitions().items() if name not in used)
    assert not unused, "defined in src/envspin but named nowhere in src, demos or bench: " + ", ".join(unused)
