"""The planted defects of `mutant_sweep.py` stay current with the source."""

import ast

from mutant_sweep import MUTANTS, ROOT, occurrences


def test_every_mutant_text_occurs_exactly_once_in_src():
    # a refactor that moves or rewrites a mutant's old text would otherwise
    # leave the sweep planting nothing
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.old != m.new, m.name
        assert occurrences(m.old) == {m.path: 1}, m.name


def test_every_mutant_names_tests_that_exist():
    for m in MUTANTS:
        assert m.tests, m.name
        for node in m.tests:
            path, _, name = node.partition("::")
            tree = ast.parse((ROOT / path).read_text())
            assert name in {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}, (m.name, node)
