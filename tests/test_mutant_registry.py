"""The mutant registry (`tests/mutants.py`) follows the code: every snippet
occurs exactly once in its module, so each mutant changes one known place.
Whether the named tests kill each mutant is the runner's to decide."""

from mutants import MUTANTS, ROOT, occurrences


def test_every_snippet_occurs_once_in_its_module():
    stale = [(m.name, m.module, occurrences(m)) for m in MUTANTS if occurrences(m) != 1]
    assert not stale


def test_every_entry_names_a_change_and_existing_tests():
    names = [m.name for m in MUTANTS]
    assert len(names) >= 8 and len(set(names)) == len(names)
    for m in MUTANTS:
        assert m.snippet != m.replacement and m.tests, m.name
        for test in m.tests:
            path, _, function = test.partition("::")
            text = (ROOT / path).read_text(encoding="utf-8")
            assert not function or f"def {function}(" in text, (m.name, test)
