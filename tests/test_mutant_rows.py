"""Every row of the mutation table in ``tests/mutants.py`` still applies.

A row whose old text no longer occurs exactly once in its file would show
only in a full mutation run, which takes over a minute; this test makes it
fail here, in the ordinary test run.
"""

from mutants import MUTANTS, ROOT


def test_every_old_text_occurs_exactly_once():
    counts = [(name, path, (ROOT / "src" / "etaprover" / path)
               .read_text().count(old))
              for name, path, old, _, _ in MUTANTS]
    assert [row for row in counts if row[2] != 1] == []
    assert len({name for name, _, _ in counts}) == len(counts)


def test_every_row_names_tests_only():
    # the unmutated run takes every row's tests in one pytest call
    assert [a for *_, tests in MUTANTS for a in tests
            if not a.startswith("tests/")] == []
