"""The hand-made mutants of tests/mutants.py still name code in the working tree.

mutants.py runs for minutes, so a mutant whose old text the code no longer
holds would otherwise show only there, as STALE.  This checks each one's
text and test files in well under a second.
"""

from __future__ import annotations

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_mutant_old_text_occurs_once_and_its_tests_exist(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    for test in mutant.tests:
        assert (ROOT / test).is_file(), test
