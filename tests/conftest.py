"""Shared test set-up."""

import pytest

from etaprover import qseries


@pytest.fixture(autouse=True)
def empty_euler_powers():
    """Start every test with an empty table of Euler-product powers, so that
    no test passes only because an earlier one warmed the table."""
    qseries._POWERS.clear()
