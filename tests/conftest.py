"""Fixtures shared by every test module."""

import pytest

from ctxembed import engine


@pytest.fixture(autouse=True)
def empty_unification_memo():
    # a test that counts reductions, caps them or watches the intern table
    # must not see outputs that an earlier test left in the memo
    engine._UNIFIED.clear()
