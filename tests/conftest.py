"""Fixtures shared by every test module."""

import pytest

from ctxembed import engine, syntax


@pytest.fixture(autouse=True)
def empty_module_memos():
    # a test that counts reductions or parses, caps them or watches the
    # intern table must not see what an earlier test left in a memo
    engine._solved.clear()
    syntax.parse_strategy.cache_clear()
