"""Fixtures shared by the test modules."""

from functools import lru_cache

import pytest

from qtrw import systems


@pytest.fixture
def fresh_catalog(monkeypatch):
    """The catalog's samples parsed anew for one test.  Copies of a sample
    share what is compiled from its rules (``RewriteSystem.copy``), so a
    test that counts what a system compiles must not see what other tests'
    copies compiled before it."""
    monkeypatch.setattr(systems, "_parsed",
                        lru_cache(maxsize=None)(systems._parsed.__wrapped__))
