"""Fixtures shared by every test module."""

import pytest

import vsc.elliptic


@pytest.fixture(autouse=True)
def empty_memo():
    """An empty planner memo for each test; the previous contents come back after.

    A test that compares two evaluations, pooled and serial or computed and
    read from disk, clears it between them, or the second is served from memory.
    """
    saved = dict(vsc.elliptic.memo)
    vsc.elliptic.memo.clear()
    yield vsc.elliptic.memo
    vsc.elliptic.memo.clear()
    vsc.elliptic.memo.update(saved)
