"""Fixtures shared by the test modules."""

from concurrent.futures import process

import pytest

from radwalk import clt_experiments


@pytest.fixture
def forced_pools(monkeypatch):
    """Send every walk of two chunks or more to a real process pool, however
    little work it holds (``_POOL_WORK`` set to 1), and record the size of
    each pool opened, in order, so a test can assert that a pool really ran."""
    sizes = []

    class Recorded(process.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            sizes.append(max_workers)

    monkeypatch.setattr(clt_experiments, "_POOL_WORK", 1)
    monkeypatch.setattr(clt_experiments, "ProcessPoolExecutor", Recorded)
    return sizes
