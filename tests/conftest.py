"""Fixtures shared across the test packages."""

from concurrent.futures import ThreadPoolExecutor

import pytest


@pytest.fixture
def record_pool_sizes(monkeypatch):
    """Swap a module's ``ProcessPoolExecutor`` for an in-process pool.

    Call the fixture with the module; it returns the list that collects
    every ``max_workers`` the module asks for.
    """
    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    def install(module):
        monkeypatch.setattr(module, "ProcessPoolExecutor", RecordingPool)
        return sizes

    return install
