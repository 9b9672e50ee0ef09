import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import grmjacobi
from grmjacobi._parallel import run_chunks, split


def test_split_is_contiguous_and_bounded():
    for n in range(10):
        items = list(range(n))
        for workers in (1, 2, 3):
            chunks = split(items, workers)
            assert [x for chunk in chunks for x in chunk] == items
            assert len(chunks) <= 4 * workers
        assert len(split(items, 1)) == 1


def test_cli_import_does_not_load_the_process_pool():
    # a one-worker run never starts a pool, so it should not pay for the import
    probe = "import sys, grmjacobi.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(grmjacobi.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def test_pool_size_is_capped_by_the_cpu_count(monkeypatch):
    # a fake pool that records its size and maps inline, so no process starts
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    items = list(range(1820))
    chunks = split(items, 10**6)
    assert run_chunks(sum, chunks, 10**6) == [sum(chunk) for chunk in chunks]
    assert sizes == [min(len(chunks), os.cpu_count() or 1)]
