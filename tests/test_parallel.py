import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

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
    # Every command starts a fresh interpreter: the import, and a one-worker
    # run that never starts a pool, load neither the pool nor the modules
    # behind dataclasses.
    probe = """if True:
        import contextlib, io, sys
        heavy = ("dataclasses", "inspect", "ast", "multiprocessing")
        import grmjacobi.cli
        print(sorted(set(heavy) & set(sys.modules)))
        with contextlib.redirect_stdout(io.StringIO()):
            code = grmjacobi.cli.main(["verify", "--p", "2", "--k", "1", "--m", "2"])
        print(code, sorted(set(heavy) & set(sys.modules)))
    """
    env = {**os.environ, "PYTHONPATH": str(Path(grmjacobi.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n0 []\n"


class FakePool:
    """Stands in for multiprocessing.Pool: records its size and how it is
    stopped, and maps lazily in this process, so no process starts."""

    sizes: list = []
    stops: list = []

    def __init__(self, processes, *options):
        self.sizes.append(processes)

    def imap(self, fn, items):
        return map(fn, items)

    def terminate(self):
        self.stops.append("terminate")

    def join(self):
        self.stops.append("join")


@pytest.fixture
def fake_pool(monkeypatch):
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    monkeypatch.setattr(FakePool, "stops", [])
    return FakePool


def test_pool_size_is_capped_by_the_cpu_count(fake_pool):
    items = list(range(1820))
    chunks = split(items, 10**6)
    assert list(run_chunks(sum, chunks, 10**6)) == [sum(chunk) for chunk in chunks]
    assert fake_pool.sizes == [min(len(chunks), os.cpu_count() or 1)]
    assert fake_pool.stops == ["terminate", "join"]


def test_run_chunks_is_lazy_at_one_worker():
    calls = []

    def fn(a):
        calls.append(a)
        return -a

    results = run_chunks(fn, [1, 2, 3], 1)
    assert calls == []
    assert next(results) == -1 and calls == [1]
    assert list(results) == [-2, -3] and calls == [1, 2, 3]


def test_closing_run_chunks_early_cancels_pending_work(fake_pool):
    calls = []

    def fn(a):
        calls.append(a)
        return a

    results = run_chunks(fn, [1, 2, 3, 4], 2)
    assert next(results) == 1
    results.close()
    assert calls == [1]
    assert fake_pool.stops == ["terminate", "join"]


def test_an_error_on_either_side_shuts_the_pool_down(fake_pool):
    with pytest.raises(ZeroDivisionError):  # raised by fn, through the iterator
        list(run_chunks(lambda a: 1 // a, [1, 0, 2], 2))
    with pytest.raises(KeyError):  # raised by the caller, which drops the iterator
        for _ in run_chunks(abs, [1, 2, 3], 2):
            raise KeyError("caller stops")
    assert fake_pool.stops == ["terminate", "join"] * 2



def _parent_handler(signum, frame):
    raise AssertionError("a worker ran its parent's SIGTERM handler")


def test_workers_take_the_default_sigterm_action():
    # the CLI handles SIGTERM; its forked workers must not, or terminate()
    # would wait for each of them to unwind
    previous = signal.signal(signal.SIGTERM, _parent_handler)
    try:
        seen = list(run_chunks(signal.getsignal, [signal.SIGTERM] * 2, 2))
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert seen == [signal.SIG_DFL] * 2
